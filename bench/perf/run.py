#!/usr/bin/env python3
"""Build dsmbench from source, then run it with the given arguments.

Run from the repository root:

    python3 bench/perf/run.py --workload svc_kv --seed 7 --seconds 20 --trace 0

The first call configures and builds bench/perf into build-perf/; later
calls rebuild incrementally.  Build output goes to stderr, so the last line
of stdout is dsmbench's result object.  The exit code is dsmbench's, or
non-zero without a result when the sources are missing or do not build.
"""
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-perf")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: src/CMakeLists.txt not found; cannot build dsmbench")
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Serialises concurrent invocations in one checkout around the build.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, env=env)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                       stdout=sys.stderr, check=True, env=env)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    # dsmbench and its per-workload child share a new process group, so a
    # signal to this script stops both; wait() then reaps dsmbench.
    proc = subprocess.Popen([os.path.join(BUILD, "dsmbench")] + sys.argv[1:],
                            start_new_session=True)

    def stop(_signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = proc.wait()
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
