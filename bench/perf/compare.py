#!/usr/bin/env python3
"""Compare dsmbench results, or fold passes into a committed baseline.

Compare alternating parent/change BENCH_perf.json files (parent first in
each pair; at least ten pairs for a claim):

    python3 bench/perf/compare.py --claim wall_s:svc_kv \\
        parent1.json change1.json parent2.json change2.json ...

A claim (metric:workload) is met when the change wins at least 9/10 of the
pairs (ties count for neither) and the medians differ by more than the
parent's interquartile range.  Every other (end-to-end metric, workload)
pair is checked against the metric's bound from BENCHMARK.json: the
change's median may be worse than the parent's by at most `bound` of the
parent's median.  Where the parent's own spread exceeds the bound the pair
is "unresolved", unless every change run beats every parent run.  The
simulated-result digests must agree across all files of one seed.  Exit
code 0 when the claim (if any) is met and nothing regressed.

Fold several passes of one commit into baseline.json (one entry per line,
the format dsmbench reads for its delta column):

    python3 bench/perf/compare.py --baseline bench/perf/baseline.json \\
        --commit <sha> pass1.json pass2.json [traced1.json ...]
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(parent, change, better):
    """How much worse the change is, as a share of the parent."""
    gap = change - parent if better == "lower" else parent - change
    return gap / abs(parent) if parent else 0.0


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def values(runs, workload, metric):
    out = []
    for r in runs:
        m = r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def check_digests(runs):
    ok = True
    by_seed = {}
    for r in runs:
        for w, res in r["workloads"].items():
            by_seed.setdefault((r["seed"], w), set()).add(res["sim_digest"])
    for (seed, w), digests in sorted(by_seed.items()):
        if len(digests) != 1:
            print(f"DIGEST MISMATCH {w} seed {seed}: {sorted(digests)}")
            ok = False
    return ok


def compare(files, claim):
    spec = load(SPEC)
    runs = [load(p) for p in files]
    if len(runs) % 2:
        sys.exit("compare.py: give parent/change files in pairs")
    parents, changes = runs[0::2], runs[1::2]
    ok = check_digests(runs)

    failed = [sum(res["failed"] for res in r["workloads"].values()) for r in runs]
    if sum(failed[1::2]) > sum(failed[0::2]):
        print(f"change failed more simulations than parent: {failed}")
        ok = False

    if claim:
        metric, _, workload = claim.partition(":")
        better = next((m["better"] for m in spec["end_to_end"] + spec["per_layer"]
                       if m["name"] == metric), None)
        if better is None or workload not in parents[0]["workloads"]:
            sys.exit(f"compare.py: unknown claim {claim!r}; use metric:workload")
        p, c = values(parents, workload, metric), values(changes, workload, metric)
        wins = sum(beats(cv, pv, better) for pv, cv in zip(p, c))
        q1, pmed, q3 = quartiles(p)
        cmed = statistics.median(c)
        met = (len(p) >= 10 and wins >= 0.9 * len(p) and
               beats(cmed, pmed, better) and abs(cmed - pmed) > q3 - q1)
        print(f"claim {metric} on {workload}: parent median {pmed:.6g} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}], change median {cmed:.6g}, "
              f"wins {wins}/{len(p)} -> {'MET' if met else 'NOT MET'}")
        ok = ok and met

    print(f"{'workload':16s} {'metric':16s} {'parent':>12s} {'change':>12s} "
          f"{'worse':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            if claim == f"{name}:{w}":
                continue
            p, c = values(parents, w, name), values(changes, w, name)
            if not p or not c:
                continue
            q1, pmed, q3 = quartiles(p)
            cmed = statistics.median(c)
            spread = (q3 - q1) / abs(pmed) if pmed else 0.0
            worse = worse_by(pmed, cmed, better)
            if spread > bound and not all(beats(cv, pv, better) for cv in c for pv in p):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "ok"
            print(f"{w:16s} {name:16s} {pmed:12.6g} {cmed:12.6g} "
                  f"{worse:+8.1%} {spread:8.1%} {bound:6.0%}  {verdict}")
    return 0 if ok else 1


def baseline(files, out, commit):
    runs = [load(p) for p in files]
    if not check_digests(runs):
        sys.exit("compare.py: passes disagree on simulated results")
    samples = {}
    for r in runs:
        for w, res in r["workloads"].items():
            for name, m in res["metrics"].items():
                entry = samples.setdefault((w, name), {"unit": m["unit"], "v": []})
                entry["v"].extend(m["samples"])
    lines = []
    for (w, name), e in sorted(samples.items()):
        q1, med, q3 = quartiles(e["v"])
        lines.append(json.dumps({"workload": w, "metric": name, "unit": e["unit"],
                                 "median": med, "q1": q1, "q3": q3,
                                 "n": len(e["v"])}))
    seeds = sorted({r["seed"] for r in runs})
    with open(out, "w") as f:
        f.write("{\n")
        f.write(f'  "commit": {json.dumps(commit)},\n')
        f.write(f'  "nproc": {runs[0]["nproc"]},\n')
        f.write(f'  "seeds": {json.dumps(seeds)},\n')
        f.write(f'  "passes": {len(runs)},\n')
        f.write('  "metrics": [\n    ' + ",\n    ".join(lines) + "\n  ]\n}\n")
    print(f"wrote {out}: {len(lines)} (workload, metric) entries from {len(runs)} files")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", help="BENCH_perf.json files")
    ap.add_argument("--claim", help="metric:workload the change claims to improve")
    ap.add_argument("--baseline", metavar="OUT", help="write a baseline instead")
    ap.add_argument("--commit", default="", help="commit recorded in the baseline")
    a = ap.parse_args()
    if a.baseline:
        return baseline(a.files, a.baseline, a.commit)
    return compare(a.files, a.claim)


if __name__ == "__main__":
    sys.exit(main())
