// dsmbench: host-time benchmark of the DSM simulator (README.md beside
// this file says why each workload exists and which layer metric should
// move which end-to-end metric).
//
// Two clocks appear here and are never mixed: host time is what this
// simulator takes to run; virtual time is the modelled 1997 cluster's time
// (units named virtual_*).  The benchmark times the library from outside
// only: every host-time number is a steady_clock, getrusage or VmHWM
// reading taken by this file around calls into the layers' public
// functions.
//
// Each workload runs in its own child process, re-executed from this
// binary, so peak RSS is per workload and an abort fails only that
// workload.  The child prints "key value" lines on a pipe; the parent
// prints the table, writes BENCH_perf.json and, as the last line of
// stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_base.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "digest.hpp"
#include "harness/parallel_harness.hpp"
#include "mem/diff.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

extern char** environ;

namespace {

using namespace dsm;
using dsmbench::digest_into;
using dsmbench::Fnv1a;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 20.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU of the whole process (every thread).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Restarts the kernel's peak-RSS counter (VmHWM) at the current RSS, so
/// the next reading covers one iteration only.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak resident set since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  return 0.0;
}

/// Shortest round-trip decimal form (all digits a double carries).
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Keeps probe loops from being optimised away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------------
// Statistics.

struct Dist {
  std::vector<double> samples;  // in measurement order
  double q1 = 0, median = 0, q3 = 0;
};

/// Median and quartiles; the quartiles follow Python's
/// statistics.quantiles(v, n=4) (method 'exclusive'), which compare.py and
/// the acceptance rule use.
Dist dist_of(std::vector<double> v) {
  Dist d;
  d.samples = v;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return d;
  d.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    d.q1 = d.q3 = v[0];
  } else {
    const auto q = [&](long i) {
      const long m = static_cast<long>(n) + 1;
      const long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
      const long delta = i * m - j * 4;
      const double lo = v[static_cast<std::size_t>(j - 1)];
      const double hi = v[static_cast<std::size_t>(j)];
      return (lo * static_cast<double>(4 - delta) +
              hi * static_cast<double>(delta)) / 4.0;
    };
    d.q1 = q(1);
    d.q3 = q(3);
  }
  return d;
}

/// Nearest-rank percentile of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median_of(const std::vector<double>& v) { return dist_of(v).median; }

// ---------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  /// paper_matrix: the apps x protocols x grains sweep through
  /// ParallelHarness.  Otherwise one (app, protocol, grain) configuration
  /// run directly on a Runtime.
  bool matrix = false;
  std::string app;
  ProtocolKind proto = ProtocolKind::kHLRC;
  std::size_t gran = 4096;
  int nodes = 16;
  apps::Scale scale = apps::Scale::kSmall;
  sim::SimPar par = sim::SimPar::kOff;
  apps::AppArgs args;
};

const std::vector<std::string> kMatrixApps = {
    "LU",           "FFT",           "Ocean-Rowwise",   "Water-Nsquared",
    "Water-Spatial", "Volrend-Rowwise", "Raytrace", "Barnes-Spatial"};
constexpr ProtocolKind kMatrixProtos[] = {ProtocolKind::kSC,
                                          ProtocolKind::kSWLRC,
                                          ProtocolKind::kHLRC,
                                          ProtocolKind::kMWLRC};
constexpr std::size_t kMatrixGrains[] = {256, 4096};

/// All load comes from one process using at most four threads.
int bench_threads() { return std::min(4, ThreadPool::hardware_threads()); }

/// The five workloads; `smoke` shrinks them to tiny scale (64 nodes for the
/// scale pair, 100 requests per node for the services).
std::vector<Workload> all_workloads(bool smoke) {
  const apps::Scale scale = smoke ? apps::Scale::kTiny : apps::Scale::kSmall;
  std::vector<Workload> v;

  Workload m;
  m.name = "paper_matrix";
  m.matrix = true;
  m.scale = scale;
  v.push_back(m);

  Workload s;
  s.name = "scale256";
  s.app = "FFT";
  s.nodes = smoke ? 64 : 256;
  s.scale = scale;
  v.push_back(s);

  Workload w = s;
  w.name = "scale256_window";
  w.par = sim::SimPar::kWindow;
  v.push_back(w);

  for (const char* app : {"SvcKV", "SvcQueue"}) {
    Workload q;
    q.name = std::strcmp(app, "SvcKV") == 0 ? "svc_kv" : "svc_queue";
    q.app = app;
    q.scale = scale;
    // 750 req/s per node is below saturation for HLRC at 4096 B.
    q.args.set_double("rate", 750.0);
    q.args.set_double("skew", 0.9);
    q.args.set_double("read-frac", 0.9);
    q.args.set_int("requests", smoke ? 100 : 1000);
    v.push_back(q);
  }
  return v;
}

/// Mirrors Harness::make_config, for simulations run outside the Harness.
DsmConfig config_for(const Workload& w, const apps::AppInfo& info,
                     ProtocolKind proto, std::size_t gran, std::uint64_t seed,
                     trace::Mode tm) {
  DsmConfig c;
  c.nodes = w.nodes;
  c.protocol = proto;
  c.granularity = gran;
  c.notify = net::NotifyMode::kPolling;
  c.seed = seed;
  c.poll_dilation = info.poll_dilation;
  c.shared_bytes = w.scale == apps::Scale::kTiny ? 8u << 20 : 16u << 20;
  c.sim_par = w.par;
  // The driving thread plus this many helpers is the thread allowance.
  c.sim_par_workers = std::max(1, bench_threads() - 1);
  c.trace_mode = tm;
  return c;
}

const apps::AppInfo& app_info(const std::string& name) {
  const apps::AppInfo* info = apps::find_app(name);
  DSM_CHECK_MSG(info != nullptr, "unknown application");
  return *info;
}

// ---------------------------------------------------------------------
// Timed calls into the library.

/// Forwards to the real application and times App::setup, which
/// Runtime::run calls before it spawns the node fibers.
class TimedApp final : public App {
 public:
  explicit TimedApp(App& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void setup(SetupCtx& s) override {
    const auto t0 = Clock::now();
    inner_.setup(s);
    setup_s = since(t0);
  }
  void node_main(Context& ctx) override { inner_.node_main(ctx); }
  std::string verify() override { return inner_.verify(); }
  const LatencySummary* latency() const override { return inner_.latency(); }

  double setup_s = 0;

 private:
  App& inner_;
};

/// Host seconds of one simulation's phases.
struct Phases {
  double ctor = 0, setup = 0, run = 0, teardown = 0, verify = 0;
};

struct SimOut {
  Phases ph;
  RunResult r;
  const LatencySummary* latency = nullptr;  // valid while `app` lives
  std::unique_ptr<App> app;
  std::string verify_msg;
};

SimOut run_sim(const Workload& w, const std::string& app, ProtocolKind proto,
               std::size_t gran, std::uint64_t seed, trace::Mode tm) {
  const apps::AppInfo& info = app_info(app);
  SimOut o;
  o.app = info.make_checked(w.scale, w.args);
  TimedApp timed(*o.app);
  const DsmConfig c = config_for(w, info, proto, gran, seed, tm);
  auto t0 = Clock::now();
  auto rt = std::make_unique<Runtime>(c);
  o.ph.ctor = since(t0);
  t0 = Clock::now();
  o.r = rt->run(timed);
  o.ph.run = since(t0) - timed.setup_s;
  o.ph.setup = timed.setup_s;
  t0 = Clock::now();
  rt.reset();
  Arena::reset_current();
  o.ph.teardown = since(t0);
  t0 = Clock::now();
  o.verify_msg = o.app->verify();
  o.ph.verify = since(t0);
  o.latency = o.app->latency();
  if (!o.verify_msg.empty()) {
    std::fprintf(stderr, "dsmbench: %s verification failed: %s\n",
                 app.c_str(), o.verify_msg.c_str());
  }
  return o;
}

/// Deterministic layer counters of one iteration, folded over its
/// simulations: counts are summed, footprints take the maximum.
struct Agg {
  RunStats s;
  NodeStats t;
  std::uint64_t diff_block_bytes = 0;  // sum of diffs x grain
  std::array<double, trace::kNumCats> vt_ns{};
  double vt_total = 0;
  LatencySummary lat;

  std::uint64_t steps() const { return s.sim_events + s.sim_yields; }

  void add(const RunStats& r, std::size_t gran, const trace::Breakdown& b,
           const LatencySummary* l) {
    s.messages += r.messages;
    s.traffic_bytes += r.traffic_bytes;
    s.payload_bytes += r.payload_bytes;
    s.parallel_time_ns += r.parallel_time_ns;
    s.sim_events += r.sim_events;
    s.sim_yields += r.sim_yields;
    s.evq_resizes += r.evq_resizes;
    s.evq_max_bucket_depth =
        std::max(s.evq_max_bucket_depth, r.evq_max_bucket_depth);
    s.simpar_windows += r.simpar_windows;
    s.simpar_window_events += r.simpar_window_events;
    s.simpar_merge_ops += r.simpar_merge_ops;
    s.simpar_handoff_ns += r.simpar_handoff_ns;
    s.simpar_commit_ns += r.simpar_commit_ns;
    s.soa_table_bytes = std::max(s.soa_table_bytes, r.soa_table_bytes);
    s.replicated_bytes = std::max(s.replicated_bytes, r.replicated_bytes);
    s.protocol_meta_bytes =
        std::max(s.protocol_meta_bytes, r.protocol_meta_bytes);
    s.peak_twin_bytes = std::max(s.peak_twin_bytes, r.peak_twin_bytes);
    s.arena_slabs = std::max(s.arena_slabs, r.arena_slabs);
    s.heap_fallback_allocs += r.heap_fallback_allocs;
    s.arena_recycled_allocs += r.arena_recycled_allocs;
    const NodeStats nt = r.total();
    t += nt;
    diff_block_bytes += nt.diffs * gran;
    for (const trace::NodeBreakdown& nb : b.node) {
      for (int c = 0; c < trace::kNumCats; ++c) {
        vt_ns[static_cast<std::size_t>(c)] +=
            static_cast<double>(nb.ns[static_cast<std::size_t>(c)]);
      }
      vt_total += static_cast<double>(nb.total_ns);
    }
    if (l != nullptr) lat = *l;
  }
};

/// One iteration of a workload: everything the end-to-end metrics and the
/// layer report need.
struct Iter {
  double wall_s = 0, cpu_s = 0;
  /// Per-simulation host seconds of Runtime::run, App::setup included
  /// (ExpResult::host_seconds for the sweep).
  std::vector<double> sim_s;
  Phases ph;  // single-configuration workloads only
  std::uint64_t digest = 0;
  int sims = 0, failed = 0;
  Agg agg;
};

Iter iterate_single(const Workload& w, std::uint64_t seed, trace::Mode tm) {
  Iter it;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  SimOut o = run_sim(w, w.app, w.proto, w.gran, seed, tm);
  it.wall_s = since(t0);
  it.cpu_s = process_cpu_seconds() - cpu0;
  it.sims = 1;
  it.failed = o.verify_msg.empty() ? 0 : 1;
  it.ph = o.ph;
  it.sim_s.push_back(o.ph.setup + o.ph.run);
  Fnv1a f;
  digest_into(f, o.r.stats, o.latency);
  it.digest = f.value();
  it.agg.add(o.r.stats, w.gran, o.r.breakdown, o.latency);
  return it;
}

Iter iterate_matrix(const Workload& w, std::uint64_t seed, trace::Mode tm) {
  Iter it;
  // A fresh Harness per iteration: sequential baselines are simulated
  // again each time, as a figure binary would.
  harness::Harness h(w.scale, w.nodes, seed);
  h.set_progress(false);
  h.set_trace(tm);
  const std::vector<harness::ExpKey> keys = harness::ParallelHarness::cross(
      kMatrixApps, kMatrixProtos, kMatrixGrains);
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  std::vector<const harness::ExpResult*> res;
  {
    harness::ParallelHarness ph(h, bench_threads());
    res = ph.run_all(keys);
  }
  it.wall_s = since(t0);
  it.cpu_s = process_cpu_seconds() - cpu0;
  // Verification failures abort inside Harness::run, taking the child
  // down; reaching here means all of them passed.
  it.sims = static_cast<int>(keys.size() + kMatrixApps.size());
  Fnv1a f;
  for (std::size_t i = 0; i < res.size(); ++i) {
    const harness::ExpResult& r = *res[i];
    it.sim_s.push_back(r.host_seconds);
    digest_into(f, r.stats, nullptr);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r.speedup, sizeof bits);
    f.add(bits);  // pins the sequential baselines too
    it.agg.add(r.stats, keys[i].gran, r.breakdown, nullptr);
  }
  it.digest = f.value();
  return it;
}

Iter iterate(const Workload& w, std::uint64_t seed, trace::Mode tm) {
  return w.matrix ? iterate_matrix(w, seed, tm) : iterate_single(w, seed, tm);
}

/// Host seconds to set up every simulation of one iteration: Runtime
/// construction plus App::setup, nothing run.  Teardown is not counted.
double setup_once(const Workload& w, std::uint64_t seed) {
  double total = 0;
  const auto one = [&](const std::string& app, ProtocolKind p,
                       std::size_t g) {
    const apps::AppInfo& info = app_info(app);
    auto inst = info.make_checked(w.scale, w.args);
    const DsmConfig c = config_for(w, info, p, g, seed, trace::Mode::kOff);
    {
      const auto t0 = Clock::now();
      Runtime rt(c);
      SetupCtx s(rt.space(), rt.config());
      inst->setup(s);
      total += since(t0);
    }
    Arena::reset_current();
  };
  if (w.matrix) {
    for (const harness::ExpKey& k : harness::ParallelHarness::cross(
             kMatrixApps, kMatrixProtos, kMatrixGrains)) {
      one(k.app, k.proto, k.gran);
    }
  } else {
    one(w.app, w.proto, w.gran);
  }
  return total;
}

// ---------------------------------------------------------------------
// Unit-cost probes: each layer's public functions called in a loop with
// parameters measured from the workload.  Each is reported as the median
// of five repetitions.

template <typename F>
double median_of_5(F probe) {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) v.push_back(probe());
  return median_of(v);
}

struct QEl {
  SimTime at;
  std::uint64_t seq;
};
struct QTraits {
  static SimTime time(const QEl& e) { return e.at; }
  static bool less(const QEl& a, const QEl& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
};

/// CalendarQueue hold model (take the minimum, push it back a random hold
/// later) at `depth` pending events; ns per take+push.
double calendar_ns_per_op(std::size_t depth) {
  sim::CalendarQueue<QEl, QTraits> q;
  Rng rng(1);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(QEl{static_cast<SimTime>(1 + rng.next_below(4096)), seq++});
  }
  constexpr int kOps = 500'000;
  SimTime sum = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    const QEl e = q.take();
    sum += e.at;
    q.push(QEl{e.at + 1 + static_cast<SimTime>(rng.next_below(4096)), seq++});
  }
  const double s = since(t0);
  g_sink = g_sink + static_cast<std::uint64_t>(sum);
  return s * 1e9 / kOps;
}

/// One-node Engine charge+yield loop; ns per yield (a fiber switch out to
/// the scheduler and back).
double fiber_switch_ns() {
  constexpr int kYields = 200'000;
  sim::Engine eng(sim::Engine::Options{1, ns(1), 128 * 1024, ~0ull});
  eng.spawn(0, [&eng] {
    for (int i = 0; i < kYields; ++i) {
      eng.charge(ns(10));
      eng.yield();
    }
  });
  const auto t0 = Clock::now();
  eng.run();
  return since(t0) * 1e9 / kYields;
}

/// make_diff_into and apply_diff on a `grain`-byte block with `density`
/// of its words changed; ns per KB of block for each.
std::pair<double, double> diff_ns_per_kb(std::size_t grain, double density) {
  Rng rng(7);
  std::vector<std::byte> twin(grain);
  for (auto& b : twin) b = static_cast<std::byte>(rng.next_u64());
  std::vector<std::byte> dirty = twin;
  const std::size_t words = grain / 4;
  const auto changed = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(density * static_cast<double>(words))));
  for (std::size_t i = 0; i < changed; ++i) {
    const std::size_t wi = rng.next_below(words);
    dirty[wi * 4] = ~dirty[wi * 4];
  }
  // About 32 MiB of blocks per side: tens of milliseconds.
  const int reps =
      static_cast<int>(std::max<std::size_t>(1, (32u << 20) / grain));
  const double kb = static_cast<double>(grain) / 1024.0;
  Bytes diff;
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    g_sink = g_sink + mem::make_diff_into(std::span<const std::byte>(dirty),
                                          std::span<const std::byte>(twin),
                                          diff);
  }
  const double make = since(t0) * 1e9 / reps / kb;
  std::vector<std::byte> dst = twin;
  t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    mem::apply_diff(dst, diff);
    g_sink = g_sink + static_cast<std::uint64_t>(dst[0]);
  }
  const double apply = since(t0) * 1e9 / reps / kb;
  return {make, apply};
}

/// Arena-backed Bytes allocate+free at `bytes`; ns per pair.
double alloc_free_ns(std::size_t bytes) {
  constexpr int kOps = 1'000'000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    Bytes b;
    b.reserve(bytes);
    g_sink = g_sink + b.capacity();
  }
  return since(t0) * 1e9 / kOps;
}

// ---------------------------------------------------------------------
// Child process: runs one workload, prints "key value" lines on stdout.

struct Opts {
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool smoke = false;
};

void emit(const std::string& name, const char* unit, double v) {
  std::printf("m %s %s %s\n", name.c_str(), unit, num(v).c_str());
}

/// A timing with its samples; the parent reports median, q1 and q3.
void emit_samples(const std::string& name, const char* unit,
                  const std::vector<double>& v) {
  std::printf("d %s %s", name.c_str(), unit);
  for (double x : v) std::printf(" %s", num(x).c_str());
  std::printf("\n");
}

void emit_tally(int attempted, int failed, std::uint64_t digest) {
  std::printf("attempted %d\nfailed %d\ndigest 0x%016llx\n", attempted, failed,
              static_cast<unsigned long long>(digest));
}

/// Tracks the workload's digest across iterations; any mismatch is a
/// failed simulation.
struct DigestCheck {
  bool have = false;
  std::uint64_t want = 0;
  int attempted = 0, failed = 0;

  void take(const Iter& it, const char* what) {
    attempted += it.sims;
    failed += it.failed;
    if (!have) {
      have = true;
      want = it.digest;
    } else if (it.digest != want) {
      ++failed;
      std::fprintf(stderr, "dsmbench: %s digest 0x%016llx != 0x%016llx\n",
                   what, static_cast<unsigned long long>(it.digest),
                   static_cast<unsigned long long>(want));
    }
  }
};

/// scale256_window must reproduce the serial engine bitwise: its reference
/// digest comes from one untimed serial run of the same inputs.
void seed_reference(const Workload& w, const Opts& o, DigestCheck& dc) {
  if (w.par != sim::SimPar::kWindow) return;
  Workload serial = w;
  serial.par = sim::SimPar::kOff;
  dc.take(iterate(serial, o.seed, trace::Mode::kOff), "serial reference");
}

void run_timed(const Workload& w, const Opts& o) {
  // Set-up is a few milliseconds for one configuration, so it is repeated
  // (at least 5 and at most 21 times, for about a second) to get a steady
  // median.
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  while (setups.size() < (o.smoke ? 1u : 5u) ||
         (!o.smoke && setups.size() < 21 && since(setup_start) < 1.0)) {
    setups.push_back(setup_once(w, o.seed));
  }
  DigestCheck dc;
  seed_reference(w, o, dc);
  // Iterate for the time budget, starting no iteration that would overrun
  // it once the minimum count is reached.
  std::vector<double> wall, cpu, rate, rss;
  const std::size_t min_iters = o.smoke ? 1 : 3;
  const auto start = Clock::now();
  while (wall.size() < min_iters ||
         since(start) + wall.back() < o.seconds) {
    reset_peak_rss();
    const Iter it = iterate(w, o.seed, trace::Mode::kOff);
    rss.push_back(peak_rss_mb());
    dc.take(it, w.name.c_str());
    wall.push_back(it.wall_s);
    cpu.push_back(it.cpu_s);
    rate.push_back(static_cast<double>(it.agg.steps()) / it.wall_s);
  }
  emit_samples("wall_s", "s", wall);
  emit_samples("cpu_s", "s", cpu);
  emit_samples("setup_s", "s", setups);
  emit_samples("sim_steps_per_s", "1/s", rate);
  emit_samples("peak_rss_mb", "MB", rss);
  emit_tally(dc.attempted, dc.failed, dc.want);
}

void run_traced(const Workload& w, const Opts& o) {
  DigestCheck dc;
  seed_reference(w, o, dc);
  // Untraced and traced iterations alternate; the ratio of their
  // simulation host time is the tracing overhead.
  const auto run_seconds = [&](const Iter& it) {
    if (!w.matrix) return it.ph.run;
    double s = 0;
    for (double x : it.sim_s) s += x;
    return s;
  };
  std::vector<double> plain_run, traced_run, idle_frac, sim_s;
  std::vector<Phases> phases;
  Iter last;
  double pair_s = 0;
  const auto start = Clock::now();
  while (traced_run.empty() || since(start) + pair_s < o.seconds) {
    const auto pair_start = Clock::now();
    // The first iteration of a process runs cold; alternating which side
    // goes first keeps that out of the overhead estimate.
    const bool traced_first = traced_run.size() % 2 == 1;
    Iter t;
    if (traced_first) t = iterate(w, o.seed, trace::Mode::kBreakdown);
    const Iter plain = iterate(w, o.seed, trace::Mode::kOff);
    dc.take(plain, w.name.c_str());
    plain_run.push_back(run_seconds(plain));
    if (!traced_first) t = iterate(w, o.seed, trace::Mode::kBreakdown);
    dc.take(t, w.name.c_str());
    traced_run.push_back(run_seconds(t));
    double busy = 0;
    for (double x : t.sim_s) busy += x;
    const int workers = w.matrix ? bench_threads() : 1;
    idle_frac.push_back(1.0 - busy / (workers * t.wall_s));
    sim_s.insert(sim_s.end(), t.sim_s.begin(), t.sim_s.end());
    phases.push_back(t.ph);
    last = std::move(t);
    pair_s = since(pair_start);
  }
  if (w.matrix) {
    // The sweep hides each simulation's phases inside Harness::run; split
    // them on the HLRC / 4096 B column, run serially with tracing on.
    Phases sum;
    for (const std::string& app : kMatrixApps) {
      const SimOut so = run_sim(w, app, ProtocolKind::kHLRC, 4096, o.seed,
                                trace::Mode::kBreakdown);
      dc.attempted += 1;
      dc.failed += so.verify_msg.empty() ? 0 : 1;
      sum.ctor += so.ph.ctor;
      sum.setup += so.ph.setup;
      sum.run += so.ph.run;
      sum.teardown += so.ph.teardown;
      sum.verify += so.ph.verify;
    }
    phases = {sum};
  }
  const auto phase = [&](double Phases::* f) {
    std::vector<double> v;
    for (const Phases& p : phases) v.push_back(p.*f);
    return median_of(v);
  };

  const Agg& a = last.agg;
  const NodeStats& t = a.t;
  const RunStats& s = a.s;
  const double run_s = median_of(traced_run);
  emit("harness.run_s_p50", "s", percentile(sim_s, 0.50));
  emit("harness.run_s_p90", "s", percentile(sim_s, 0.90));
  emit("harness.pool_idle_frac", "frac", median_of(idle_frac));
  emit("runtime.ctor_s", "s", phase(&Phases::ctor));
  emit("apps.setup_s", "s", phase(&Phases::setup));
  emit("runtime.run_s", "s", phase(&Phases::run));
  emit("runtime.teardown_s", "s", phase(&Phases::teardown));
  emit("apps.verify_s", "s", phase(&Phases::verify));

  const double fiber_ns = median_of_5(fiber_switch_ns);
  const std::size_t depth = 4 * static_cast<std::size_t>(w.nodes);
  emit("sim.events", "count", static_cast<double>(s.sim_events));
  emit("sim.yields", "count", static_cast<double>(s.sim_yields));
  const auto steps = static_cast<double>(std::max<std::uint64_t>(1, a.steps()));
  emit("sim.ns_per_step", "ns", run_s * 1e9 / steps);
  emit("sim.evq_resizes", "count", static_cast<double>(s.evq_resizes));
  emit("sim.evq_max_bucket_depth", "count",
       static_cast<double>(s.evq_max_bucket_depth));
  emit("sim.windows", "count", static_cast<double>(s.simpar_windows));
  emit("sim.events_per_window", "count", s.simpar_events_per_window());
  // Window hand-off and commit as shares of the simulation's host time.
  emit("sim.handoff_frac", "frac",
       static_cast<double>(s.simpar_handoff_ns) / 1e9 / run_s);
  emit("sim.commit_frac", "frac",
       static_cast<double>(s.simpar_commit_ns) / 1e9 / run_s);
  emit("sim.merge_ops", "count", static_cast<double>(s.simpar_merge_ops));
  emit("sim.calendar_ns_per_op", "ns",
       median_of_5([&] { return calendar_ns_per_op(depth); }));
  emit("sim.fiber_switch_ns", "ns", fiber_ns);
  emit("sim.yield_share_est", "frac",
       static_cast<double>(s.sim_yields) * fiber_ns / 1e9 / run_s);

  emit("net.messages", "count", static_cast<double>(s.messages));
  emit("net.traffic_mb", "MB", static_cast<double>(s.traffic_bytes) / 1e6);
  emit("net.payload_mb", "MB", static_cast<double>(s.payload_bytes) / 1e6);

  emit("proto.read_faults", "count", static_cast<double>(t.read_faults));
  emit("proto.write_faults", "count", static_cast<double>(t.write_faults));
  emit("proto.remote_faults", "count",
       static_cast<double>(t.remote_read_faults + t.remote_write_faults));
  emit("proto.invalidations", "count", static_cast<double>(t.invalidations));
  emit("proto.block_fetches", "count", static_cast<double>(t.block_fetches));
  emit("proto.twins", "count", static_cast<double>(t.twins));
  emit("proto.diffs", "count", static_cast<double>(t.diffs));
  emit("proto.diff_kb", "KB", static_cast<double>(t.diff_bytes) / 1e3);
  emit("proto.notices", "count", static_cast<double>(t.notices_processed));

  emit("mem.block_table_mb", "MB",
       static_cast<double>(s.soa_table_bytes) / 1e6);
  emit("mem.replicated_mb", "MB",
       static_cast<double>(s.replicated_bytes) / 1e6);
  emit("mem.proto_meta_mb", "MB",
       static_cast<double>(s.protocol_meta_bytes) / 1e6);
  emit("mem.peak_twin_kb", "KB", static_cast<double>(s.peak_twin_bytes) / 1e3);
  emit("mem.bitmap_words_compared", "count",
       static_cast<double>(t.bitmap_words_compared));
  // Probe at the workload's (largest) grain and measured dirty density;
  // a workload without diffs is probed at a fully dirty block.
  const std::size_t grain = w.matrix ? kMatrixGrains[1] : w.gran;
  const double density =
      a.diff_block_bytes == 0
          ? 1.0
          : std::clamp(static_cast<double>(t.diff_bytes) /
                           static_cast<double>(a.diff_block_bytes),
                       0.0, 1.0);
  std::vector<double> make_ns, apply_ns;
  for (int i = 0; i < 5; ++i) {
    const auto [make, apply] = diff_ns_per_kb(grain, density);
    make_ns.push_back(make);
    apply_ns.push_back(apply);
  }
  emit("mem.make_diff_ns_per_kb", "ns/KB", median_of(make_ns));
  emit("mem.apply_diff_ns_per_kb", "ns/KB", median_of(apply_ns));

  emit("sync.lock_acquires", "count", static_cast<double>(t.lock_acquires));
  emit("sync.remote_lock_ops", "count", static_cast<double>(t.remote_lock_ops));
  emit("sync.barriers", "count", static_cast<double>(t.barriers));

  emit("arena.slabs", "count", static_cast<double>(s.arena_slabs));
  emit("arena.heap_fallbacks", "count",
       static_cast<double>(s.heap_fallback_allocs));
  emit("arena.recycled_allocs", "count",
       static_cast<double>(s.arena_recycled_allocs));
  const std::size_t mean_payload =
      s.messages == 0
          ? 64
          : std::max<std::size_t>(1, s.payload_bytes / s.messages);
  emit("arena.alloc_free_ns", "ns",
       median_of_5([&] { return alloc_free_ns(mean_payload); }));

  static constexpr const char* kVt[trace::kNumCats] = {
      "vt.compute", "vt.read_wait", "vt.write_wait", "vt.lock_wait",
      "vt.barrier_wait", "vt.handler", "vt.msg_send", "vt.idle"};
  for (int c = 0; c < trace::kNumCats; ++c) {
    emit(kVt[c], "frac",
         a.vt_total == 0 ? 0.0
                         : a.vt_ns[static_cast<std::size_t>(c)] / a.vt_total);
  }
  emit("trace.overhead_frac", "frac", run_s / median_of(plain_run) - 1.0);
  emit("virtual_ms", "virtual_ms",
       static_cast<double>(s.parallel_time_ns) / 1e6);
  emit("svc.requests", "count", static_cast<double>(a.lat.requests));
  emit("svc.p50_us", "virtual_us", static_cast<double>(a.lat.p50_ns) / 1e3);
  emit("svc.p99_us", "virtual_us", static_cast<double>(a.lat.p99_ns) / 1e3);
  emit("svc.p999_us", "virtual_us", static_cast<double>(a.lat.p999_ns) / 1e3);
  emit("svc.max_us", "virtual_us", static_cast<double>(a.lat.max_ns) / 1e3);
  emit_tally(dc.attempted, dc.failed, dc.want);
}

int child_main(const Workload& w, Opts o) {
  // A hung simulation must not outlive the run's time limit.
  alarm(170);
  // The library seeds each service client with seed ^ client index, so
  // seeds that differ only in their low bits would replay the same
  // arrival streams.  Mixing first gives every --seed its own inputs.
  std::uint64_t st = o.seed;
  o.seed = splitmix64(st);
  ArenaScope arena;
  if (o.trace) {
    run_traced(w, o);
  } else {
    run_timed(w, o);
  }
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------
// Parent: one child per workload, then report.

struct Metric {
  std::string name, unit;
  Dist d;  // a single value has n = 1
};

struct Result {
  std::string workload;
  bool exited_ok = false;
  int attempted = 0, failed = 0;
  std::string digest;
  std::vector<Metric> metrics;

  bool correct() const { return exited_ok && failed == 0 && attempted > 0; }
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  DSM_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

Result run_child(const std::string& exe, const std::string& workload,
                 const Opts& o) {
  Result r;
  r.workload = workload;
  std::vector<std::string> args = {exe,         "--child",   workload,
                                   "--seed",    std::to_string(o.seed),
                                   "--seconds", num(o.seconds),
                                   "--trace",   o.trace ? "1" : "0"};
  if (o.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  DSM_CHECK_MSG(pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::fflush(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[65536];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) {
    std::fprintf(stderr, "dsmbench: cannot start child: %s\n",
                 std::strerror(rc));
    return r;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  r.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!r.exited_ok) {
    std::fprintf(stderr, "dsmbench: workload %s child failed (status %d)\n",
                 workload.c_str(), status);
  }

  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "attempted") {
      ls >> r.attempted;
    } else if (kind == "failed") {
      ls >> r.failed;
    } else if (kind == "digest") {
      ls >> r.digest;
    } else if (kind == "m" || kind == "d") {
      Metric m;
      ls >> m.name >> m.unit;
      std::vector<double> v;
      double x;
      while (ls >> x) v.push_back(x);
      m.d = dist_of(std::move(v));
      r.metrics.push_back(std::move(m));
    }
  }
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Median recorded for (workload, metric) in baseline.json, which holds
/// one entry per line (compare.py writes it); NaN when absent.
double baseline_median(const std::string& text, const std::string& workload,
                       const std::string& metric) {
  const std::string key = "\"workload\": \"" + workload + "\", \"metric\": \"" +
                          metric + "\"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nan("");
  const std::size_t med = text.find("\"median\": ", at);
  if (med == std::string::npos || med > text.find('\n', at)) {
    return std::nan("");
  }
  return std::strtod(text.c_str() + med + 10, nullptr);
}

void print_table(const std::vector<Result>& results,
                 const std::string& baseline) {
  for (const Result& r : results) {
    std::printf("\n== %s  [%s]  attempted %d  failed %d  sim_digest %s\n",
                r.workload.c_str(), r.correct() ? "ok" : "FAIL", r.attempted,
                r.failed, r.digest.c_str());
    std::printf("  %-26s %14s %-10s %4s %14s %14s %14s %8s\n", "metric",
                "value", "unit", "n", "q1", "q3", "baseline", "delta");
    for (const Metric& m : r.metrics) {
      const double b = baseline_median(baseline, r.workload, m.name);
      char delta[32] = "-";
      if (!std::isnan(b) && b != 0.0) {
        std::snprintf(delta, sizeof delta, "%+.1f%%",
                      (m.d.median / b - 1.0) * 100.0);
      }
      std::printf("  %-26s %14.6g %-10s %4zu %14.6g %14.6g %14.6g %8s\n",
                  m.name.c_str(), m.d.median, m.unit.c_str(),
                  m.d.samples.size(), m.d.q1, m.d.q3, b, delta);
    }
  }
  std::printf("\n");
}

void write_json(const std::string& path, const std::vector<Result>& results,
                const Opts& o) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dsmbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"seed\": %llu,\n  \"seconds\": %s,\n  \"trace\": %d,\n"
               "  \"nproc\": %d,\n  \"threads\": %d,\n  \"workloads\": {\n",
               static_cast<unsigned long long>(o.seed),
               num(o.seconds).c_str(), o.trace ? 1 : 0,
               ThreadPool::hardware_threads(), bench_threads());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    \"%s\": {\"correct\": %s, \"attempted\": %d, "
                 "\"failed\": %d, \"sim_digest\": \"%s\", \"metrics\": {\n",
                 r.workload.c_str(), r.correct() ? "true" : "false",
                 r.attempted, r.failed, r.digest.c_str());
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const Metric& m = r.metrics[j];
      std::string samples;
      for (double x : m.d.samples) {
        samples += (samples.empty() ? "" : ", ") + num(x);
      }
      std::fprintf(f,
                   "      \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                   "\"n\": %zu, \"q1\": %s, \"q3\": %s, \"samples\": [%s]}%s\n",
                   m.name.c_str(), num(m.d.median).c_str(), m.unit.c_str(),
                   m.d.samples.size(), num(m.d.q1).c_str(),
                   num(m.d.q3).c_str(), samples.c_str(),
                   j + 1 < r.metrics.size() ? "," : "");
    }
    std::fprintf(f, "    }}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

/// Metric names BENCHMARK.json lists under `section` ("end_to_end" or
/// "per_layer").
std::vector<std::string> benchmark_names(const std::string& text,
                                         const std::string& section) {
  std::vector<std::string> names;
  std::size_t at = text.find("\"" + section + "\"");
  if (at == std::string::npos) return names;
  const std::size_t end = text.find(']', at);
  const std::string key = "\"name\": \"";
  while ((at = text.find(key, at)) != std::string::npos && at < end) {
    at += key.size();
    names.push_back(text.substr(at, text.find('"', at) - at));
  }
  return names;
}

/// Smoke check: every metric BENCHMARK.json names is emitted, finite, on
/// every workload.
bool smoke_check(const std::vector<Result>& results, bool trace) {
  const std::string spec = read_file(DSMBENCH_REPO_ROOT "/BENCHMARK.json");
  const auto names = benchmark_names(spec, trace ? "per_layer" : "end_to_end");
  bool ok = !names.empty();
  if (names.empty()) {
    std::fprintf(stderr, "smoke: no metric names in BENCHMARK.json\n");
  }
  for (const Result& r : results) {
    ok = ok && r.correct();
    for (const std::string& n : names) {
      const auto it =
          std::find_if(r.metrics.begin(), r.metrics.end(),
                       [&](const Metric& m) { return m.name == n; });
      if (it == r.metrics.end() || !std::isfinite(it->d.median)) {
        std::fprintf(stderr, "smoke: %s: metric %s missing or not finite\n",
                     r.workload.c_str(), n.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

void print_result_line(const std::vector<Result>& results) {
  int attempted = 0, failed = 0;
  bool correct = true;
  std::string metrics;
  for (const Result& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.correct();
    for (const Metric& m : r.metrics) {
      const std::string name =
          results.size() == 1 ? m.name : r.workload + "." + m.name;
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                 "{\"value\": " + num(m.d.median) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
}

/// A whole decimal number; false on anything else.
bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '-' || end == s || *end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

/// A time budget in seconds, at most an hour; false on anything else.
bool parse_seconds(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= 0.0 && v <= 3600.0)) return false;
  *out = v;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: dsmbench [--workload NAME] [--seed N] [--seconds S] "
               "[--trace 0|1 | --traced] [--smoke] [--json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Opts o;
  std::string only, child, json = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      only = argv[++i];
    } else if (a == "--child" && has_val) {
      child = argv[++i];
    } else if (a == "--seed" && has_val) {
      if (!parse_u64(argv[++i], &o.seed)) return usage();
    } else if (a == "--seconds" && has_val) {
      if (!parse_seconds(argv[++i], &o.seconds)) return usage();
    } else if (a == "--trace" && has_val) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage();
      o.trace = t == "1";
    } else if (a == "--traced") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--json" && has_val) {
      json = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.smoke) o.seconds = 0;

  const std::vector<Workload> ws = all_workloads(o.smoke);
  const auto find = [&](const std::string& n) {
    return std::find_if(ws.begin(), ws.end(),
                        [&](const Workload& w) { return w.name == n; });
  };
  if (!child.empty()) {
    const auto it = find(child);
    if (it == ws.end()) return usage();
    return child_main(*it, o);
  }
  if (!only.empty() && find(only) == ws.end()) {
    std::fprintf(stderr, "dsmbench: unknown workload '%s'\n", only.c_str());
    return usage();
  }

  const std::string exe = self_exe();
  const std::string baseline = read_file(DSMBENCH_DIR "/baseline.json");
  const auto run_all = [&](const Opts& opts) {
    std::vector<Result> results;
    for (const Workload& w : ws) {
      if (!only.empty() && w.name != only) continue;
      std::fprintf(stderr, "dsmbench: %s (seed %llu, %s s, trace %d)\n",
                   w.name.c_str(), static_cast<unsigned long long>(opts.seed),
                   num(opts.seconds).c_str(), opts.trace ? 1 : 0);
      results.push_back(run_child(exe, w.name, opts));
    }
    // The windowed engine must reproduce the serial one bitwise.
    const auto serial =
        std::find_if(results.begin(), results.end(),
                     [](const Result& r) { return r.workload == "scale256"; });
    for (Result& r : results) {
      if (r.workload == "scale256_window" && serial != results.end() &&
          r.digest != serial->digest) {
        std::fprintf(stderr,
                     "dsmbench: scale256_window digest %s != scale256 %s\n",
                     r.digest.c_str(), serial->digest.c_str());
        ++r.failed;
      }
    }
    return results;
  };

  if (o.smoke) {
    bool ok = true;
    for (bool trace : {false, true}) {
      Opts so = o;
      so.trace = trace;
      const std::vector<Result> results = run_all(so);
      print_table(results, baseline);
      ok = smoke_check(results, trace) && ok;
    }
    std::printf("smoke: %s\n", ok ? "ok" : "FAIL");
    return ok ? 0 : 1;
  }

  const std::vector<Result> results = run_all(o);
  print_table(results, baseline);
  write_json(json, results, o);
  const bool ok = std::all_of(results.begin(), results.end(),
                              [](const Result& r) { return r.correct(); });
  if (!std::all_of(results.begin(), results.end(),
                   [](const Result& r) { return r.exited_ok; })) {
    return 1;  // no result line without every workload's metrics
  }
  print_result_line(results);
  return ok ? 0 : 1;
}
