// Simulated-result digest for dsmbench: one 64-bit FNV-1a fingerprint of
// everything a run computes in virtual time.  Host-side telemetry (arena,
// event-queue, block-table and parallel-DES counters, host seconds) is
// excluded, so the digest must be identical across iterations, passes and
// engine modes; dsmbench counts any mismatch as a failed simulation.
#pragma once

#include <cstdint>

#include "runtime/runtime.hpp"

namespace dsmbench {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Folds one simulation into `f`.  A multi-run workload folds its runs in
/// a fixed order, so the digest also pins that order.
inline void digest_into(Fnv1a& f, const dsm::RunStats& s,
                        const dsm::LatencySummary* lat) {
  f.add(static_cast<std::uint64_t>(s.parallel_time_ns));
  f.add(s.sim_events);
  f.add(s.sim_yields);
  f.add(s.messages);
  f.add(s.traffic_bytes);
  f.add(s.payload_bytes);
  const dsm::NodeStats t = s.total();
  for (std::uint64_t v :
       {t.read_faults, t.write_faults, t.remote_read_faults,
        t.remote_write_faults, t.invalidations, t.block_fetches, t.writebacks,
        t.twins, t.diffs, t.diff_bytes, t.notices_processed,
        t.bitmap_words_compared, t.bitmap_scan_bytes_avoided, t.lock_acquires,
        t.remote_lock_ops, t.barriers}) {
    f.add(v);
  }
  for (dsm::SimTime v : {t.compute_ns, t.read_stall_ns, t.write_stall_ns,
                         t.lock_stall_ns, t.barrier_stall_ns}) {
    f.add(static_cast<std::uint64_t>(v));
  }
  f.add(lat != nullptr ? lat->checksum : 0);
}

}  // namespace dsmbench
