// The benchmark's workloads, assembled from the program's public entry
// points (orch::System + orch::instantiate_system / orch::run_instantiated,
// mcheck::Explorer::explore). Each function runs one repetition of its
// workload and returns what main.cpp times and gates; none of them
// prints anything.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mcheck/explorer.hpp"
#include "orch/instantiation.hpp"
#include "runtime/runner.hpp"

namespace perfbench {

using namespace splitsim;

using Clock = std::chrono::steady_clock;

/// Wall seconds since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One pinned simulated output of a repetition (exact value).
struct Output {
  std::string name;
  double value = 0.0;
};

/// One repetition of a simulation workload (kv-e2e, dc-fabric).
struct SimRep {
  runtime::RunStats stats;
  /// Wall seconds from the first call into the program until
  /// run_instantiated returned, minus the run's own RunStats::wall_seconds.
  double setup_s = 0.0;
  /// Span around orch::instantiate_system.
  double instantiate_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<Output> outputs;
};

/// The per-seed input variant of a workload. Inputs derive only from it.
struct Inputs {
  std::uint64_t variant = 0;
  /// Observability for this repetition (default: everything off).
  orch::ProfileSpec profile;
};

/// Pegasus KV at end-to-end fidelity, 40 ms simulated: 2 servers and 3
/// closed-loop clients (16 outstanding requests each), every host a
/// qemu-class hostsim host with a nicsim NIC, one switch, coscheduled. The
/// variant seeds the clients' key and read/write draws.
SimRep run_kv_e2e(const Inputs& in);

/// The Fig. 9 datacenter, 60 ms simulated: 2 aggs x 3 racks x 8 hosts, 24
/// always-on UDP flows at 400 Mb/s (half of them rack-local), plus a qemu
/// request/response pair with NICs; the "ac" strategy splits the network
/// into 3 partitions. The variant seeds flow placement and flow start
/// times. `exec` selects the run mode.
SimRep run_dc_fabric(const Inputs& in, const orch::ExecSpec& exec);

/// One explore() of the model checker on the kv-small verify scenario.
struct McheckRep {
  mcheck::ExploreResult result;
  double explore_s = 0.0;  ///< span around Explorer::explore
  double run_fn_s = 0.0;   ///< sum of the benchmark's RunFn wrapper spans
  double sim_wall_s = 0.0; ///< sum of Observation::wall_seconds
  double sim_s = 0.0;      ///< simulated seconds over all explored runs
  /// Order-sensitive fold of every explored run's digest.
  std::uint64_t digest_fold = 0;
  std::vector<Output> outputs;
};

/// A 50-run budget, coscheduled runs. The variant becomes
/// LatticeOptions::fault_seed.
McheckRep run_mcheck_kv(const Inputs& in);

/// One kv-small run with the empty fault spec, for the trace-overhead
/// measurement of mcheck-kv. Returns Observation::wall_seconds, or a
/// negative value if the run did not complete.
double run_kv_small_once(const orch::ProfileSpec& profile);

}  // namespace perfbench
