// Micro-benchmark: pooled scheduling vs thread-per-component.
//
// RunMode::kPooled multiplexes M components over N pool workers with a
// horizon-based ready queue, so a simulation with many more components than
// cores no longer pays for M oversubscribed OS threads spinning on each
// other. This bench runs the same producer/echo mesh at two scales —
// components <= hardware_concurrency and ~4x oversubscription — under
// threaded, pooled, and coscheduled execution, and verifies the paper's
// determinism claim along the way: every mode yields the identical
// EventDigest. Wall-clock numbers are reported, not asserted; relative
// speed depends on the host's core count.
//
// cosched_select/N times the coscheduled runner's selection alone: a ring
// of N sync-only components whose every batch is one SYNC emission, so the
// wall time per batch is almost all scheduling. Emits BENCH_pooled.json.
//
// Flags: --msgs=N (messages per producer), --out=PATH, --full.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/runner.hpp"
#include "util/table.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kMsgType = sync::kUserTypeBase + 3;

/// Sends `n` numbered messages at a fixed cadence.
class Producer : public Component {
 public:
  Producer(std::string name, sync::ChannelEnd& end, int n, SimTime cadence)
      : Component(std::move(name)), n_(n), cadence_(cadence) {
    out_ = &add_adapter("out", end);
  }
  void init() override {
    for (int i = 0; i < n_; ++i) {
      kernel().schedule_at(static_cast<SimTime>(i) * cadence_, [this, i] {
        out_->send(kMsgType, i, kernel().now());
      });
    }
  }

 private:
  sync::Adapter* out_;
  int n_;
  SimTime cadence_;
};

/// Replies to each message with a transformed payload.
class Echo : public Component {
 public:
  Echo(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    a_ = &add_adapter("in", end);
    a_->set_handler([this](const sync::Message& m, SimTime rx) {
      a_->send(m.type, m.as<int>() * 7 + 1, rx);
    });
  }

 private:
  sync::Adapter* a_;
};

/// Ring member with no model: two adapters that only ever emit SYNCs.
class RingNode : public Component {
 public:
  RingNode(std::string name, sync::ChannelEnd& left, sync::ChannelEnd& right)
      : Component(std::move(name)) {
    add_adapter("l", left);
    add_adapter("r", right);
  }
};

/// Coscheduled ring of `n` sync-only components with equal latencies, so
/// every component ties and each selection runs a single batch. Returns
/// one result over `reps` runs: ns per batch, the median run as p50 and
/// the slowest as p99.
benchutil::BenchResult bench_cosched_select(int n, int reps) {
  constexpr SimTime kLatency = 1000;
  constexpr std::uint64_t kBatches = 200'000;  // per run, over all components
  const SimTime end = static_cast<SimTime>(kBatches / static_cast<std::uint64_t>(n)) * kLatency;
  std::vector<double> ns_per_batch;
  std::uint64_t batches = 0;
  double seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    Simulation sim;
    std::vector<sync::Channel*> ring;
    for (int i = 0; i < n; ++i) {
      ring.push_back(&sim.add_channel("ring" + std::to_string(i), {.latency = kLatency}));
    }
    for (int i = 0; i < n; ++i) {
      sim.add_component<RingNode>("node" + std::to_string(i), ring[i]->end_b(),
                                  ring[(i + 1) % n]->end_a());
    }
    RunStats st = sim.run(end, RunMode::kCoscheduled);
    std::uint64_t b = 0;
    for (const auto& c : st.components) b += c.batches;
    batches += b;
    seconds += st.wall_seconds;
    ns_per_batch.push_back(st.wall_seconds * 1e9 / static_cast<double>(b));
  }
  std::sort(ns_per_batch.begin(), ns_per_batch.end());
  benchutil::BenchResult res;
  res.name = "cosched_select/" + std::to_string(n);
  res.ops = batches;
  res.ops_per_sec = seconds > 0 ? static_cast<double>(batches) / seconds : 0;
  res.p50_ns = ns_per_batch[ns_per_batch.size() / 2];
  res.p99_ns = ns_per_batch.back();
  res.extra.emplace_back("components", n);
  std::printf("  %-22s %10llu batches   %9.1f ns/batch (p50 over %d runs)\n", res.name.c_str(),
              static_cast<unsigned long long>(batches), res.p50_ns, reps);
  return res;
}

struct Outcome {
  double wall_seconds = 0.0;
  double sim_speed = 0.0;
  std::uint64_t events = 0;
  EventDigest digest;
};

Outcome run_mesh(int pairs, int msgs, RunMode mode, unsigned workers) {
  Simulation sim;
  constexpr SimTime kCadence = 1000;
  for (int p = 0; p < pairs; ++p) {
    auto& ch = sim.add_channel("c" + std::to_string(p),
                               {.latency = 500 + 100 * (p % 4)});
    sim.add_component<Producer>("prod" + std::to_string(p), ch.end_a(), msgs, kCadence);
    sim.add_component<Echo>("echo" + std::to_string(p), ch.end_b());
  }
  SimTime end = static_cast<SimTime>(msgs) * kCadence + from_us(10.0);
  auto stats = sim.run(end, mode, workers);
  Outcome o;
  o.wall_seconds = stats.wall_seconds;
  o.sim_speed = stats.sim_speed();
  o.digest = stats.digest;
  for (const auto& c : stats.components) o.events += c.events;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Args args(argc, argv);
  benchutil::header("Micro: pooled worker-pool scheduling vs thread-per-component",
                    "SplitSim runtime scaling (many components, few cores)", args.full());

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  int msgs = args.get_int("--msgs", args.full() ? 20000 : 2000);
  const std::string out = args.get("--out", "BENCH_pooled.json");
  std::printf("hardware_concurrency: %u, messages/producer: %d\n\n", hw, msgs);

  struct Scale {
    const char* label;
    int pairs;
  };
  Scale scales[] = {
      // Each pair is two components; "fits" keeps components <= cores.
      {"fits in cores", static_cast<int>(hw) / 2 > 0 ? static_cast<int>(hw) / 2 : 1},
      {"4x oversubscribed", static_cast<int>(hw) * 2},
  };

  bool digests_match = true;
  bool pooled_complete = true;
  double pooled_wall[2] = {0, 0};
  double threaded_wall[2] = {0, 0};
  int si = 0;
  for (const auto& s : scales) {
    std::printf("--- %s: %d pairs (%d components) ---\n", s.label, s.pairs, 2 * s.pairs);
    Table t({"mode", "workers", "wall (s)", "sim speed", "events"});
    Outcome base;
    struct Cfg {
      RunMode mode;
      unsigned workers;
    };
    Cfg cfgs[] = {
        {RunMode::kCoscheduled, 0},
        {RunMode::kThreaded, 0},
        {RunMode::kPooled, hw},
    };
    for (const auto& c : cfgs) {
      Outcome o = run_mesh(s.pairs, msgs, c.mode, c.workers);
      if (c.mode == RunMode::kCoscheduled) {
        base = o;
      } else {
        digests_match &= o.digest == base.digest && o.events == base.events;
      }
      if (c.mode == RunMode::kPooled) {
        pooled_complete &= o.events == base.events;
        pooled_wall[si] = o.wall_seconds;
      }
      if (c.mode == RunMode::kThreaded) threaded_wall[si] = o.wall_seconds;
      t.add_row({to_string(c.mode), c.mode == RunMode::kPooled ? std::to_string(c.workers) : "-",
                 Table::num(o.wall_seconds, 3), Table::num(o.sim_speed, 6),
                 std::to_string(o.events)});
    }
    std::printf("%s\n", t.to_string().c_str());
    ++si;
  }

  benchutil::check(digests_match,
                   "threaded and pooled digests identical to coscheduled at both scales");
  benchutil::check(pooled_complete,
                   "pooled run delivers every event with components > workers");
  benchutil::check(pooled_wall[0] <= 2.0 * threaded_wall[0],
                   "pooled within 2x of threaded when components fit in cores");
  benchutil::check(pooled_wall[1] < threaded_wall[1],
                   "pooled strictly faster than threaded at 4x oversubscription");

  std::printf("\n--- coscheduled selection cost: ring of N sync-only components ---\n");
  std::vector<benchutil::BenchResult> results;
  for (int n : {8, 64, 512}) results.push_back(bench_cosched_select(n, 5));
  benchutil::write_json(out, "batches_per_sec", results);
  return 0;
}
