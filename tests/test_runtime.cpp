#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kPingType = sync::kUserTypeBase + 1;

/// Sends a ping, waits for the reflected pong, sends the next ping.
class Pinger : public Component {
 public:
  Pinger(std::string name, sync::ChannelEnd& end, int pings)
      : Component(std::move(name)), total_(pings) {
    adapter_ = &add_adapter("link", end);
    adapter_->set_handler([this](const sync::Message& m, SimTime rx) {
      pong_times.push_back(rx);
      EXPECT_EQ(m.as<int>(), sent_ - 1);
      if (sent_ < total_) send_ping(rx);
    });
  }

  void init() override {
    kernel().schedule_at(0, [this] { send_ping(0); });
  }

  std::vector<SimTime> pong_times;

 private:
  void send_ping(SimTime now) { adapter_->send(kPingType, sent_++, now); }

  sync::Adapter* adapter_;
  int total_;
  int sent_ = 0;
};

/// Reflects every received message back.
class Reflector : public Component {
 public:
  Reflector(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    adapter_ = &add_adapter("link", end);
    adapter_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++reflected;
      adapter_->send(m.type, m.as<int>(), rx);
    });
  }

  int reflected = 0;

 private:
  sync::Adapter* adapter_;
};

/// Passes messages along a chain: in one side, out the other.
class Forwarder : public Component {
 public:
  Forwarder(std::string name, sync::ChannelEnd& in, sync::ChannelEnd& out)
      : Component(std::move(name)) {
    in_ = &add_adapter("in", in);
    out_ = &add_adapter("out", out);
    in_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++forwarded;
      out_->send(m.type, m.as<int>(), rx);
    });
  }

  int forwarded = 0;

 private:
  sync::Adapter* in_;
  sync::Adapter* out_;
};

/// Sends `burst` data messages at once every `period`, so a ring smaller
/// than the burst overflows on every burst.
class Burster : public Component {
 public:
  Burster(std::string name, sync::ChannelEnd& end, int burst, SimTime period)
      : Component(std::move(name)), burst_(burst), period_(period) {
    out_ = &add_adapter("out", end);
  }

  void init() override {
    kernel().schedule_at(0, [this] { fire(); });
  }

 private:
  void fire() {
    for (int i = 0; i < burst_; ++i) out_->send(kPingType, seq_++, kernel().now());
    kernel().schedule_in(period_, [this] { fire(); });
  }

  sync::Adapter* out_;
  int burst_;
  SimTime period_;
  int seq_ = 0;
};

/// Counts what arrives and sends nothing back but SYNCs.
class Sink : public Component {
 public:
  Sink(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    add_adapter("in", end).set_handler([this](const sync::Message&, SimTime) { ++received; });
  }

  int received = 0;
};

/// Relays in both directions: left to right and right to left.
class Bidi : public Component {
 public:
  Bidi(std::string name, sync::ChannelEnd& left, sync::ChannelEnd& right)
      : Component(std::move(name)) {
    l_ = &add_adapter("l", left);
    r_ = &add_adapter("r", right);
    l_->set_handler(
        [this](const sync::Message& m, SimTime rx) { r_->send(m.type, m.as<int>(), rx); });
    r_->set_handler(
        [this](const sync::Message& m, SimTime rx) { l_->send(m.type, m.as<int>(), rx); });
  }

 private:
  sync::Adapter* l_;
  sync::Adapter* r_;
};

/// Star hub: relays a message with hop budget v > 0 arriving from leaf i to
/// leaf (i + v) % n with budget v - 1.
class StarHub : public Component {
 public:
  StarHub(std::string name, const std::vector<sync::Channel*>& chans)
      : Component(std::move(name)) {
    for (std::size_t i = 0; i < chans.size(); ++i) {
      sync::Adapter& a = add_adapter("leaf" + std::to_string(i), chans[i]->end_a());
      a.set_handler([this, i](const sync::Message& m, SimTime rx) {
        int v = m.as<int>();
        if (v > 0) leaves_[(i + v) % leaves_.size()]->send(kPingType, v - 1, rx);
      });
      leaves_.push_back(&a);
    }
  }

 private:
  std::vector<sync::Adapter*> leaves_;
};

/// Star leaf: injects a message with hop budget `hops` every `period` and
/// bounces received messages back to the hub after a local `delay`.
class StarLeaf : public Component {
 public:
  StarLeaf(std::string name, sync::Channel& ch, SimTime period, SimTime delay, int hops)
      : Component(std::move(name)), ch_(&ch), period_(period), delay_(delay), hops_(hops) {
    out_ = &add_adapter("hub", ch.end_b());
    out_->set_handler([this](const sync::Message& m, SimTime) {
      int v = m.as<int>();
      if (v > 0) {
        kernel().schedule_in(delay_, [this, v] { out_->send(kPingType, v - 1, kernel().now()); });
      }
    });
  }

  /// Retune this leaf's channel to `interval` from a model event at `at`,
  /// and clear the override again at `clear_at` — a mid-run change the
  /// coscheduled runner learns of only when it next looks at the hub.
  void retune(SimTime at, SimTime interval, SimTime clear_at) {
    tune_at_ = at;
    tune_interval_ = interval;
    clear_at_ = clear_at;
  }

  void init() override {
    kernel().schedule_at(0, [this] { inject(); });
    if (tune_interval_ != 0) {
      kernel().schedule_at(tune_at_, [this] { ch_->set_tuned_sync_interval(tune_interval_); });
      kernel().schedule_at(clear_at_, [this] { ch_->set_tuned_sync_interval(0); });
    }
  }

 private:
  void inject() {
    out_->send(kPingType, hops_, kernel().now());
    kernel().schedule_in(period_, [this] { inject(); });
  }

  sync::Channel* ch_;
  sync::Adapter* out_;
  SimTime period_;
  SimTime delay_;
  int hops_;
  SimTime tune_at_ = 0;
  SimTime tune_interval_ = 0;
  SimTime clear_at_ = 0;
};

/// Per-component schedule fingerprint of a coscheduled run.
struct ScheduleGolden {
  const char* name;
  std::uint64_t batches;
  std::uint64_t events;
  std::uint64_t tx_syncs;
  std::uint64_t digest;
};

void expect_schedule(const RunStats& st, const std::vector<ScheduleGolden>& golden) {
  ASSERT_EQ(st.components.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const ComponentStats& c = st.components[i];
    std::uint64_t syncs = 0;
    for (const AdapterStats& a : c.adapters) syncs += a.totals.tx_syncs;
    EXPECT_EQ(c.name, golden[i].name);
    EXPECT_EQ(c.batches, golden[i].batches) << c.name;
    EXPECT_EQ(c.events, golden[i].events) << c.name;
    EXPECT_EQ(syncs, golden[i].tx_syncs) << c.name;
    EXPECT_EQ(c.digest.value(), golden[i].digest) << c.name;
  }
}

/// Fingerprint of how a runner interleaves components: folds the sequence
/// in which they cross 1 ns checkpoint boundaries, across all components.
/// Crossings that finish() flushes are skipped: when a component finishes
/// once its next action has passed the end time is not part of the
/// schedule (a full rescan finishes it as soon as it sees that action, a
/// heap when the action reaches the top).
class InterleavingHash : public CkptHook {
 public:
  void on_boundary(Component& c, SimTime boundary) override {
    if (c.finished()) return;
    for (char ch : c.name()) mix(static_cast<unsigned char>(ch));
    mix(boundary);
    ++crossings;
  }

  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t crossings = 0;

 private:
  void mix(std::uint64_t v) { hash = (hash ^ v) * 1099511628211ULL; }
};

/// Pure local event loop, no adapters.
class Ticker : public Component {
 public:
  using Component::Component;
  void init() override {
    kernel().schedule_at(0, [this] { tick(); });
  }
  int ticks = 0;

 private:
  void tick() {
    ++ticks;
    kernel().schedule_in(1000, [this] { tick(); });
  }
};

}  // namespace

class RuntimeModes : public ::testing::TestWithParam<RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, RuntimeModes,
                         ::testing::Values(RunMode::kCoscheduled, RunMode::kThreaded,
                                           RunMode::kPooled),
                         [](const auto& info) {
                           switch (info.param) {
                             case RunMode::kThreaded:
                               return "Threaded";
                             case RunMode::kPooled:
                               return "Pooled";
                             default:
                               return "Coscheduled";
                           }
                         });

TEST_P(RuntimeModes, PingPongLatency) {
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 500});
  auto& pinger = sim.add_component<Pinger>("pinger", ch.end_a(), 10);
  auto& refl = sim.add_component<Reflector>("reflector", ch.end_b());
  sim.run(from_us(1.0), GetParam());

  EXPECT_EQ(refl.reflected, 10);
  ASSERT_EQ(pinger.pong_times.size(), 10u);
  // Ping k sent at ~k*2*latency; pong received one round trip later. The
  // strict-monotonicity bump adds at most a few ps per hop.
  for (std::size_t k = 0; k < pinger.pong_times.size(); ++k) {
    SimTime expected = (2 * 500) * (k + 1);
    EXPECT_NEAR(static_cast<double>(pinger.pong_times[k]), static_cast<double>(expected), 8.0);
  }
}

TEST_P(RuntimeModes, ChainForwarding) {
  Simulation sim;
  auto& c1 = sim.add_channel("c1", {.latency = 100});
  auto& c2 = sim.add_channel("c2", {.latency = 100});
  auto& c3 = sim.add_channel("c3", {.latency = 100});

  // pinger -> f1 -> f2 -> reflector, pongs come back the same path reversed?
  // Simpler: one-way chain, count deliveries at the end.
  class Source : public Component {
   public:
    Source(std::string name, sync::ChannelEnd& end, int n) : Component(std::move(name)), n_(n) {
      out_ = &add_adapter("out", end);
    }
    void init() override {
      for (int i = 0; i < n_; ++i) {
        kernel().schedule_at(static_cast<SimTime>(i) * 1000, [this, i] {
          out_->send(kPingType, i, kernel().now());
        });
      }
    }

   private:
    sync::Adapter* out_;
    int n_;
  };
  class Sink : public Component {
   public:
    Sink(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      auto& a = add_adapter("in", end);
      a.set_handler([this](const sync::Message& m, SimTime rx) {
        values.push_back(m.as<int>());
        times.push_back(rx);
      });
    }
    std::vector<int> values;
    std::vector<SimTime> times;
  };

  auto& src = sim.add_component<Source>("src", c1.end_a(), 20);
  auto& f1 = sim.add_component<Forwarder>("f1", c1.end_b(), c2.end_a());
  auto& f2 = sim.add_component<Forwarder>("f2", c2.end_b(), c3.end_a());
  auto& sink = sim.add_component<Sink>("sink", c3.end_b());
  (void)src;
  sim.run(from_us(1.0), GetParam());

  EXPECT_EQ(f1.forwarded, 20);
  EXPECT_EQ(f2.forwarded, 20);
  ASSERT_EQ(sink.values.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sink.values[i], i);
    // Sent at i*1000, three hops of 100 each.
    EXPECT_NEAR(static_cast<double>(sink.times[i]), static_cast<double>(i * 1000 + 300), 8.0);
  }
}

TEST_P(RuntimeModes, ComponentWithoutAdaptersRunsToEnd) {
  Simulation sim;
  auto& t = sim.add_component<Ticker>("ticker");
  sim.run(SimTime{10'000}, GetParam());
  EXPECT_EQ(t.ticks, 11);  // t = 0, 1000, ..., 10000
}

TEST_P(RuntimeModes, IdleComponentsTerminate) {
  // Two components connected by a channel but exchanging no data: periodic
  // syncs alone must carry the simulation to the end time.
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 1000});
  class Idle : public Component {
   public:
    Idle(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      add_adapter("link", end);
    }
  };
  sim.add_component<Idle>("a", ch.end_a());
  sim.add_component<Idle>("b", ch.end_b());
  auto stats = sim.run(from_us(1.0), GetParam());
  EXPECT_EQ(stats.sim_time, from_us(1.0));
}

TEST_P(RuntimeModes, TrunkedComponents) {
  Simulation sim;
  auto& ch = sim.add_channel("trunk", {.latency = 200});

  class TrunkSource : public Component {
   public:
    TrunkSource(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      auto& t = add_trunk("trunk", end);
      for (std::uint16_t s = 1; s <= 3; ++s) ports_.push_back(t.subport(s, nullptr));
    }
    void init() override {
      kernel().schedule_at(1000, [this] {
        for (auto& p : ports_) p.send(kPingType, static_cast<int>(p.id() * 10), kernel().now());
      });
    }

   private:
    std::vector<sync::TrunkSubPort> ports_;
  };
  class TrunkSink : public Component {
   public:
    TrunkSink(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      auto& t = add_trunk("trunk", end);
      for (std::uint16_t s = 1; s <= 3; ++s) {
        t.subport(s, [this, s](const sync::Message& m, SimTime) {
          received[s] = m.as<int>();
        });
      }
    }
    std::map<int, int> received;
  };

  sim.add_component<TrunkSource>("src", ch.end_a());
  auto& sink = sim.add_component<TrunkSink>("sink", ch.end_b());
  sim.run(from_us(1.0), GetParam());

  ASSERT_EQ(sink.received.size(), 3u);
  EXPECT_EQ(sink.received[1], 10);
  EXPECT_EQ(sink.received[2], 20);
  EXPECT_EQ(sink.received[3], 30);
}

TEST(RuntimeEquivalence, ThreadedMatchesCoscheduled) {
  // Conservative synchronization must make parallel execution equivalent to
  // the coscheduled (sequential) one: identical message delivery times.
  auto run_once = [](RunMode mode) {
    Simulation sim;
    auto& ch = sim.add_channel("c", {.latency = 700});
    auto& pinger = sim.add_component<Pinger>("pinger", ch.end_a(), 50);
    sim.add_component<Reflector>("reflector", ch.end_b());
    sim.run(from_us(10.0), mode);
    return pinger.pong_times;
  };
  auto seq = run_once(RunMode::kCoscheduled);
  auto par = run_once(RunMode::kThreaded);
  EXPECT_EQ(seq, par);
}

TEST(RuntimePooled, ExplicitWorkerCountsMatchCoscheduled) {
  // The pooled scheduler must produce identical results for any worker
  // count, including a single worker (fully serialized) and more workers
  // than components (clamped).
  auto run_once = [](RunMode mode, unsigned workers) {
    Simulation sim;
    auto& ch = sim.add_channel("c", {.latency = 700});
    auto& pinger = sim.add_component<Pinger>("pinger", ch.end_a(), 50);
    sim.add_component<Reflector>("reflector", ch.end_b());
    auto stats = sim.run(from_us(10.0), mode, workers);
    return std::make_pair(pinger.pong_times, stats.digest);
  };
  auto [seq_times, seq_digest] = run_once(RunMode::kCoscheduled, 0);
  for (unsigned workers : {1u, 2u, 3u, 8u}) {
    auto [times, digest] = run_once(RunMode::kPooled, workers);
    EXPECT_EQ(times, seq_times) << "workers=" << workers;
    EXPECT_EQ(digest, seq_digest) << "workers=" << workers;
  }
}

TEST(RuntimePooled, ChainWithFewerWorkersThanComponents) {
  // A four-component chain on two workers: components must park and resume
  // as horizons advance, and every message still arrives exactly on time.
  Simulation sim;
  auto& c1 = sim.add_channel("c1", {.latency = 100});
  auto& c2 = sim.add_channel("c2", {.latency = 100});
  auto& c3 = sim.add_channel("c3", {.latency = 100});
  auto& pinger = sim.add_component<Pinger>("pinger", c1.end_a(), 25);
  sim.add_component<Bidi>("f1", c1.end_b(), c2.end_a());
  sim.add_component<Bidi>("f2", c2.end_b(), c3.end_a());
  auto& refl = sim.add_component<Reflector>("reflector", c3.end_b());
  sim.run(from_us(20.0), RunMode::kPooled, 2);
  EXPECT_EQ(refl.reflected, 25);
  EXPECT_EQ(pinger.pong_times.size(), 25u);
}

TEST(RuntimeSpill, OverflowingRingsMatchAcrossModes) {
  // Rings of 4 slots against bursts of 64: sends in every run mode overflow
  // into the spill queue. Every mode must still deliver the same messages
  // at the same times.
  static constexpr int kBurst = 64;
  struct Outcome {
    EventDigest digest;
    std::uint64_t stalls = 0;
    int received = 0;
  };
  auto run_once = [](RunMode mode, unsigned workers) {
    Simulation sim;
    auto& c1 = sim.add_channel("c1", {.latency = from_ns(100), .ring_capacity = 4});
    auto& c2 = sim.add_channel("c2", {.latency = from_ns(100), .ring_capacity = 4});
    sim.add_component<Burster>("burster", c1.end_a(), kBurst, from_ns(50));
    sim.add_component<Forwarder>("fwd", c1.end_b(), c2.end_a());
    auto& sink = sim.add_component<Sink>("sink", c2.end_b());
    RunStats st = sim.run(from_ns(5025), mode, workers);
    Outcome o;
    o.digest = st.digest;
    o.received = sink.received;
    for (const ComponentStats& c : st.components) {
      for (const AdapterStats& a : c.adapters) o.stalls += a.totals.backpressure_stalls;
    }
    return o;
  };
  Outcome cosched = run_once(RunMode::kCoscheduled, 0);
  Outcome pooled = run_once(RunMode::kPooled, 2);
  Outcome threaded = run_once(RunMode::kThreaded, 0);

  // Bursts leave at 0, 50, 100, ... ns and span 63 ps. The forwarder gets
  // those sent up to 4900 ns (99 bursts), the sink those up to 4800 ns (97).
  EXPECT_EQ(cosched.received, 97 * kBurst);
  EXPECT_EQ(cosched.digest.count, 196u * kBurst);
  EXPECT_EQ(pooled.digest, cosched.digest);
  EXPECT_EQ(threaded.digest, cosched.digest);
  EXPECT_EQ(pooled.received, cosched.received);
  EXPECT_EQ(threaded.received, cosched.received);
  // The spill path actually ran.
  EXPECT_GT(cosched.stalls, 0u);
  EXPECT_GT(pooled.stalls, 0u);
  EXPECT_GT(threaded.stalls, 0u);
}

TEST(RuntimeSpill, BidirectionalBurstsMatchAcrossModes) {
  // Two components burst 64 messages at each other every 50 ns through
  // 4-slot rings. A producer that waited for ring space would block while
  // its peer blocks the same way; spilling keeps every mode running, and
  // all of them deliver the same messages at the same times.
  static constexpr int kBurst = 64;
  auto run_once = [](RunMode mode, unsigned workers) {
    Simulation sim;
    auto& c = sim.add_channel("c", {.latency = from_ns(100), .ring_capacity = 4});
    sim.add_component<Burster>("left", c.end_a(), kBurst, from_ns(50));
    sim.add_component<Burster>("right", c.end_b(), kBurst, from_ns(50));
    return sim.run(from_ns(5025), mode, workers).digest;
  };
  EventDigest cosched = run_once(RunMode::kCoscheduled, 0);
  // Each side receives the bursts sent up to 4900 ns (99 bursts).
  EXPECT_EQ(cosched.count, 2u * 99 * kBurst);
  EXPECT_EQ(run_once(RunMode::kPooled, 2), cosched);
  EXPECT_EQ(run_once(RunMode::kThreaded, 0), cosched);
}

// The coscheduled runner's choice of which component to advance next must
// not depend on how it finds the minimum. The goldens below were recorded
// from a runner that rescanned every component per selection: per-component
// batch, event and SYNC counts and digests, and an interleaving hash.
// Mixed latencies and sync intervals make many components tie and
// interleave; the retuning leaf changes the hub's SYNC grid behind the
// runner's back.

/// Hub plus six leaves with mixed latencies, sync intervals and loads.
/// With `retune`, leaf 2 retunes its channel mid-run.
RunStats run_star(bool retune, CkptHook* hook) {
  Simulation sim;
  const SimTime lat[] = {from_ns(3), from_ns(5), from_ns(7), from_ns(4), from_ns(10), from_ns(2)};
  const SimTime si[] = {0, from_ns(2.5), from_ns(7) / 3, 0, from_ns(2.5), from_ns(1)};
  std::vector<sync::Channel*> chans;
  for (int i = 0; i < 6; ++i) {
    chans.push_back(&sim.add_channel("star" + std::to_string(i),
                                     {.latency = lat[i], .sync_interval = si[i]}));
  }
  sim.add_component<StarHub>("hub", chans);
  for (int i = 0; i < 6; ++i) {
    auto& leaf = sim.add_component<StarLeaf>("leaf" + std::to_string(i), *chans[i],
                                             from_ns(3 + 2 * i), from_ns(0.3 * (i + 1)), 2 + i % 3);
    if (retune && i == 2) leaf.retune(from_us(0.8), from_ns(1.1), from_us(1.6));
  }
  if (hook != nullptr) {
    for (const auto& c : sim.components()) c->set_ckpt_hook(hook, 0, from_ns(1));
  }
  return sim.run(from_us(2.5), RunMode::kCoscheduled);
}

TEST(RuntimeCoscheduled, StarScheduleMatchesGolden) {
  expect_schedule(run_star(true, nullptr), {
    {"hub", 7260, 0, 6396, 0x133196f90dac429eULL},
    {"leaf0", 1428, 1190, 0, 0x5c6101c37bfb21f8ULL},
    {"leaf1", 1407, 727, 500, 0xe26b73f8b0f20009ULL},
    {"leaf2", 4251, 1545, 1444, 0x72ec1297fe829a6dULL},
    {"leaf3", 1154, 470, 556, 0x2a29790cef8a6e05ULL},
    {"leaf4", 1680, 725, 955, 0x14973b209dc78a13ULL},
    {"leaf5", 3657, 662, 2308, 0xdd2169311fc7691eULL},
  });
}

// Without a retune every key the runner holds is exact, so the order in
// which components run must match the rescan's too, not only the counts.
TEST(RuntimeCoscheduled, StarInterleavingMatchesGolden) {
  InterleavingHash h;
  run_star(false, &h);
  EXPECT_EQ(h.crossings, 17499u);
  EXPECT_EQ(h.hash, 0x13f103d2ed0ca72bULL);
}

TEST(RuntimeCoscheduled, ChainScheduleMatchesGolden) {
  Simulation sim;
  auto& c1 = sim.add_channel("c1", {.latency = from_ns(1)});
  auto& c2 = sim.add_channel("c2", {.latency = from_ns(3), .sync_interval = from_ns(1)});
  auto& c3 = sim.add_channel("c3", {.latency = from_ns(2)});
  auto& c4 = sim.add_channel("c4", {.latency = from_ns(4), .sync_interval = from_ns(3)});
  sim.add_component<Pinger>("pinger", c1.end_a(), 1000);
  sim.add_component<Bidi>("f1", c1.end_b(), c2.end_a());
  sim.add_component<Bidi>("f2", c2.end_b(), c3.end_a());
  sim.add_component<Bidi>("f3", c3.end_b(), c4.end_a());
  sim.add_component<Reflector>("reflector", c4.end_b());
  InterleavingHash h;
  for (const auto& c : sim.components()) c->set_ckpt_hook(&h, 0, from_ns(1));
  RunStats st = sim.run(from_us(2.0), RunMode::kCoscheduled);
  EXPECT_EQ(h.crossings, 9998u);
  EXPECT_EQ(h.hash, 0xfda8d97fd69239abULL);
  expect_schedule(st, {
    {"pinger", 2001, 1, 1900, 0xcacc6ebfbb610e9eULL},
    {"f1", 2001, 0, 3802, 0x131e2d65a31c4b67ULL},
    {"f2", 2001, 0, 2802, 0x7d6ddb2bb61d9926ULL},
    {"f3", 1334, 0, 1534, 0x52768b75102d60cdULL},
    {"reflector", 734, 0, 634, 0xaf5c3f1693dc5ef7ULL},
  });
}

TEST(RuntimeDescribe, ManifestListsWiring) {
  Simulation sim;
  auto& ch = sim.add_channel("wire", {.latency = 500});
  sim.add_component<Pinger>("pinger", ch.end_a(), 1);
  sim.add_component<Reflector>("reflector", ch.end_b());
  std::string d = sim.describe();
  EXPECT_NE(d.find("2 simulator instances"), std::string::npos);
  EXPECT_NE(d.find("pinger"), std::string::npos);
  EXPECT_NE(d.find("-> reflector"), std::string::npos);
  EXPECT_NE(d.find("wire"), std::string::npos);
}

TEST(RuntimeStats, CollectsPerComponentData) {
  Simulation sim;
  auto& ch = sim.add_channel("c", {.latency = 500});
  sim.add_component<Pinger>("pinger", ch.end_a(), 5);
  sim.add_component<Reflector>("reflector", ch.end_b());
  auto stats = sim.run(from_us(1.0), RunMode::kCoscheduled);

  ASSERT_EQ(stats.components.size(), 2u);
  const ComponentStats* pinger = nullptr;
  for (const auto& c : stats.components) {
    if (c.name == "pinger") pinger = &c;
  }
  ASSERT_NE(pinger, nullptr);
  ASSERT_EQ(pinger->adapters.size(), 1u);
  EXPECT_EQ(pinger->adapters[0].peer_component, "reflector");
  EXPECT_EQ(pinger->adapters[0].totals.tx_msgs, 5u);
  EXPECT_EQ(pinger->adapters[0].totals.rx_msgs, 5u);
  EXPECT_GT(pinger->events, 0u);
}
