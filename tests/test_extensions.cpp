// Tests for the scale-out proxy components.
#include <gtest/gtest.h>

#include "runtime/proxy.hpp"
#include "runtime/runner.hpp"

using namespace splitsim;
using namespace splitsim::runtime;

namespace {

constexpr std::uint16_t kPing = sync::kUserTypeBase + 1;

class Echo : public Component {
 public:
  Echo(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
    ad_ = &add_adapter("link", end);
    ad_->set_handler([this](const sync::Message& m, SimTime rx) {
      ++received;
      ad_->send(m.type, m.as<int>(), rx);
    });
  }
  int received = 0;

 private:
  sync::Adapter* ad_;
};

class Caller : public Component {
 public:
  Caller(std::string name, sync::ChannelEnd& end, int count)
      : Component(std::move(name)), total_(count) {
    ad_ = &add_adapter("link", end);
    ad_->set_handler([this](const sync::Message&, SimTime rx) {
      rtts.push_back(rx - last_sent_);
      if (static_cast<int>(rtts.size()) < total_) send_next(rx);
    });
  }
  void init() override {
    kernel().schedule_at(0, [this] { send_next(0); });
  }
  std::vector<SimTime> rtts;

 private:
  void send_next(SimTime now) {
    last_sent_ = now;
    ad_->send(kPing, 7, now);
  }
  sync::Adapter* ad_;
  SimTime last_sent_ = 0;
  int total_;
};

}  // namespace

TEST(ProxyTest, RoundTripAddsTransportLatency) {
  Simulation sim;
  ProxyConfig pcfg;
  pcfg.forward_delay = from_us(2.0);
  pcfg.transport_bw = Bandwidth{0.0};  // unlimited
  auto link = connect_via_proxy(sim, "xhost", {.latency = from_us(1.0)}, pcfg);
  auto& caller = sim.add_component<Caller>("caller", *link.end_a, 5);
  auto& echo = sim.add_component<Echo>("echo", *link.end_b);
  sim.run(from_ms(1.0), RunMode::kCoscheduled);

  EXPECT_EQ(echo.received, 5);
  ASSERT_EQ(caller.rtts.size(), 5u);
  // One way: 1us local channel + 2us proxy + 1us local channel = 4us; RTT 8.
  for (SimTime rtt : caller.rtts) {
    EXPECT_NEAR(static_cast<double>(rtt), static_cast<double>(from_us(8.0)), 100.0);
  }
  EXPECT_EQ(link.proxy->forwarded_a_to_b(), 5u);
  EXPECT_EQ(link.proxy->forwarded_b_to_a(), 5u);
}

TEST(ProxyTest, TransportBandwidthSerializes) {
  // A burst of messages through a slow transport must spread out in time.
  Simulation sim;
  ProxyConfig pcfg;
  pcfg.forward_delay = 0;
  pcfg.transport_bw = Bandwidth::mbps(100.0);  // 256B slot -> ~20.5us each
  auto link = connect_via_proxy(sim, "slow", {.latency = from_us(1.0)}, pcfg);

  class Burst : public Component {
   public:
    Burst(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      ad_ = &add_adapter("link", end);
    }
    void init() override {
      kernel().schedule_at(0, [this] {
        for (int i = 0; i < 10; ++i) ad_->send(kPing, i, kernel().now());
      });
    }

   private:
    sync::Adapter* ad_;
  };
  class Sink : public Component {
   public:
    Sink(std::string name, sync::ChannelEnd& end) : Component(std::move(name)) {
      auto& a = add_adapter("link", end);
      a.set_handler([this](const sync::Message&, SimTime rx) { arrivals.push_back(rx); });
    }
    std::vector<SimTime> arrivals;
  };

  sim.add_component<Burst>("burst", *link.end_a);
  auto& sink = sim.add_component<Sink>("sink", *link.end_b);
  sim.run(from_ms(1.0), RunMode::kCoscheduled);

  ASSERT_EQ(sink.arrivals.size(), 10u);
  SimTime per_msg = Bandwidth::mbps(100.0).tx_time(sizeof(sync::Message));
  for (std::size_t i = 1; i < sink.arrivals.size(); ++i) {
    SimTime gap = sink.arrivals[i] - sink.arrivals[i - 1];
    EXPECT_NEAR(static_cast<double>(gap), static_cast<double>(per_msg),
                static_cast<double>(per_msg) * 0.1);
  }
}

TEST(ProxyTest, ThreadedMatchesCoscheduled) {
  auto run = [](RunMode mode) {
    Simulation sim;
    auto link = connect_via_proxy(sim, "x", {.latency = from_us(1.0)});
    auto& caller = sim.add_component<Caller>("caller", *link.end_a, 8);
    sim.add_component<Echo>("echo", *link.end_b);
    sim.run(from_ms(1.0), mode);
    return caller.rtts;
  };
  EXPECT_EQ(run(RunMode::kCoscheduled), run(RunMode::kThreaded));
}
