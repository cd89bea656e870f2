#include "workloads.hpp"

#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "hostsim/host.hpp"
#include "kv/apps.hpp"
#include "kv/pegasus.hpp"
#include "mcheck/scenarios.hpp"
#include "netsim/apps.hpp"
#include "orch/builders.hpp"
#include "orch/system.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

/// Instantiate and run `sys`, filling the timing and stats fields of `rep`.
/// `t0` is when the workload made its first call into the program.
void instantiate_and_run(runtime::Simulation& sim, const orch::System& sys,
                         const orch::Instantiation& inst, SimTime duration,
                         Clock::time_point t0, SimRep& rep) {
  auto ti = Clock::now();
  orch::instantiate_system(sim, sys, inst);
  rep.instantiate_s = since(ti);
  rep.stats = orch::run_instantiated(sim, inst, duration);
  rep.setup_s = since(t0) - rep.stats.wall_seconds;
  rep.digest = rep.stats.digest.value();
}

}  // namespace

SimRep run_kv_e2e(const Inputs& in) {
  constexpr int kServers = 2;
  constexpr int kClients = 3;
  const SimTime duration = from_ms(40.0);
  const SimTime window_start = duration / 4;

  SimRep rep;
  auto t0 = Clock::now();
  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.default_fidelity = orch::HostFidelity::kQemu;  // every host detailed
  inst.profile = in.profile;

  std::vector<proto::Ipv4Addr> server_ips;
  for (int s = 0; s < kServers; ++s) {
    server_ips.push_back(proto::ip(10, 0, 1, static_cast<unsigned>(s + 1)));
  }
  int sw = sys.add_switch({.name = "tor", .configure = [server_ips](netsim::SwitchNode& tor) {
                             kv::PegasusConfig pg;
                             pg.servers = server_ips;
                             tor.set_app(std::make_unique<kv::PegasusSwitchApp>(pg));
                           }});
  orch::LinkSpec link;  // 10 Gb/s, 1 us
  for (int s = 0; s < kServers; ++s) {
    orch::HostSpec spec;
    spec.name = "server" + std::to_string(s);
    spec.ip = server_ips[static_cast<std::size_t>(s)];
    spec.seed = static_cast<std::uint64_t>(100 + s);
    spec.apps = [](orch::HostContext& ctx) {
      ctx.detailed->add_app<kv::HostKvServerApp>(kv::KvServerConfig{});
    };
    sys.add_link(sys.add_host(std::move(spec)), sw, link);
  }
  std::vector<kv::HostKvClientApp*> clients;
  for (int c = 0; c < kClients; ++c) {
    kv::KvClientConfig cc;  // closed loop, 16 outstanding requests
    cc.local_port = static_cast<std::uint16_t>(9001 + c);
    cc.seed = 200 + static_cast<std::uint64_t>(c) + 16 * in.variant;
    cc.window_start = window_start;
    cc.window_end = duration;
    cc.actor = static_cast<std::uint32_t>(c);
    orch::HostSpec spec;
    spec.name = "client" + std::to_string(c);
    spec.ip = proto::ip(10, 0, 2, static_cast<unsigned>(c + 1));
    spec.seed = static_cast<std::uint64_t>(300 + c);
    spec.apps = [cc, &clients](orch::HostContext& ctx) {
      clients.push_back(&ctx.detailed->add_app<kv::HostKvClientApp>(cc));
    };
    sys.add_link(sys.add_host(std::move(spec)), sw, link);
  }

  instantiate_and_run(sim, sys, inst, duration, t0, rep);

  std::uint64_t ops = 0;
  Summary latency;
  for (const auto* c : clients) {
    ops += c->window_ops();
    for (double v : c->latency_us().samples()) latency.add(v);
  }
  rep.outputs = {{"window_ops_per_s", static_cast<double>(ops) / to_sec(duration - window_start)},
                 {"mean_latency_us", latency.mean()}};
  return rep;
}

SimRep run_dc_fabric(const Inputs& in, const orch::ExecSpec& exec) {
  constexpr int kAggs = 2;
  constexpr int kRacks = 3;
  constexpr int kHostsPerRack = 8;
  constexpr double kBgRateBps = 400e6;
  constexpr double kPairReqRate = 38e3;
  constexpr std::uint64_t kReqInstrs = 30'000;
  const SimTime duration = from_ms(60.0);

  SimRep rep;
  auto t0 = Clock::now();

  // Background flows, one from every even slot. Each rack sends two flows
  // to a rack neighbour, one to another rack of its agg and one to a rack of
  // the other agg; the seed picks which slot gets which role, the remote
  // hosts and the start times. Fixing the mix per rack keeps the traffic
  // that crosses partitions the same for every seed.
  using Slot = std::tuple<int, int, int>;
  std::map<Slot, std::vector<orch::HostInstaller>> installers;
  Rng rng(0xDC, in.variant);
  std::uint16_t port = 9000;
  for (int a = 0; a < kAggs; ++a) {
    for (int r = 0; r < kRacks; ++r) {
      int roles[] = {0, 0, 1, 2};  // 0 rack-local, 1 same agg, 2 other agg
      for (int i = 3; i > 0; --i) {
        std::swap(roles[i], roles[rng.below(static_cast<std::uint64_t>(i) + 1)]);
      }
      for (int h = 0; h + 1 < kHostsPerRack; h += 2) {
        auto pick = [&rng](int n) { return static_cast<int>(rng.below(static_cast<std::uint64_t>(n))); };
        Slot src{a, r, h};
        Slot dst{a, r, h + 1};
        if (roles[h / 2] == 1) dst = {a, (r + 1 + pick(kRacks - 1)) % kRacks, pick(kHostsPerRack)};
        if (roles[h / 2] == 2) dst = {(a + 1 + pick(kAggs - 1)) % kAggs, pick(kRacks), pick(kHostsPerRack)};
        ++port;
        const proto::Ipv4Addr dst_ip =
            netsim::datacenter_host_ip(std::get<0>(dst), std::get<1>(dst), std::get<2>(dst));
        const SimTime start = from_us(static_cast<double>(rng.below(500)));
        installers[dst].push_back([port](orch::HostContext& ctx) {
          ctx.protocol->add_app<netsim::UdpSinkApp>(port);
        });
        installers[src].push_back([port, dst_ip, start](orch::HostContext& ctx) {
          ctx.protocol->add_app<netsim::OnOffUdpApp>(
              netsim::OnOffUdpApp::Config{.dst = dst_ip,
                                          .dst_port = port,
                                          .src_port = port,
                                          .payload_bytes = 1400,
                                          .rate_bps = kBgRateBps,
                                          .start_at = start});
        });
      }
    }
  }

  runtime::Simulation sim;
  orch::System sys;
  orch::Instantiation inst;
  inst.exec = exec;
  inst.exec.partition = "ac";
  inst.profile = in.profile;
  inst.host_template.cpu.qemu_sim_cost = 0.7;  // the Fig. 9 host-pair cost

  orch::DatacenterSystemParams params;
  params.n_agg = kAggs;
  params.racks_per_agg = kRacks;
  params.hosts_per_rack = kHostsPerRack;
  auto dcs = orch::add_datacenter(
      sys, params, [&installers](int a, int r, int s, orch::HostSpec spec) {
        auto it = installers.find({a, r, s});
        if (it != installers.end()) {
          spec.apps = [apps = it->second](orch::HostContext& ctx) {
            for (const auto& install : apps) install(ctx);
          };
        }
        return spec;
      });

  // The detailed request/response pair: hostA sends a request every
  // 1/kPairReqRate seconds, hostB answers each after kReqInstrs of work.
  struct Sender {
    hostsim::HostComponent* host = nullptr;
    proto::Ipv4Addr dst = 0;
    void send() {
      host->exec(kReqInstrs / 4, [this] {
        proto::AppData d;
        host->udp_send(dst, 7, 9001, d, 64);
        host->kernel().schedule_in(static_cast<SimTime>(timeunit::sec / kPairReqRate),
                                   [this] { send(); });
      });
    }
  };
  Sender sender;
  sender.dst = netsim::datacenter_host_ip(kAggs - 1, 0, kHostsPerRack);
  orch::HostSpec a;
  a.name = "hostA";
  a.ip = netsim::datacenter_host_ip(0, 0, kHostsPerRack);
  a.seed = 11;
  a.apps = [&sender](orch::HostContext& ctx) {
    sender.host = ctx.detailed;
    ctx.detailed->udp_bind(9001, [](const proto::Packet&, SimTime) {});
    ctx.detailed->kernel().schedule_at(0, [&sender] { sender.send(); });
  };
  orch::HostSpec b;
  b.name = "hostB";
  b.ip = sender.dst;
  b.seed = 22;
  b.apps = [](orch::HostContext& ctx) {
    hostsim::HostComponent* host = ctx.detailed;
    host->udp_bind(7, [host](const proto::Packet& p, SimTime) {
      host->exec(kReqInstrs, [host, p] {
        proto::AppData d;
        host->udp_send(p.src_ip, p.src_port, 7, d, 256);
      });
    });
  };
  orch::datacenter_attach_host(sys, dcs, params, 0, 0, std::move(a));
  orch::datacenter_attach_host(sys, dcs, params, kAggs - 1, 0, std::move(b));
  inst.fidelity_overrides["hostA"] = orch::HostFidelity::kQemu;
  inst.fidelity_overrides["hostB"] = orch::HostFidelity::kQemu;

  instantiate_and_run(sim, sys, inst, duration, t0, rep);

  std::uint64_t events = 0, data_msgs = 0;
  for (const auto& c : rep.stats.components) {
    events += c.events;
    for (const auto& ad : c.adapters) data_msgs += ad.totals.tx_msgs;
  }
  rep.outputs = {{"events", static_cast<double>(events)},
                 {"data_msgs", static_cast<double>(data_msgs)}};
  return rep;
}

McheckRep run_mcheck_kv(const Inputs& in) {
  const mcheck::VerifyScenario* sc = mcheck::find_verify_scenario("kv-small");
  mcheck::LatticeOptions lattice = sc->lattice;
  lattice.fault_seed = in.variant + 1;
  const double run_sim_s = to_sec(mcheck::kv_small_config().duration);

  McheckRep rep;
  mcheck::RunFn inner = mcheck::bind_scenario(*sc, orch::ExecSpec{});
  mcheck::RunFn timed = [&rep, &inner, run_sim_s](const orch::FaultSpec& spec) {
    auto t = Clock::now();
    mcheck::Observation obs = inner(spec);
    rep.run_fn_s += since(t);
    rep.sim_wall_s += obs.wall_seconds;
    rep.sim_s += obs.completed ? run_sim_s : to_sec(obs.error_sim_time);
    rep.digest_fold = (rep.digest_fold ^ obs.digest) * 1099511628211ull;
    return obs;
  };
  mcheck::Explorer explorer(timed, lattice, mcheck::Budget{50, 0.0});
  for (auto& inv : mcheck::scenario_invariants(*sc)) explorer.add_invariant(std::move(inv));

  auto t0 = Clock::now();
  rep.result = explorer.explore();
  rep.explore_s = since(t0);

  const mcheck::ExploreResult& r = rep.result;
  rep.outputs = {{"runs", static_cast<double>(r.runs)},
                 {"unique_digests", static_cast<double>(r.unique_digests)},
                 {"deduped", static_cast<double>(r.deduped)},
                 {"violations", static_cast<double>(r.reproducers.size())}};
  return rep;
}

double run_kv_small_once(const orch::ProfileSpec& profile) {
  kv::ScenarioConfig cfg = mcheck::kv_small_config();
  cfg.profile = profile;
  mcheck::Observation obs = mcheck::observe_kv(cfg);
  return obs.completed ? obs.wall_seconds : -1.0;
}

}  // namespace perfbench
