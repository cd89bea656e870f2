// splitsim_perfbench: the repository benchmark (see perfbench/NOTES.md).
//
//   splitsim_perfbench --workload W --seed N --seconds S --trace 0|1
//                      [--spec BENCHMARK.json] [--pins FILE] [--out-dir DIR]
//   splitsim_perfbench --pin          print the pinned reference outputs
//   splitsim_perfbench --self-test    [--spec FILE] [--pins FILE]
//
// The metric names and units come from the spec file (BENCHMARK.json).
// One process runs one workload. It repeats the workload until --seconds of
// wall time have passed, gates every repetition against the pinned digest
// and simulated outputs for the seed's input variant, and prints, as its last
// stdout line, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). A repetition that throws or fails the gate
// counts as failed and is not timed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/jsonread.hpp"
#include "profiler/profiler.hpp"
#include "runtime/error.hpp"
#include "util/cycles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<std::string> kWorkloads = {"kv-e2e", "dc-fabric", "mcheck-kv"};

/// Inputs come from the seed through a fixed set of pinned variants.
constexpr std::uint64_t kVariants = 16;

/// Pooled scheduler probe in the traced dc-fabric run: attempts and workers
/// (never more workers than the machine has cores).
constexpr int kPooledProbeRuns = 3;
unsigned pooled_workers() { return std::max(1u, std::min(4u, std::thread::hardware_concurrency())); }

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// A metric as BENCHMARK.json declares it. The output lists every declared
/// metric of its mode, in the declared order.
struct MetricDef {
  std::string name;
  std::string unit;
};

struct Spec {
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};

obs::JsonValue parse_file(const std::string& path) {
  obs::JsonValue v;
  std::string err;
  if (!obs::json_parse(read_file(path), v, err)) throw std::runtime_error(path + ": " + err);
  return v;
}

Spec load_spec(const std::string& path) {
  obs::JsonValue root = parse_file(path);
  Spec spec;
  for (auto [key, out] : {std::pair{"end_to_end", &spec.end_to_end},
                          std::pair{"per_layer", &spec.per_layer}}) {
    if (const obs::JsonValue* list = root.find(key)) {
      for (const auto& m : list->array) out->push_back({m.str("name"), m.str("unit")});
    }
  }
  if (spec.end_to_end.empty() || spec.per_layer.empty()) {
    throw std::runtime_error(path + ": no metrics declared");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Result JSON.
// ---------------------------------------------------------------------------

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

std::string to_json(const Result& r, const std::vector<MetricDef>& defs) {
  std::string out = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    auto it = r.values.find(d.name);
    if (it == r.values.end()) throw std::logic_error(std::string("metric not set: ") + d.name);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + d.name + "\": {\"value\": " + num(it->second) +
           ", \"unit\": \"" + d.unit + "\"}";
  }
  return out + "}}";
}

/// Parse `json` back through obs/jsonread and check it carries exactly `r`.
bool reads_back(const std::string& json, const Result& r, const std::vector<MetricDef>& defs,
                std::string& why) {
  obs::JsonValue v;
  if (!obs::json_parse(json, v, why)) return false;
  const obs::JsonValue* correct = v.find("correct");
  const obs::JsonValue* metrics = v.find("metrics");
  if (v.object.size() != 4 || correct == nullptr || correct->boolean != r.correct ||
      v.num("attempted", -1) != static_cast<double>(r.attempted) ||
      v.num("failed", -1) != static_cast<double>(r.failed) || metrics == nullptr ||
      metrics->object.size() != defs.size()) {
    why = "top-level fields differ";
    return false;
  }
  for (const auto& d : defs) {
    const obs::JsonValue* m = metrics->find(d.name);
    if (m == nullptr || m->str("unit") != d.unit || m->num("value", NAN) != r.values.at(d.name)) {
      why = std::string("metric differs: ") + d.name;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pinned references and the gate.
// ---------------------------------------------------------------------------

struct Pin {
  std::uint64_t digest = 0;
  std::vector<Output> outputs;
};

using Pins = std::map<std::string, std::map<std::uint64_t, Pin>>;

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Pins load_pins(const std::string& path) {
  obs::JsonValue root = parse_file(path);
  Pins pins;
  for (const auto& [workload, list] : root.object) {
    for (const auto& e : list.array) {
      Pin p;
      p.digest = std::stoull(e.str("digest"), nullptr, 16);
      if (const obs::JsonValue* outs = e.find("outputs")) {
        for (const auto& [name, val] : outs->object) p.outputs.push_back({name, val.number});
      }
      pins[workload][static_cast<std::uint64_t>(e.num("variant"))] = std::move(p);
    }
  }
  return pins;
}

std::string pin_json(std::uint64_t variant, std::uint64_t digest,
                     const std::vector<Output>& outputs) {
  std::string out = "{\"variant\": " + std::to_string(variant) + ", \"digest\": \"" +
                    hex(digest) + "\", \"outputs\": {";
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + outputs[i].name + "\": " + num(outputs[i].value);
  }
  return out + "}}";
}

/// Exact comparison: a speed-only change must leave every simulated value
/// bit-identical.
bool gate(const Pin& pin, std::uint64_t digest, const std::vector<Output>& outputs,
          std::string& why) {
  if (digest != pin.digest) {
    why = "digest " + hex(digest) + " != pinned " + hex(pin.digest);
    return false;
  }
  if (outputs.size() != pin.outputs.size()) {
    why = "output count differs";
    return false;
  }
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i].name != pin.outputs[i].name || outputs[i].value != pin.outputs[i].value) {
      why = outputs[i].name + " = " + num(outputs[i].value) + " != pinned " +
            num(pin.outputs[i].value);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer counters of one run, read from RunStats.
// ---------------------------------------------------------------------------

using Values = std::map<std::string, double>;

Values layer_values(const runtime::RunStats& st) {
  const double cps = cycles_per_second();
  Values v;
  std::uint64_t busy = 0;
  for (const auto& c : st.components) {
    busy += c.busy_cycles;
    v["runtime.batches"] += static_cast<double>(c.batches);
    v["des.events"] += static_cast<double>(c.events);
    const char* layer = c.name.rfind("net", 0) == 0    ? "netsim"
                        : c.name.rfind("host.", 0) == 0 ? "hostsim"
                        : c.name.rfind("nic.", 0) == 0  ? "nicsim"
                                                        : nullptr;
    if (layer != nullptr) {
      std::string l = layer;
      v[l + ".busy_s"] += static_cast<double>(c.busy_cycles) / cps;
      v[l + ".events"] += static_cast<double>(c.events);
      v[l + ".batches"] += static_cast<double>(c.batches);
    }
    for (const auto& ad : c.adapters) {
      const sync::ProfCounters& t = ad.totals;
      v["sync.data_msgs"] += static_cast<double>(t.tx_msgs);
      v["sync.sync_msgs"] += static_cast<double>(t.tx_syncs);
      if (ad.adapter.find(".trunk.") != std::string::npos) {
        v["sync.trunk.data_msgs"] += static_cast<double>(t.tx_msgs);
        v["sync.trunk.sync_msgs"] += static_cast<double>(t.tx_syncs);
      }
      v["sync.tx_s"] += static_cast<double>(t.tx_cycles) / cps;
      v["sync.rx_s"] += static_cast<double>(t.rx_cycles) / cps;
      v["sync.wait_s"] += static_cast<double>(t.sync_wait_cycles) / cps;
      v["sync.backpressure_stalls"] += static_cast<double>(t.backpressure_stalls);
    }
  }
  v["runtime.run_s"] = st.wall_seconds;
  if (st.mode == runtime::RunMode::kCoscheduled && st.wall_cycles > 0) {
    v["runtime.sched_frac"] = 1.0 - static_cast<double>(busy) / static_cast<double>(st.wall_cycles);
  }
  if (v["des.events"] > 0) v["des.ns_per_event"] = st.wall_seconds * 1e9 / v["des.events"];
  if (v["sync.data_msgs"] > 0) v["sync.syncs_per_data"] = v["sync.sync_msgs"] / v["sync.data_msgs"];
  profiler::PerfModelConfig pm;
  pm.cores = pooled_workers();
  v["profiler.projected_sim_speed"] =
      profiler::project_sim_speed(profiler::build_report(st), pm);
  return v;
}

Values pooled_values(const runtime::RunStats& st) {
  const double cps = cycles_per_second();
  Values v;
  for (const auto& w : st.pooled_workers) {
    v["runtime.pooled.quanta"] += static_cast<double>(w.quanta);
    v["runtime.pooled.steals"] += static_cast<double>(w.steals);
    v["runtime.pooled.parks"] += static_cast<double>(w.sched_parks);
    v["runtime.pooled.park_s"] += static_cast<double>(w.sched_park_cycles) / cps;
    v["runtime.pooled.busy_s"] += static_cast<double>(w.busy_cycles) / cps;
  }
  for (const auto& c : st.components) {
    for (const auto& ad : c.adapters) {
      v["runtime.pooled.sync_wait_s"] += static_cast<double>(ad.totals.sync_wait_cycles) / cps;
    }
  }
  return v;
}

/// Median of each key over a list of per-run value maps.
Values medians(const std::vector<Values>& runs) {
  std::map<std::string, std::vector<double>> cols;
  for (const auto& r : runs) {
    for (const auto& [k, x] : r) cols[k].push_back(x);
  }
  Values out;
  for (auto& [k, xs] : cols) out[k] = median(std::move(xs));
  return out;
}

// ---------------------------------------------------------------------------
// Running a workload.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_path = "perfbench/pins.json";
  std::string out_dir = ".bench_build/perfbench-out";
  /// Self-test only: flip the observed digest before the gate.
  bool corrupt_digest = false;
};

/// One gated repetition: what the timing loop needs from it.
struct Rep {
  bool ok = false;
  std::string why;
  double setup_s = 0.0;
  double run_s = 0.0;      ///< wall seconds inside Simulation::run
  double sim_s = 0.0;      ///< simulated seconds
  double runs = 1.0;       ///< simulation runs in the repetition
  Values layers;           ///< per-layer values of the repetition
};

class Runner {
 public:
  Runner(Options opt, const Pins& pins) : opt_(std::move(opt)) {
    auto it = pins.find(opt_.workload);
    if (it == pins.end() || it->second.count(variant()) == 0) {
      throw std::runtime_error("no pinned reference for " + opt_.workload + " variant " +
                               std::to_string(variant()));
    }
    pin_ = it->second.at(variant());
  }

  std::uint64_t variant() const { return opt_.seed % kVariants; }

  /// Run one repetition with the given observability, gate it and count it.
  Rep rep(const orch::ProfileSpec& profile) {
    Inputs in{variant(), profile};
    Rep r;
    SimRep s;  // kv-e2e and dc-fabric only
    std::uint64_t digest = 0;
    std::vector<Output> outputs;
    try {
      if (opt_.workload == "mcheck-kv") {
        McheckRep m = run_mcheck_kv(in);
        digest = m.digest_fold;
        outputs = m.outputs;
        r.setup_s = m.run_fn_s - m.sim_wall_s;
        r.run_s = m.sim_wall_s;
        r.sim_s = m.sim_s;
        r.runs = static_cast<double>(m.result.runs);
        r.layers = {{"mcheck.runs", static_cast<double>(m.result.runs)},
                    {"mcheck.unique_digests", static_cast<double>(m.result.unique_digests)},
                    {"mcheck.deduped", static_cast<double>(m.result.deduped)},
                    {"mcheck.violations", static_cast<double>(m.result.reproducers.size())},
                    {"mcheck.dedup_frac", static_cast<double>(m.result.deduped) /
                                              static_cast<double>(m.result.runs)},
                    {"mcheck.sim_s", m.sim_wall_s},
                    {"mcheck.check_s", m.explore_s - m.run_fn_s},
                    {"runtime.run_s", m.sim_wall_s},
                    {"orch.instantiate_s", r.setup_s / r.runs}};
      } else {
        s = opt_.workload == "kv-e2e" ? run_kv_e2e(in) : run_dc_fabric(in, orch::ExecSpec{});
        digest = s.digest;
        outputs = s.outputs;
        r.setup_s = s.setup_s;
        r.run_s = s.stats.wall_seconds;
        r.sim_s = s.stats.sim_seconds();
        r.layers = layer_values(s.stats);
        r.layers["orch.instantiate_s"] = s.instantiate_s;
      }
      if (opt_.corrupt_digest) digest ^= 1;
      r.ok = gate(pin_, digest, outputs, r.why);
      if (r.ok && profile.trace) {
        r.ok = summary_matches(profile.artifact_dir() + "/summary.json", s.stats, r.why);
      }
    } catch (const std::exception& e) {
      r.why = e.what();
    }
    record(r.ok, r.why);
    return r;
  }

  /// Repeat `body` until `seconds` of wall time have passed (at least once).
  static void repeat_for(double seconds, const std::function<void()>& body) {
    auto t0 = Clock::now();
    do body();
    while (since(t0) < seconds);
  }

  Result end_to_end() {
    std::vector<double> speed, rate, setup, cpu;
    repeat_for(opt_.seconds, [&] {
      auto t = Clock::now();
      double c0 = cpu_seconds();
      Rep r = rep(orch::ProfileSpec{});
      double wall = since(t);
      if (!r.ok) return;
      speed.push_back(r.sim_s / r.run_s);
      rate.push_back(r.runs / wall);
      setup.push_back(r.setup_s);
      cpu.push_back(cpu_seconds() - c0);
    });
    Result res = tally();
    res.values = {{"sim_speed", median(speed)},
                  {"runs_per_s", median(rate)},
                  {"setup_s", median(setup)},
                  {"cpu_s", median(cpu)},
                  {"peak_rss_mb", peak_rss_mb()}};
    return res;
  }

  Result per_layer() {
    Values v;

    // Untraced repetitions give the layer split from RunStats counters.
    std::vector<Values> layers;
    std::vector<double> plain_run_s;
    repeat_for(opt_.seconds / 2, [&] {
      Rep r = rep(orch::ProfileSpec{});
      if (!r.ok) return;
      layers.push_back(r.layers);
      plain_run_s.push_back(r.run_s);
    });
    for (const auto& [k, x] : medians(layers)) v[k] = x;

    // Traced repetitions: trace ring + metrics + summary.json.
    orch::ProfileSpec traced;
    traced.trace = true;
    traced.metrics_period_ms = 50;
    traced.log_dir = opt_.out_dir + "/" + opt_.workload;
    std::vector<double> traced_run_s;
    if (opt_.workload == "mcheck-kv") {
      // Trace cost on the scenario mcheck explores, one clean run at a time.
      plain_run_s.clear();
      repeat_for(opt_.seconds / 2, [&] {
        double p = run_kv_small_once(orch::ProfileSpec{});
        double t = run_kv_small_once(traced);
        record(p > 0 && t > 0, "kv-small run did not complete");
        if (p > 0 && t > 0) {
          plain_run_s.push_back(p);
          traced_run_s.push_back(t);
        }
      });
    } else {
      repeat_for(opt_.seconds / 2, [&] {
        Rep r = rep(traced);
        if (r.ok) traced_run_s.push_back(r.run_s);
      });
    }
    if (!plain_run_s.empty() && !traced_run_s.empty()) {
      v["obs.trace_overhead"] = median(traced_run_s) / median(plain_run_s);
      v["obs.trace_dropped_frac"] = trace_dropped_frac(traced.artifact_dir() + "/trace.json");
    }

    if (opt_.workload == "dc-fabric") pooled_probe(v);

    Result res = tally();
    res.values = std::move(v);
    return res;
  }

 private:
  void record(bool ok, const std::string& why) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s seed %llu: run failed: %s\n", opt_.workload.c_str(),
                   static_cast<unsigned long long>(opt_.seed), why.c_str());
    }
  }

  Result tally() const {
    Result res;
    res.attempted = attempted_;
    res.failed = failed_;
    res.correct = attempted_ > 0 && failed_ == 0;
    return res;
  }

  /// A traced run's summary.json must describe the run it came from.
  static bool summary_matches(const std::string& path, const runtime::RunStats& st,
                              std::string& why) {
    obs::JsonValue v = parse_file(path);
    const obs::JsonValue* run = v.find("run");
    if (run == nullptr || run->str("digest") != hex(st.digest.value()) ||
        run->str("outcome") != "completed") {
      why = path + " does not describe the run";
      return false;
    }
    return true;
  }

  /// otherData.dropped / otherData.recorded of an exported trace.
  static double trace_dropped_frac(const std::string& path) {
    obs::JsonValue v = parse_file(path);
    const obs::JsonValue* other = v.find("otherData");
    double recorded = other != nullptr ? other->num("recorded") : 0.0;
    return recorded > 0 ? other->num("dropped") / recorded : 0.0;
  }

  /// The dc-fabric simulation on the pooled scheduler, gated against the
  /// pinned (coscheduled) digest: cross-mode digests must be identical.
  /// Reported as layer metrics; it is a probe of the parallel scheduler,
  /// not one of the workload's operations.
  void pooled_probe(Values& v) {
    orch::ExecSpec exec;
    exec.run_mode = runtime::RunMode::kPooled;
    exec.pool_workers = pooled_workers();
    std::vector<Values> runs;
    std::vector<double> speeds;
    int failed = 0;
    for (int i = 0; i < kPooledProbeRuns; ++i) {
      std::string why;
      try {
        SimRep r = run_dc_fabric(Inputs{variant(), {}}, exec);
        runs.push_back(pooled_values(r.stats));
        if (gate(pin_, r.digest, r.outputs, why)) {
          speeds.push_back(r.stats.sim_speed());
          continue;
        }
      } catch (const runtime::SimulationError& e) {
        if (e.stats() != nullptr) runs.push_back(pooled_values(*e.stats()));
        why = e.what();
      } catch (const std::exception& e) {
        why = e.what();
      }
      ++failed;
      std::fprintf(stderr, "perfbench: pooled probe run %d failed: %s\n", i, why.c_str());
    }
    for (const auto& [k, x] : medians(runs)) v[k] = x;
    v["runtime.pooled.failed_frac"] = static_cast<double>(failed) / kPooledProbeRuns;
    if (!speeds.empty()) {
      v["runtime.pooled.sim_speed"] = median(speeds);
      v["profiler.projection_ratio"] = v["profiler.projected_sim_speed"] / median(speeds);
    }
  }

  Options opt_;
  Pin pin_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Print `r` as the last stdout line, after checking it reads back. Every
/// value must be a declared metric; with `zero_fill`, a declared metric the
/// workload does not exercise reads 0.
int emit(Result r, const std::vector<MetricDef>& defs, bool zero_fill) {
  for (const auto& [name, value] : r.values) {
    if (std::none_of(defs.begin(), defs.end(), [&](const MetricDef& d) { return d.name == name; })) {
      throw std::logic_error("metric not declared in BENCHMARK.json: " + name);
    }
  }
  if (zero_fill) {
    for (const auto& d : defs) r.values.try_emplace(d.name, 0.0);
  }
  std::string json = to_json(r, defs);
  std::string why;
  if (!reads_back(json, r, defs, why)) {
    std::fprintf(stderr, "perfbench: result JSON does not read back: %s\n", why.c_str());
    return 1;
  }
  for (const auto& d : defs) {
    std::fprintf(stderr, "  %-30s %16.6g %s\n", d.name.c_str(), r.values.at(d.name), d.unit.c_str());
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

/// Print the pinned reference table (pins.json) for every workload and
/// input variant.
int print_pins() {
  std::printf("{\n");
  for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
    std::printf("  \"%s\": [\n", kWorkloads[w].c_str());
    for (std::uint64_t var = 0; var < kVariants; ++var) {
      Inputs in{var, {}};
      std::string line;
      if (kWorkloads[w] == "mcheck-kv") {
        McheckRep m = run_mcheck_kv(in);
        line = pin_json(var, m.digest_fold, m.outputs);
      } else {
        SimRep s = kWorkloads[w] == "kv-e2e" ? run_kv_e2e(in) : run_dc_fabric(in, {});
        line = pin_json(var, s.digest, s.outputs);
      }
      std::printf("    %s%s\n", line.c_str(), var + 1 < kVariants ? "," : "");
      std::fflush(stdout);
    }
    std::printf("  ]%s\n", w + 1 < kWorkloads.size() ? "," : "");
  }
  std::printf("}\n");
  return 0;
}

int self_test(const Options& base, const Spec& spec, const Pins& pins) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::fprintf(stderr, "self-test: %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  const std::regex name_re("[A-Za-z0-9_.-]+");
  bool names_ok = true;
  for (const auto* defs : {&spec.end_to_end, &spec.per_layer}) {
    for (const auto& d : *defs) names_ok = names_ok && std::regex_match(d.name, name_re);
  }
  check(names_ok, "every metric name matches [A-Za-z0-9_.-]+");

  for (const auto& w : kWorkloads) {
    check(pins.count(w) == 1 && pins.at(w).size() == kVariants,
          "pins.json holds every variant of " + w);
  }

  Options opt = base;
  opt.workload = "kv-e2e";
  opt.seconds = 0.0;  // one repetition
  opt.corrupt_digest = true;
  Result r = Runner(opt, pins).end_to_end();
  check(r.attempted == 1 && r.failed == 1 && !r.correct,
        "a forced digest mismatch counts as a failed run");

  Result sample;
  sample.correct = true;
  sample.attempted = 7;
  for (const auto& d : spec.end_to_end) sample.values[d.name] = 1.0 / 3.0 + d.name.size();
  std::string json = to_json(sample, spec.end_to_end);
  std::string why;
  check(reads_back(json, sample, spec.end_to_end, why),
        "output reads back through obs/jsonread" + (why.empty() ? "" : ": " + why));
  Result tampered = sample;
  tampered.values.begin()->second += 1e-12;
  check(!reads_back(json, tampered, spec.end_to_end, why), "a changed value does not read back");

  std::fprintf(stderr, "self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: splitsim_perfbench --workload {kv-e2e|dc-fabric|mcheck-kv} --seed N "
               "--seconds S --trace {0|1} [--spec FILE] [--pins FILE] [--out-dir DIR]\n"
               "       splitsim_perfbench --pin\n"
               "       splitsim_perfbench --self-test [--spec FILE] [--pins FILE]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opt;
  std::string spec_path = "BENCHMARK.json";
  bool pin = false, test = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = std::stoi(value()) != 0;
    else if (a == "--spec") spec_path = value();
    else if (a == "--pins") opt.pins_path = value();
    else if (a == "--out-dir") opt.out_dir = value();
    else if (a == "--pin") pin = true;
    else if (a == "--self-test") test = true;
    else return usage();
  }

  // The one-time clock calibration (~20 ms) must not land inside a timed
  // span: the threaded and pooled runners call it after starting their clock.
  cycles_per_second();

  if (pin) return print_pins();
  Spec spec = load_spec(spec_path);
  Pins pins = load_pins(opt.pins_path);
  if (test) return self_test(opt, spec, pins);
  if (std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) == kWorkloads.end() ||
      !(opt.seconds >= 0)) {
    return usage();
  }
  Runner runner(opt, pins);
  return opt.trace ? emit(runner.per_layer(), spec.per_layer, true)
                   : emit(runner.end_to_end(), spec.end_to_end, false);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
