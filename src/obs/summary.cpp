#include "obs/summary.hpp"

#include <filesystem>
#include <fstream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace splitsim::obs {

namespace {

void append_counters(std::string& out, const sync::ProfCounters& c) {
  char sep = '{';
  for (const sync::ProfCounterField& f : sync::kProfCounterFields) {
    out += sep;
    out += "\"" + std::string(f.name) + "\":" + std::to_string(c.*f.member);
    sep = ',';
  }
  out += "}";
}

void append_snapshot(std::string& out, const MetricsSnapshot& s) {
  out += "{\"wall_seconds\":" + json_num(s.wall_seconds);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [n, v] : s.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(n) + "\":" + json_num(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [n, v] : s.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(n) + "\":" + json_num(v);
  }
  out += "}}";
}

}  // namespace

std::string summary_json(const SummaryInputs& in) {
  std::string out = "{\n";

  if (in.stats != nullptr) {
    const runtime::RunStats& st = *in.stats;
    out += "\"run\":{";
    out += "\"mode\":\"" + runtime::to_string(st.mode) + "\"";
    out += ",\"sim_seconds\":" + json_num(st.sim_seconds());
    out += ",\"wall_seconds\":" + json_num(st.wall_seconds);
    out += ",\"sim_speed\":" + json_num(st.sim_speed());
    out += ",\"outcome\":\"" + runtime::to_string(st.outcome) + "\"";
    if (st.outcome != runtime::RunOutcome::kCompleted) {
      out += ",\"error\":\"" + json_escape(st.error) + "\"";
      out += ",\"error_kind\":\"" + runtime::to_string(st.error_kind) + "\"";
      out += ",\"error_component\":\"" + json_escape(st.error_component) + "\"";
      out += ",\"error_sim_ns\":" + std::to_string(to_ns(st.error_sim_time));
    }
    char dig[32];
    std::snprintf(dig, sizeof(dig), "0x%016llx",
                  static_cast<unsigned long long>(st.digest.value()));
    out += ",\"digest\":\"" + std::string(dig) + "\"";
    if (!st.pooled_workers.empty()) {
      // Per-worker pooled scheduling stats: the load-imbalance view the
      // adaptive rebalancer works from (empty for other run modes).
      out += ",\"workers\":[";
      bool firstw = true;
      for (const runtime::PooledWorkerStats& w : st.pooled_workers) {
        if (!firstw) out += ",";
        firstw = false;
        out += "{\"quanta\":" + std::to_string(w.quanta);
        out += ",\"busy_cycles\":" + std::to_string(w.busy_cycles);
        out += ",\"steals\":" + std::to_string(w.steals);
        out += ",\"sched_parks\":" + std::to_string(w.sched_parks);
        out += ",\"sched_park_cycles\":" + std::to_string(w.sched_park_cycles);
        out += ",\"migrations_in\":" + std::to_string(w.migrations_in);
        out += "}";
      }
      out += "]";
    }
    out += ",\"components\":[";
    bool firstc = true;
    for (const runtime::ComponentStats& c : st.components) {
      if (!firstc) out += ",";
      firstc = false;
      out += "\n{\"name\":\"" + json_escape(c.name) + "\"";
      out += ",\"events\":" + std::to_string(c.events);
      out += ",\"batches\":" + std::to_string(c.batches);
      out += ",\"busy_cycles\":" + std::to_string(c.busy_cycles);
      out += ",\"wall_cycles\":" + std::to_string(c.wall_cycles);
      out += ",\"drain_cycles\":" + std::to_string(c.drain_cycles);
      out += ",\"adapters\":[";
      bool firsta = true;
      for (const runtime::AdapterStats& a : c.adapters) {
        if (!firsta) out += ",";
        firsta = false;
        out += "{\"adapter\":\"" + json_escape(a.adapter) + "\"";
        out += ",\"peer\":\"" + json_escape(a.peer_component) + "\"";
        out += ",\"counters\":";
        append_counters(out, a.totals);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }

  if (in.report != nullptr) {
    const profiler::ProfileReport& r = *in.report;
    if (out.size() > 2) out += ",\n";
    out += "\"profile\":{";
    out += "\"sim_speed\":" + json_num(r.sim_speed);
    out += ",\"components\":[";
    bool firstc = true;
    for (const profiler::ComponentReport& c : r.components) {
      if (!firstc) out += ",";
      firstc = false;
      out += "\n{\"name\":\"" + json_escape(c.name) + "\"";
      out += ",\"efficiency\":" + json_num(c.efficiency);
      out += ",\"waiting_fraction\":" + json_num(c.waiting_fraction);
      out += ",\"load_cycles_per_simsec\":" + json_num(c.load_cycles_per_simsec);
      out += ",\"adapters\":[";
      bool firsta = true;
      for (const profiler::AdapterReport& a : c.adapters) {
        if (!firsta) out += ",";
        firsta = false;
        out += "{\"adapter\":\"" + json_escape(a.adapter) + "\"";
        out += ",\"peer\":\"" + json_escape(a.peer_component) + "\"";
        out += ",\"wait_fraction\":" + json_num(a.wait_fraction);
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }

  if (in.metrics != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"metrics\":";
    append_snapshot(out, *in.metrics);
  }

  if (in.processes != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"processes\":[";
    bool firstp = true;
    for (const ProcessSummary& p : *in.processes) {
      if (!firstp) out += ",";
      firstp = false;
      out += "\n{\"name\":\"" + json_escape(p.name) + "\"";
      out += ",\"outcome\":\"" + json_escape(p.outcome) + "\"";
      out += ",\"digest\":\"" + json_escape(p.digest) + "\"";
      out += ",\"wall_seconds\":" + json_num(p.wall_seconds);
      out += ",\"sim_speed\":" + json_num(p.sim_speed);
      out += ",\"trunk_rx_msgs\":" + std::to_string(p.trunk_rx_msgs);
      out += ",\"wire_tx_frames\":" + std::to_string(p.wire_tx_frames);
      out += ",\"wire_tx_bytes\":" + std::to_string(p.wire_tx_bytes);
      out += ",\"wire_tx_syncs\":" + std::to_string(p.wire_tx_syncs);
      out += ",\"wire_tx_datas\":" + std::to_string(p.wire_tx_datas);
      out += ",\"futex_parks\":" + std::to_string(p.futex_parks);
      out += ",\"futex_wakes\":" + std::to_string(p.futex_wakes);
      out += "}";
    }
    out += "]";
  }

  if (in.fleet != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"fleet\":";
    append_snapshot(out, *in.fleet);
  }

  if (in.merge != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"trace_merge\":{";
    out += "\"shards\":" + std::to_string(in.merge->shards);
    out += ",\"events\":" + std::to_string(in.merge->events);
    out += ",\"recorded\":" + std::to_string(in.merge->recorded);
    out += ",\"dropped\":" + std::to_string(in.merge->dropped);
    out += ",\"flow_pairs\":" + std::to_string(in.merge->flow_pairs);
    out += ",\"cross_process_flow_pairs\":" +
           std::to_string(in.merge->cross_process_flow_pairs);
    out += "}";
  }

  if (in.critical_path != nullptr) {
    if (out.size() > 2) out += ",\n";
    out += "\"critical_path\":" + critical_path_json(*in.critical_path);
  }

  if (in.ckpt != nullptr) {
    const CkptSummary& ck = *in.ckpt;
    if (out.size() > 2) out += ",\n";
    out += "\"checkpoint\":{";
    out += std::string("\"enabled\":") + (ck.enabled ? "true" : "false");
    out += ",\"dir\":\"" + json_escape(ck.dir) + "\"";
    out += ",\"snapshots_written\":" + std::to_string(ck.snapshots_written);
    out += ",\"last_boundary_ms\":" + json_num(ck.last_boundary_ms);
    out += std::string(",\"resumed\":") + (ck.resumed ? "true" : "false");
    if (ck.resumed) {
      out += ",\"resume_boundary_ms\":" + json_num(ck.resume_boundary_ms);
      out += std::string(",\"resume_verified\":") + (ck.resume_verified ? "true" : "false");
    }
    out += "}";
  }

  if (in.traced) {
    const TraceStats ts = trace_stats();
    if (out.size() > 2) out += ",\n";
    out += "\"trace\":{";
    out += "\"recorded\":" + std::to_string(ts.recorded);
    out += ",\"retained\":" + std::to_string(ts.retained);
    out += ",\"dropped\":" + std::to_string(ts.dropped);
    out += ",\"threads\":" + std::to_string(ts.threads);
    out += "}";
  }

  out += "\n}\n";
  return out;
}

void write_summary_json(const std::string& path, const SummaryInputs& in) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream os(path);
  os << summary_json(in);
}

}  // namespace splitsim::obs
