// dshuf_trace: inspect and validate dshuf observability artifacts.
//
// Reads the Chrome trace-event JSON written by --trace-out (and optionally
// the metrics snapshot written by --metrics-out and the timeseries export
// written by --timeseries-out) and prints a Fig.-10-style breakdown: top
// spans by self-time, per-track utilisation, exchange totals per rank, the
// exchange/compute overlap report, and the fault-injection summary. With
// --check it validates the artifacts' structure — including flow-event
// causality: no receive may precede its send under the trace clock — and
// exits non-zero on any malformed input, which is what the CI obs step
// runs against fresh bench output. --min-overlap=F additionally gates on
// the overlap report (exit non-zero when the hidden fraction of exchange
// time is below F) — the CI perf-smoke step holds bench_overlap's
// overlapped schedule to 0.5.
//
//   dshuf_trace --trace=trace.json [--metrics=metrics.json] [--top=N]
//   dshuf_trace --trace=trace.json [--timeseries=ts.json] --check
//   dshuf_trace --trace=trace.json --min-overlap=0.5
//   dshuf_trace --trace=trace.json --critical-path
//   dshuf_trace --trace=trace.json [--metrics=metrics.json] --stragglers
//
// --critical-path stitches the (possibly multi-rank) trace into one
// causal DAG per epoch — program order within a track, flow arrows across
// tracks — and prints each epoch's longest path against its wall clock.
// --stragglers attributes each rank's exchange.fence wait to the peer
// whose data arrived last, counting retransmits and splitting organic
// skew from injected faults (cross-checked against comm.fault.* when
// --metrics is given).
//
// Virtual-backend traces carry thousands of rank tracks; above 64 the
// per-rank and per-track tables collapse into contiguous rank groups
// (mean/max columns, max annotated with the owning rank). --group-size=S
// forces a specific grouping; the default 0 auto-sizes to <= 64 rows.
//
// Parsing/analysis live in trace_analysis.{hpp,cpp} (dshuf_trace_lib) so
// tests exercise the same code paths.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "trace_analysis.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using dshuf::tracetool::Ev;
using dshuf::tracetool::SelfAgg;

std::string track_label(const std::map<std::int64_t, std::string>& names,
                        std::int64_t tid) {
  const auto it = names.find(tid);
  return it != names.end() ? it->second : std::to_string(tid);
}

void print_top_spans(const std::vector<Ev>& events, std::size_t top_n) {
  const auto agg = dshuf::tracetool::self_time_by_name(events);
  std::uint64_t wall_us = 0;
  for (const auto& [name, a] : agg) wall_us += a.self_us;
  std::vector<std::pair<std::string, SelfAgg>> rows(agg.begin(), agg.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us) {
      return a.second.self_us > b.second.self_us;
    }
    return a.first < b.first;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  dshuf::TextTable t("Top spans by self-time");
  t.header({"span", "count", "total_ms", "self_ms", "self_share"});
  for (const auto& [name, a] : rows) {
    t.row({name, std::to_string(a.count),
           dshuf::fmt_double(static_cast<double>(a.total_us) / 1e3),
           dshuf::fmt_double(static_cast<double>(a.self_us) / 1e3),
           dshuf::fmt_percent(wall_us == 0
                                  ? 0.0
                                  : static_cast<double>(a.self_us) /
                                        static_cast<double>(wall_us))});
  }
  t.print(std::cout);
}

std::size_t effective_group_size(std::size_t requested, std::size_t ranks);

void print_tracks(const std::vector<Ev>& events, std::size_t group_size) {
  const auto agg = dshuf::tracetool::self_time_by_track(events);
  if (agg.size() < 2) return;  // single lane: nothing to break down
  const auto names = dshuf::tracetool::thread_names(events);
  const std::size_t gs = effective_group_size(group_size, agg.size());
  if (gs <= 1) {
    dshuf::TextTable t("Self-time per track");
    t.header({"track", "spans", "busy_ms"});
    for (const auto& [tid, a] : agg) {
      t.row({track_label(names, tid), std::to_string(a.count),
             dshuf::fmt_double(static_cast<double>(a.self_us) / 1e3)});
    }
    t.print(std::cout);
    std::cout << "\n";
    return;
  }
  struct GroupAgg {
    std::size_t tracks = 0;
    std::uint64_t count = 0;
    std::uint64_t self_us = 0;
  };
  std::map<std::int64_t, GroupAgg> by_group;
  for (const auto& [tid, a] : agg) {
    auto& g =
        by_group[tid >= 0 ? tid / static_cast<std::int64_t>(gs) : -1];
    ++g.tracks;
    g.count += a.count;
    g.self_us += a.self_us;
  }
  dshuf::TextTable t("Self-time per track group (group size " +
                     std::to_string(gs) + ")");
  t.header({"tracks", "n", "spans", "busy_ms (mean)"});
  for (const auto& [g, ga] : by_group) {
    const std::string label =
        g < 0 ? "other"
              : std::to_string(g * static_cast<std::int64_t>(gs)) + ".." +
                    std::to_string((g + 1) * static_cast<std::int64_t>(gs) -
                                   1);
    t.row({label, std::to_string(ga.tracks), std::to_string(ga.count),
           dshuf::fmt_double(static_cast<double>(ga.self_us) / 1e3 /
                             static_cast<double>(ga.tracks))});
  }
  t.print(std::cout);
  std::cout << "\n";
}

// Per-rank tables stop being readable once the virtual backend puts
// thousands of rank tracks in one trace; past this many rows the
// breakdown collapses into contiguous rank groups.
constexpr std::size_t kMaxRankRows = 64;

// Effective group size: an explicit --group-size wins; otherwise the
// smallest power of two that fits `ranks` tracks into kMaxRankRows rows
// (1 = no grouping).
std::size_t effective_group_size(std::size_t requested, std::size_t ranks) {
  if (requested > 0) return requested;
  if (ranks <= kMaxRankRows) return 1;
  std::size_t gs = 1;
  while ((ranks + gs - 1) / gs > kMaxRankRows) gs *= 2;
  return gs;
}

void print_exchange_by_rank(const std::vector<Ev>& events,
                            std::size_t group_size) {
  struct RankAgg {
    std::uint64_t epochs = 0;
    std::uint64_t exchange_us = 0;
    std::uint64_t fence_us = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::int64_t, RankAgg> by_rank;
  for (const Ev& e : events) {
    if (e.ph != 'X' || e.name.rfind("exchange.", 0) != 0) continue;
    auto& a = by_rank[e.tid];
    if (e.name == "exchange.epoch") {
      ++a.epochs;
      a.exchange_us += e.dur_us;
      const auto it = e.args.find("bytes");
      if (it != e.args.end()) {
        a.bytes += static_cast<std::uint64_t>(
            std::strtoull(it->second.c_str(), nullptr, 10));
      }
    } else if (e.name == "exchange.fence") {
      a.fence_us += e.dur_us;
    }
  }
  if (by_rank.empty()) {
    std::cout << "(no exchange.* spans in trace)\n";
    return;
  }

  const std::size_t gs = effective_group_size(group_size, by_rank.size());
  if (gs <= 1) {
    dshuf::TextTable t("Exchange totals per rank");
    t.header({"rank", "epochs", "exchange_ms", "fence_ms", "bytes"});
    for (const auto& [rank, a] : by_rank) {
      t.row({std::to_string(rank), std::to_string(a.epochs),
             dshuf::fmt_double(static_cast<double>(a.exchange_us) / 1e3),
             dshuf::fmt_double(static_cast<double>(a.fence_us) / 1e3),
             std::to_string(a.bytes)});
    }
    t.print(std::cout);
    return;
  }

  struct GroupAgg {
    std::size_t ranks = 0;
    std::uint64_t epochs = 0;
    std::uint64_t exchange_us = 0;
    std::uint64_t fence_us = 0;
    std::uint64_t fence_max_us = 0;
    std::int64_t fence_max_rank = -1;
    std::uint64_t bytes = 0;
  };
  std::map<std::int64_t, GroupAgg> by_group;
  for (const auto& [rank, a] : by_rank) {
    const std::int64_t g =
        rank >= 0 ? rank / static_cast<std::int64_t>(gs) : -1;
    auto& ga = by_group[g];
    ++ga.ranks;
    ga.epochs += a.epochs;
    ga.exchange_us += a.exchange_us;
    ga.fence_us += a.fence_us;
    ga.bytes += a.bytes;
    if (a.fence_us >= ga.fence_max_us) {
      ga.fence_max_us = a.fence_us;
      ga.fence_max_rank = rank;
    }
  }
  dshuf::TextTable t("Exchange totals per rank group (group size " +
                     std::to_string(gs) + ")");
  t.header({"ranks", "n", "epochs", "exchange_ms (mean)",
            "fence_ms (mean)", "fence_ms (max @ rank)", "bytes"});
  for (const auto& [g, ga] : by_group) {
    const double n = static_cast<double>(ga.ranks);
    const std::string label =
        g < 0 ? "other"
              : std::to_string(g * static_cast<std::int64_t>(gs)) + ".." +
                    std::to_string((g + 1) * static_cast<std::int64_t>(gs) -
                                   1);
    t.row({label, std::to_string(ga.ranks), std::to_string(ga.epochs),
           dshuf::fmt_double(static_cast<double>(ga.exchange_us) / 1e3 / n),
           dshuf::fmt_double(static_cast<double>(ga.fence_us) / 1e3 / n),
           dshuf::fmt_double(static_cast<double>(ga.fence_max_us) / 1e3) +
               " @ " + std::to_string(ga.fence_max_rank),
           std::to_string(ga.bytes)});
  }
  t.print(std::cout);
}

void print_overlap(const dshuf::obs::OverlapReport& report) {
  if (report.exchange_spans == 0) {
    std::cout << "(no exchange spans in trace — overlap not applicable)\n";
    return;
  }
  dshuf::TextTable t("Exchange/compute overlap");
  t.header({"metric", "value"});
  t.row({"exchange spans", std::to_string(report.exchange_spans)});
  t.row({"compute spans", std::to_string(report.compute_spans)});
  t.row({"exchange_ms",
         dshuf::fmt_double(static_cast<double>(report.exchange_us) / 1e3)});
  t.row({"hidden_ms",
         dshuf::fmt_double(static_cast<double>(report.hidden_us) / 1e3)});
  t.row({"compute_ms",
         dshuf::fmt_double(static_cast<double>(report.compute_us) / 1e3)});
  t.row({"efficiency", dshuf::fmt_percent(report.efficiency())});
  t.print(std::cout);
}

int print_critical_paths(const std::vector<Ev>& events) {
  const auto paths = dshuf::tracetool::critical_paths(events);
  if (paths.empty()) {
    std::cout << "(no spans in trace — no critical path)\n";
    return 0;
  }
  const auto names = dshuf::tracetool::thread_names(events);
  dshuf::TextTable t("Epoch critical paths");
  t.header({"epoch", "wall_ms", "path_ms", "path/wall", "dominant step"});
  for (const auto& p : paths) {
    std::string dominant = "-";
    if (!p.steps.empty()) {
      dominant = p.steps[0].name + " @ " +
                 track_label(names, p.steps[0].tid) + " (" +
                 dshuf::fmt_double(static_cast<double>(p.steps[0].us) /
                                   1e3) +
                 " ms)";
    }
    t.row({p.label,
           dshuf::fmt_double(static_cast<double>(p.wall_us) / 1e3),
           dshuf::fmt_double(static_cast<double>(p.path_us) / 1e3),
           p.wall_us == 0 ? "-"
                          : dshuf::fmt_percent(
                                static_cast<double>(p.path_us) /
                                static_cast<double>(p.wall_us)),
           dominant});
  }
  t.print(std::cout);
  return 0;
}

int print_stragglers(
    const std::vector<Ev>& events,
    const std::map<std::string, std::uint64_t>& counters) {
  const auto rows = dshuf::tracetool::stragglers(events, counters);
  if (rows.empty()) {
    std::cout << "(no exchange.fence spans in trace — nothing to "
                 "attribute)\n";
    return 0;
  }
  const auto names = dshuf::tracetool::thread_names(events);
  dshuf::TextTable t("Fence-wait attribution (stragglers)");
  t.header(
      {"epoch", "rank", "fence_ms", "blocked by", "retransmits", "class"});
  for (const auto& r : rows) {
    t.row({r.epoch, track_label(names, r.rank),
           dshuf::fmt_double(static_cast<double>(r.fence_us) / 1e3),
           r.blocking_rank < 0 ? "-" : track_label(names, r.blocking_rank),
           std::to_string(r.retransmits), r.klass});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dshuf::ArgParser args(
      "dshuf_trace",
      "Inspect/validate dshuf trace and metrics artifacts "
      "(Fig.-10-style breakdown).");
  args.flag("trace", "", "Chrome trace JSON written by --trace-out");
  args.flag("metrics", "", "metrics JSON written by --metrics-out (optional)");
  args.flag("timeseries", "",
            "timeseries JSON written by --timeseries-out (optional)");
  args.flag("top", "12", "rows in the top-spans table");
  args.flag("check", "false", "validate the artifacts and exit");
  args.flag("critical-path", "false",
            "print the per-epoch causal critical path (skips the default "
            "breakdown; composes with --stragglers)");
  args.flag("stragglers", "false",
            "print the per-(epoch, rank) fence-wait attribution (skips the "
            "default breakdown; composes with --critical-path)");
  args.flag("min-overlap", "",
            "fail unless the exchange/compute overlap efficiency is >= "
            "this fraction (e.g. 0.5)");
  args.flag("group-size", "0",
            "collapse the per-rank/per-track tables into contiguous rank "
            "groups of this size (0 = auto: group only when a virtual-"
            "backend trace carries more than 64 rank tracks)");
  try {
    if (!args.parse(argc, argv)) return 0;
    const std::string trace_path = args.get("trace");
    DSHUF_CHECK(!trace_path.empty(), "--trace is required");

    const std::vector<Ev> events = dshuf::tracetool::load_trace(trace_path);
    std::map<std::string, std::uint64_t> counters;
    const std::string metrics_path = args.get("metrics");
    if (!metrics_path.empty()) {
      counters = dshuf::tracetool::load_metrics(metrics_path);
    }
    const std::string timeseries_path = args.get("timeseries");
    std::size_t ts_windows = 0;
    if (!timeseries_path.empty()) {
      ts_windows =
          dshuf::tracetool::load_timeseries(timeseries_path).size();
    }

    const std::string min_overlap = args.get("min-overlap");
    if (!min_overlap.empty()) {
      const double threshold = std::strtod(min_overlap.c_str(), nullptr);
      DSHUF_CHECK(threshold >= 0.0 && threshold <= 1.0,
                  "--min-overlap must be in [0, 1], got " << min_overlap);
      const auto report = dshuf::tracetool::overlap_report(events);
      std::cout << "overlap efficiency "
                << dshuf::fmt_percent(report.efficiency()) << " (hidden "
                << report.hidden_us << " us of " << report.exchange_us
                << " us exchange across " << report.exchange_spans
                << " spans), threshold "
                << dshuf::fmt_percent(threshold) << "\n";
      if (report.efficiency() < threshold) {
        std::cerr << "dshuf_trace: overlap efficiency below threshold\n";
        return 1;
      }
      return 0;
    }

    if (args.get_bool("check")) {
      // Structural validation happened in the loaders; on top of that the
      // flow events must describe a causal order (a receive recorded
      // before its send means the trace clock or the wire context is
      // broken).
      const auto fc = dshuf::tracetool::check_flows(events);
      for (const std::string& err : fc.errors) {
        std::cerr << "dshuf_trace: " << trace_path << ": " << err << "\n";
      }
      if (!fc.errors.empty()) return 1;
      std::cout << "OK: " << trace_path << " (" << events.size()
                << " events, " << fc.sends << " flow sends, "
                << fc.finishes << " finishes, " << fc.steps << " steps)";
      if (!metrics_path.empty()) {
        std::cout << ", " << metrics_path << " (" << counters.size()
                  << " counters)";
      }
      if (!timeseries_path.empty()) {
        std::cout << ", " << timeseries_path << " (" << ts_windows
                  << " windows)";
      }
      std::cout << "\n";
      return 0;
    }

    // The focused reports compose: --critical-path --stragglers prints
    // both and skips the default breakdown.
    if (args.get_bool("critical-path") || args.get_bool("stragglers")) {
      int rc = 0;
      if (args.get_bool("critical-path")) {
        rc |= print_critical_paths(events);
      }
      if (args.get_bool("stragglers")) {
        if (args.get_bool("critical-path")) std::cout << "\n";
        rc |= print_stragglers(events, counters);
      }
      return rc;
    }

    const auto group_size = static_cast<std::size_t>(
        std::max<std::int64_t>(0, args.get_int("group-size")));
    print_top_spans(events,
                    static_cast<std::size_t>(
                        std::max<std::int64_t>(1, args.get_int("top"))));
    std::cout << "\n";
    print_tracks(events, group_size);
    print_exchange_by_rank(events, group_size);
    std::cout << "\n";
    print_overlap(dshuf::tracetool::overlap_report(events));
    if (!counters.empty()) {
      std::cout << "\n";
      dshuf::TextTable ex("Exchange counters");
      ex.header({"counter", "value"});
      for (const auto& [name, v] : counters) {
        if (name.rfind("exchange.", 0) == 0) ex.row({name, std::to_string(v)});
      }
      if (ex.num_rows() > 0) {
        ex.print(std::cout);
        std::cout << "\n";
      }
      dshuf::TextTable ft("Fault summary");
      ft.header({"counter", "value"});
      for (const auto& [name, v] : counters) {
        if (name.rfind("comm.fault.", 0) == 0) {
          ft.row({name, std::to_string(v)});
        }
      }
      if (ft.num_rows() > 0) ft.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dshuf_trace: " << e.what() << "\n";
    return 1;
  }
}
