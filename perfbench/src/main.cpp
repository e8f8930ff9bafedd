// perfbench_run: one run of one benchmark workload.
//
//   perfbench_run --workload train-pls-compute --seed 7 --seconds 10
//                 --trace 1 --store-root DIR --trace-out trace.json
//
// Prints a human-readable report, then one line
//   PERFBENCH_RESULT {"correct": ..., "attempted": ..., "failed": ...,
//                     "metrics": {...}, "config": {...}}
// carrying every figure the run measured. run.py turns that line into the
// benchmark's result. An untraced run (--trace 0) gives the end-to-end
// figures; a traced run additionally records obs spans for a second
// phase of the same job, writes them as Chrome trace JSON to --trace-out,
// and takes the per-layer figures from that phase.
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness.hpp"
#include "util/argparse.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

std::string result_line(const perfbench::Result& r) {
  std::ostringstream j;
  j << std::setprecision(17);
  j << "{\"correct\": " << (r.checks.failed() == 0 ? "true" : "false")
    << ", \"attempted\": " << r.checks.attempted()
    << ", \"failed\": " << r.checks.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    j << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << value;
    first = false;
  }
  j << "}, \"config\": {";
  first = true;
  for (const auto& [key, value] : r.config) {
    j << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \""
      << json_escape(value) << "\"";
    first = false;
  }
  j << "}}";
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  dshuf::ArgParser args("perfbench_run", "Run one benchmark workload");
  args.flag("workload", "", "train-pls-compute | train-gs-io | exchange-virtual-1k");
  args.flag("seed", "1", "input seed");
  args.flag("seconds", "10", "measured time");
  args.flag("trace", "0", "1 = add a traced phase and per-layer figures");
  args.flag("toy", "false", "toy-sized inputs (smoke test)");
  args.flag("store-root", "", "directory for the run's sample stores");
  args.flag("trace-out", "", "Chrome trace output path (traced runs)");
  if (!args.parse(argc, argv)) return 0;

  perfbench::RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  opt.seconds = args.get_double("seconds");
  opt.trace = args.get_int("trace") != 0;
  opt.toy = args.get_bool("toy");
  opt.store_root = args.get("store-root");
  opt.trace_out = args.get("trace-out");
  const std::string workload = args.get("workload");
  if (opt.trace && opt.trace_out.empty()) {
    std::cerr << "perfbench_run: --trace 1 needs --trace-out\n";
    return 2;
  }

  int rc = 0;
  try {
    perfbench::Result r;
    if (workload == "exchange-virtual-1k") {
      r = perfbench::run_virtual_exchange(opt);
    } else {
      if (opt.store_root.empty()) {
        std::cerr << "perfbench_run: train workloads need --store-root\n";
        return 2;
      }
      r = perfbench::run_train(workload, opt);
    }
    r.metrics["peak_rss_mb"] = perfbench::peak_rss_mb();
    if (opt.trace &&
        !dshuf::obs::Tracer::instance().write_chrome_trace(opt.trace_out)) {
      std::cerr << "perfbench_run: cannot write " << opt.trace_out << "\n";
      rc = 1;
    }
    std::cout << std::setprecision(6);
    for (const auto& [name, value] : r.metrics) {
      std::cout << "  " << std::left << std::setw(32) << name << value << "\n";
    }
    std::cout << "PERFBENCH_RESULT " << result_line(r) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << e.what() << "\n";
    rc = 1;
  }
  if (!opt.store_root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(opt.store_root, ec);
  }
  return rc;
}
