// Measurement plumbing shared by the benchmark workloads.
//
// The benchmark times the real stack from outside: every call it makes
// into a layer's public API goes through a LayerCall, which takes a
// steady_clock interval in nanoseconds for the benchmark's own statistics
// and opens an obs span around the same call. Spans are recorded only
// while the tracer is on (the traced phase); the clock interval is always
// taken, so untraced and traced phases run the same code.
//
// Per-sample store calls made from the exchange's payload/deposit
// callbacks are timed with the clock only: one span per sample would put
// tens of thousands of events per epoch into the trace and measure the
// tracer instead of the store.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace obs = dshuf::obs;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One timed call into a layer: obs span + nanosecond interval.
class LayerCall {
 public:
  explicit LayerCall(const char* span_name)
      : span_(span_name), start_ns_(now_ns()) {}
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

  /// Close the call; returns its duration in nanoseconds.
  std::uint64_t stop() {
    const std::uint64_t ns = now_ns() - start_ns_;
    span_.finish();
    return ns;
  }

 private:
  obs::SpanGuard span_;
  std::uint64_t start_ns_;
};

/// A bag of observations of one quantity.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] double mean() const;
  /// Linear-interpolated quantile (0 when empty).
  [[nodiscard]] double quantile(double p) const;

 private:
  std::vector<double> v_;
};

/// Outcome of every output check the run makes. A failed check is also
/// printed, so a failing run says what broke.
class Checks {
 public:
  /// Record one check; returns `ok`.
  bool expect(bool ok, const std::string& what);
  /// Exchange rounds attempted, with the fallbacks and retries they took.
  void rounds(std::uint64_t attempted, std::uint64_t fallbacks_and_retries) {
    attempted_ += attempted;
    failed_ += fallbacks_and_retries;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// What a workload hands back to main(): every metric it measured, keyed
/// by the names BENCHMARK.json uses, plus its configuration and checks.
struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> config;
  Checks checks;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string store_root;  ///< parent directory for per-run stores
  std::string trace_out;   ///< Chrome trace path (traced runs)
};

/// Times `reps` constructions by `build` (seconds, into `seconds`) and
/// returns the last object built. Each earlier object is destroyed before
/// the next clock starts, so teardown is not counted. Workloads time half
/// their set-ups before the job and half after it, so that setup_s samples
/// the machine at both ends of the run rather than in its first second.
template <typename Build>
auto timed_builds(int reps, Build&& build, Samples& seconds) {
  decltype(build()) obj;
  for (int i = 0; i < reps; ++i) {
    obj = {};
    const std::uint64_t t0 = now_ns();
    obj = build();
    seconds.add(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return obj;
}

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Registry counter read by name (0 when never registered).
std::uint64_t counter_value(const std::string& name);

/// Tracing is on for the traced phase only.
void set_tracing(bool on);

Result run_train(const std::string& workload, const RunOptions& opt);
Result run_virtual_exchange(const RunOptions& opt);

}  // namespace perfbench
