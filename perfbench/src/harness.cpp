#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>

#include "obs/metrics.hpp"

namespace perfbench {

double Samples::mean() const {
  return v_.empty() ? 0.0
                    : std::accumulate(v_.begin(), v_.end(), 0.0) /
                          static_cast<double>(v_.size());
}

double Samples::quantile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_value(const std::string& name) {
  return dshuf::obs::Registry::instance().counter(name).value();
}

void set_tracing(bool on) { obs::Tracer::instance().set_enabled(on); }

}  // namespace perfbench
