// Shared pieces of the repository benchmark: timing, order statistics,
// process memory, the metric report and the run options.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// The reported tail of a sample: the highest percentile with at least
/// ten samples beyond it, capped at the 90th. (On a shared virtual host,
/// multi-millisecond vCPU stalls set the 99th percentile of
/// sub-millisecond operations, which then varies run to run far beyond
/// any bound a regression check could use.)
double tail(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Resident set size of this process, in MB, after returning freed heap
/// pages to the system (so it tracks live memory, not allocator slack).
double rss_mb();

/// A correctness check failed: the run reports no metrics and exits
/// nonzero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure with `what` unless `ok`.
void require(bool ok, const std::string& what);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build";  ///< trace files land here
};

/// One reported metric, with the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Collects metrics and correctness counts; prints the human-readable
/// table and the final one-line JSON result.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);

  void count_attempted(std::size_t n) { attempted_ += n; }
  void count_failed(std::size_t n) { failed_ += n; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

  /// Prints every metric with its unit and sample count, then the result
  /// line restricted to `names` (all of which must have been set).
  void print(const std::vector<std::string>& names, const char* title) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Metric names the result line carries, per mode (BENCHMARK.json lists
/// the same names with their bounds).
const std::vector<std::string>& end_to_end_metrics();
const std::vector<std::string>& per_layer_metrics();

/// nproc, pool width, SIMD backend, quant mode and whether obs and
/// failpoints are compiled in, as one line for the run log.
std::string host_facts();

}  // namespace perfbench
