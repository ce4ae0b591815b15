#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/failpoint.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "tensor/quant.h"
#include "tensor/simd.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
  const double n = static_cast<double>(values.size());
  const double q = values.size() <= 20 ? 0.5 : std::min(0.90, 1.0 - 10.0 / n);
  return quantile(std::move(values), q);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double rss_mb() {
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  std::size_t pages_total = 0;
  std::size_t pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::print(const std::vector<std::string>& names,
                   const char* title) const {
  std::cout << "\n--- " << title << " ---\n";
  for (const auto& [name, metric] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %-6s n=%zu", name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);
    std::cout << line << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": true, \"attempted\": " << std::max<std::size_t>(
                                                     attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics_.find(names[i]);
    if (it == metrics_.end()) {
      throw std::logic_error("metric not measured: " + names[i]);
    }
    json << (i ? ", " : "") << "\"" << names[i]
         << "\": {\"value\": " << json_number(it->second.value)
         << ", \"unit\": \"" << it->second.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> names = {
      "setup_s",     "mem_mb",      "ops_per_s",   "p50_us.low",
      "tail_us.low", "p50_us.high", "tail_us.high"};
  return names;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> names = {
      "rl.sample_us",
      "rl.update_us",
      "core.train_head_ms",
      "core.fused_predictions_us",
      "fairness.evaluate_us",
      "core.search_memo_hit_ratio",
      "core.score_cache_build_ms",
      "common.pool_idle_ratio",
      "common.pool_dispatch_us",
      "tensor.gemm_gflops.train_b128",
      "tensor.gemm_gflops.head_b32",
      "nn.head_forward_us",
      "models.score_batch_us",
      "core.fuse_us",
      "core.head_rows_ratio",
      "serve.submit_us",
      "serve.memo_hit_ratio",
      "serve.consensus_ratio",
      "serve.batch_rows_mean",
      "serve.failed_ratio",
      "serve.rpc.encode_request_us",
      "serve.rpc.decode_request_us",
      "serve.rpc.encode_response_us",
      "serve.rpc.decode_response_us",
      "serve.rpc.rows_per_frame",
      "serve.rpc.bytes_per_row",
      "loadgen.lateness_us",
  };
  return names;
}

std::string host_facts() {
  using namespace muffin;
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency()
     << " pool_width=" << common::global_pool_size()
     << " simd=" << tensor::simd_backend_name()
     << " quant=" << tensor::quant_mode_name(tensor::active_quant_mode())
     << " obs=" << (obs::compiled_in() ? "on" : "off")
     << " failpoints=" << (fail::compiled_in() ? "on" : "off");
  return os.str();
}

}  // namespace perfbench
