#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace muffin::obs {

std::uint64_t HistogramSnapshot::count() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : counts) total += n;
  return total;
}

double HistogramSnapshot::mean() const noexcept {
  const std::uint64_t n = count();
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double HistogramSnapshot::quantile(double q) const {
  MUFFIN_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1]");
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1,
      n);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) return histogram_edge(b);
  }
  return histogram_edge(counts.size() - 1);  // unreachable: seen reaches n
}

double HistogramSnapshot::max() const noexcept {
  for (std::size_t b = counts.size(); b-- > 0;) {
    if (counts[b] > 0) return histogram_edge(b);
  }
  return 0.0;
}

HistogramSnapshot& HistogramSnapshot::merge(
    const HistogramSnapshot& other) noexcept {
  for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  sum += other.sum;
  return *this;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    snap.counts[b] = counts_[b].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() noexcept {
  for (std::atomic<std::uint64_t>& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- registry --------------------------------------------------------------

struct Registry::Entry {
  std::string name;
  Kind kind = Kind::Counter;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;  ///< only for Kind::Histogram
};

Registry::Entry& Registry::find_or_create(std::string_view name, Kind kind) {
  MUFFIN_REQUIRE(!name.empty(), "metric name must be non-empty");
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    if (entry->name == name) {
      MUFFIN_REQUIRE(entry->kind == kind,
                     "metric '" + entry->name +
                         "' already registered with a different kind");
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  if (kind == Kind::Histogram) {
    entry->histogram = std::make_unique<Histogram>();
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name) {
  return find_or_create(name, Kind::Counter).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(name, Kind::Gauge).gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *find_or_create(name, Kind::Histogram).histogram;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<Entry>& entry : entries_) {
      switch (entry->kind) {
        case Kind::Counter:
          snap.counters.push_back({entry->name, entry->counter.value()});
          break;
        case Kind::Gauge:
          snap.gauges.push_back({entry->name, entry->gauge.value()});
          break;
        case Kind::Histogram:
          snap.histograms.push_back(entry->histogram->snapshot());
          snap.histograms.back().name = entry->name;
          break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::unique_ptr<Entry>& entry : entries_) {
    switch (entry->kind) {
      case Kind::Counter:
        entry->counter.reset();
        break;
      case Kind::Gauge:
        entry->gauge.reset();
        break;
      case Kind::Histogram:
        entry->histogram->reset();
        break;
    }
  }
}

Registry& registry() {
  static Registry instance;
  return instance;
}

// --- snapshot lookups ------------------------------------------------------

namespace {

template <typename T>
const T* find_by_name(const std::vector<T>& items, std::string_view name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

/// Prometheus metric name: "muffin_" prefix, [a-zA-Z0-9_] only.
std::string prom_name(const std::string& name) {
  std::string out = "muffin_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Shortest decimal rendering that round-trips to the same double, so a
/// bucket edge prints exactly.
std::string render_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, v);
  return std::string(buffer, result.ptr);
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const CounterSnapshot& c : counters) {
    const std::string name = prom_name(c.name);
    os << "# TYPE " << name << " counter\n"
       << name << " " << c.value << "\n";
  }
  for (const GaugeSnapshot& g : gauges) {
    const std::string name = prom_name(g.name);
    os << "# TYPE " << name << " gauge\n"
       << name << " " << g.value << "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    const std::string name = prom_name(h.name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (h.counts[b] == 0) continue;
      cumulative += h.counts[b];
      os << name << "_bucket{le=\"" << render_double(histogram_edge(b))
         << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << cumulative << "\n"
       << name << "_sum " << render_double(h.sum) << "\n"
       << name << "_count " << cumulative << "\n";
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\"" << counters[i].name
       << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\"" << gauges[i].name << "\":" << gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    os << (i ? "," : "") << "\"" << h.name << "\":{\"count\":" << h.count()
       << ",\"sum\":" << render_double(h.sum) << ",\"buckets\":[";
    const char* separator = "";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (h.counts[b] == 0) continue;
      os << separator << "[" << render_double(histogram_edge(b)) << ","
         << h.counts[b] << "]";
      separator = ",";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

}  // namespace muffin::obs
