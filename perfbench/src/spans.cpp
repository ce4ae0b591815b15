#include "spans.h"

#include <unistd.h>

#include <fstream>
#include <functional>
#include <thread>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return;
  const auto tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  const Record record{name,  micros_between(epoch_, start),
                      micros_between(epoch_, end), id, parent, request, tid};
  const std::lock_guard<std::mutex> lock(mutex_);
  if (records_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  records_.push_back(record);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::vector<SpanStats> Tracer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Record& r : records_) {
    if (r.parent) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::vector<SpanStats> out;
  std::unordered_map<std::string, std::size_t> slot;
  for (const Record& r : records_) {
    const auto [it, inserted] = slot.try_emplace(r.name, out.size());
    if (inserted) out.push_back(SpanStats{r.name, 0, 0.0, 0.0});
    SpanStats& s = out[it->second];
    const double dur = r.end_us - r.start_us;
    const auto child = child_us.find(r.id);
    const double covered = child == child_us.end() ? 0.0 : child->second;
    s.count += 1;
    s.mean_us += dur;
    s.mean_self_us += dur > covered ? dur - covered : 0.0;
  }
  for (SpanStats& s : out) {
    s.mean_us /= static_cast<double>(s.count);
    s.mean_self_us /= static_cast<double>(s.count);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) return false;
  const long pid = static_cast<long>(::getpid());
  os << "{\"traceEvents\":[\n";
  os.precision(3);
  os << std::fixed;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << "{\"name\":\"" << r.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\""
       << ",\"ts\":" << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
       << ",\"pid\":" << pid << ",\"tid\":" << r.tid << ",\"args\":{\"id\":"
       << r.id << ",\"parent\":" << r.parent << ",\"request\":" << r.request
       << "}}" << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  os << "]}\n";
  return os.good();
}

}  // namespace perfbench
