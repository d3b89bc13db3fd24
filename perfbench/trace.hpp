// Span recorder for the traced run.
//
// Spans are kept in memory and written once, as Chrome trace-event JSON
// (load the file in chrome://tracing or https://ui.perfetto.dev), when the
// run ends. Every span carries the wave it belongs to (the identifier all
// spans of one wave share) and the id of the span that caused it. Per-name
// totals are accumulated as spans close, so the per-layer metrics and the
// trace file come from the same measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;  ///< string literal; outlives the tracer
    std::uint64_t id;
    std::uint64_t parent;  ///< 0 = root
    std::uint64_t wave;
    double start_us;
    double dur_us;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id (ids start at 1; 0 means "no parent").
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t wave) {
    spans_.push_back({name, spans_.size() + 1, parent, wave, now_us(), 0.0});
    return spans_.size();
  }

  /// Closes span `id`; returns its duration in microseconds.
  double close(std::uint64_t id) {
    Span& s = spans_[id - 1];
    s.dur_us = now_us() - s.start_us;
    Total& t = totals_[s.name];
    t.us += s.dur_us;
    ++t.count;
    return s.dur_us;
  }

  /// Closes on scope exit.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent,
          std::uint64_t wave)
        : tracer_(tracer), id_(tracer.open(name, parent, wave)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint64_t id_;
  };

  /// Summed duration of every closed span called `name`, in microseconds.
  double total_us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.us;
  }
  std::size_t count(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.count;
  }

  /// Writes every span as a complete ("ph": "X") trace event. Returns
  /// false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
          << ",\"args\":{\"wave\":" << s.wave << ",\"span\":" << s.id
          << ",\"parent\":" << s.parent << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Total {
    double us = 0.0;
    std::size_t count = 0;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
};

}  // namespace perfbench
