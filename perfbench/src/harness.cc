#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

namespace {
// Innermost open span of the calling thread: the parent of the next one.
thread_local uint32_t t_open_span = 0;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  {
    std::lock_guard<std::mutex> lock(tracer.mu_);
    id_ = tracer.next_id_++;
  }
  saved_parent_ = t_open_span;
  t_open_span = id_;
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open_span = saved_parent_;
  Span span;
  span.id = id_;
  span.parent = saved_parent_;
  span.name = name_;
  span.start_s = SecondsBetween(tracer_->origin_, start_);
  span.end_s = SecondsBetween(tracer_->origin_, end);
  tracer_->Finish(std::move(span));
}

void Tracer::Finish(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::Count(const std::string& name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name].Add(value);
}

Samples Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) out.Add(s.end_s - s.start_s);
  }
  return out;
}

Samples Tracer::Counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? Samples() : it->second;
}

std::string Tracer::BreakdownJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Self time: a span's duration minus what its direct children cover.
  // Children open on the parent's thread, so they never overlap each other.
  std::unordered_map<uint32_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  struct Agg {
    Samples durations;
    double self = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    Agg& agg = by_name[s.name];
    const double d = s.end_s - s.start_s;
    agg.durations.Add(d);
    const auto it = child_time.find(s.id);
    agg.self += d - (it == child_time.end() ? 0.0 : it->second);
  }
  std::ostringstream out;
  out.precision(9);
  out << "{\"spans\": {";
  bool first = true;
  for (const auto& [name, agg] : by_name) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << agg.durations.size() << ", \"total_s\": " << agg.durations.Sum()
        << ", \"self_s\": " << agg.self
        << ", \"median_s\": " << agg.durations.Median() << "}";
    first = false;
  }
  out << "}, \"counters\": {";
  first = true;
  for (const auto& [name, samples] : counters_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << samples.size() << ", \"median\": " << samples.Median() << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Tracer::SpansJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out.precision(9);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id << ", \"parent\": "
        << s.parent << ", \"name\": \"" << s.name << "\", \"start_s\": "
        << s.start_s << ", \"end_s\": " << s.end_s << "}";
  }
  out << "]\n";
  return out.str();
}

}  // namespace perfbench
