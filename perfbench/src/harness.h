// Measurement plumbing of the benchmark: clocks, sample sets, process
// resource readings and the in-memory span recorder used by traced runs.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

/// Seconds between two steady-clock points.
double SecondsBetween(Clock::time_point start, Clock::time_point end);

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process (VmHWM), in MB (2^20 bytes).
double PeakRssMb();

/// A set of measurements of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// One recorded span: a timed call into a layer.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = no parent
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
};

/// Records spans in memory (traced runs only) and counters that belong to
/// the same layer boundaries. Thread-safe. When disabled every call is a
/// no-op, so untraced runs pay no recording cost.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A span open for the lifetime of the object. Spans opened on the same
  /// thread while it is open become its children.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    uint32_t id_ = 0;
    uint32_t saved_parent_ = 0;
    const char* name_ = nullptr;
    Clock::time_point start_;
  };

  /// Adds one observation of a layer counter (a count or a ratio measured
  /// at a layer boundary). Kept only when tracing is on.
  void Count(const std::string& name, double value);

  /// Durations (seconds) of every finished span called `name`.
  Samples Durations(const std::string& name) const;
  /// Every observation of counter `name`.
  Samples Counter(const std::string& name) const;

  /// Per-span-name totals: count, total, self and median duration.
  std::string BreakdownJson() const;
  /// Every span, in completion order.
  std::string SpansJson() const;

 private:
  void Finish(Span span);

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint32_t next_id_ = 1;           // guarded by mu_
  std::vector<Span> spans_;        // guarded by mu_
  std::map<std::string, Samples> counters_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
