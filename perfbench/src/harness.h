// Measurement helpers of the repo benchmark: exact percentiles, the span
// recorder of the traced run, and process context (peak RSS, load).
// Nothing here calls into the program under test.
#ifndef SOFOS_PERFBENCH_HARNESS_H_
#define SOFOS_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since `origin`.
inline double MicrosSince(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least p% of all samples at or below it. Returns NaN unless at least ten
/// samples lie strictly beyond the chosen rank (so a tail figure always
/// rests on ten or more observations) or when `samples` is empty.
inline double Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p > 100.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // Integer arithmetic on per-mille ranks avoids ceil(0.99 * 1000) = 991.
  const uint64_t permille = static_cast<uint64_t>(std::llround(p * 10.0));
  const uint64_t rank = (permille * n + 999) / 1000;  // 1-based, >= 1
  if (n - rank < 10) return std::numeric_limits<double>::quiet_NaN();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median as the nearest-rank p50 without the tail-count rule (used for
/// the few-sample figures such as repeated set-up times).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = (samples.size() + 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Checks Percentile() and Median() against hand-computed vectors. Returns
/// an empty string on success, else a description of the first mismatch.
inline std::string CheckPercentileHelper() {
  auto same = [](double got, double want) {
    return std::isnan(want) ? std::isnan(got) : got == want;
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back((i * 7919) % 1000 + 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const std::vector<double>* samples;
    double p;
    double want;
  };
  const std::vector<double> ties = {5, 1, 5, 5, 2, 5, 5, 5, 5, 5, 5, 5,
                                    5, 5, 5, 5, 5, 5, 5, 5, 9, 9};
  const std::vector<double> empty;
  const Case cases[] = {
      {&hundred, 50, 50},   {&hundred, 90, 90},   {&hundred, 91, nan},
      {&hundred, 99, nan},  {&thousand, 50, 500}, {&thousand, 99, 990},
      {&thousand, 99.1, nan}, {&thousand, 0.1, 1}, {&ties, 50, 5},
      {&empty, 50, nan},
  };
  for (const Case& c : cases) {
    const double got = Percentile(*c.samples, c.p);
    if (!same(got, c.want)) {
      return "Percentile(n=" + std::to_string(c.samples->size()) + ", p=" +
             std::to_string(c.p) + ") = " + std::to_string(got) +
             ", want " + std::to_string(c.want);
    }
  }
  if (Median({3, 1, 2}) != 2 || Median({4, 1, 3, 2}) != 2 ||
      !std::isnan(Median({}))) {
    return "Median mismatch";
  }
  return "";
}

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` is 0 for a root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;  // relative to the recorder's origin
  double end_us = 0.0;
};

/// In-memory span store. Each recording thread appends to its own buffer
/// (obtained once with NewBuffer()), so recording takes no lock; buffers are
/// merged and written out after the run. Disabled recorders record nothing
/// and hand out id 0.
class SpanRecorder {
 public:
  using Buffer = std::vector<Span>;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  Clock::time_point origin() const { return origin_; }

  /// A buffer owned by the recorder; stable until the recorder dies.
  Buffer* NewBuffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back(new Buffer());
    buffers_.back()->reserve(1024);
    return buffers_.back().get();
  }
  uint64_t NextRequestId() { return next_request_.fetch_add(1) + 1; }
  uint64_t NextSpanId() { return next_span_.fetch_add(1) + 1; }

  /// Records [start, now) into `buffer` and returns the span id: `id` when
  /// non-zero (a parent that reserved its id before its children ran),
  /// else a fresh one.
  uint64_t Record(Buffer* buffer, const char* name, uint64_t request,
                  uint64_t parent, Clock::time_point start, uint64_t id = 0) {
    if (!enabled_) return 0;
    Span span;
    span.id = id != 0 ? id : NextSpanId();
    span.parent = parent;
    span.request = request;
    span.name = name;
    span.start_us =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    span.end_us = MicrosSince(origin_);
    buffer->push_back(span);
    return span.id;
  }

  size_t NumSpans() const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& b : buffers_) total += b->size();
    return total;
  }

  /// Writes every span as one JSON object per line, ordered by start.
  bool WriteJsonLines(const std::string& path) const {
    std::vector<Span> all;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
    }
    std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
      return a.start_us < b.start_us || (a.start_us == b.start_us && a.id < b.id);
    });
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : all) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   s.start_us, s.end_us);
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;  // guards buffers_ (the vector, not the contents)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Peak resident set of this process so far (VmHWM), in MiB; 0 when
/// procfs is unavailable.
inline double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Aggregate CPU ticks from /proc/stat: all of them, and those the
/// hypervisor gave to other guests (steal). Zeros when unavailable.
struct CpuTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

inline CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// Share of CPU time stolen by the host between two readings, in percent.
inline double StealPercent(const CpuTicks& from, const CpuTicks& to) {
  const unsigned long long total = to.total - from.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

/// One-minute load average; -1 when unavailable.
inline double LoadAverage() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1.0;
  double load = -1.0;
  if (std::fscanf(f, "%lf", &load) != 1) load = -1.0;
  std::fclose(f);
  return load;
}

}  // namespace perfbench

#endif  // SOFOS_PERFBENCH_HARNESS_H_
