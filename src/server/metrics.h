#ifndef SOFOS_SERVER_METRICS_H_
#define SOFOS_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "common/latency_histogram.h"

namespace sofos {
namespace server {

/// The protocol verbs the server meters individually.
enum class Endpoint : int {
  kQuery = 0,
  kUpdate,
  kExplain,
  kAnalyze,
  kTrace,
  kStats,
  kMetrics,
  kHistory,
  kSlow,
  /// The HTTP/JSON query adapter (GET/POST /query) — metered separately
  /// from the line-protocol QUERY verb so the two serving surfaces get
  /// independent SLO figures.
  kHttpQuery,
  kNumEndpoints,
};

const char* EndpointName(Endpoint endpoint);

/// Counters + latency distribution for one endpoint. All members are
/// touched with relaxed atomics: any thread may record, any thread may
/// snapshot, figures are statistically consistent (never torn, possibly a
/// few samples apart across fields).
struct EndpointMetrics {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  LatencyHistogram latency;

  void Record(double micros, bool ok) {
    requests.fetch_add(1, std::memory_order_relaxed);
    if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
    latency.Record(micros);
  }
};

/// Server-wide observability state: per-endpoint request counters and
/// p50/p95/p99 latency (fixed-bucket histograms), loop-thread cache hits,
/// admission-queue depth, and rejection counters. Result-cache hit and
/// miss counts live in ResultCache::Stats() alone.
class ServerMetrics {
 public:
  EndpointMetrics& ForEndpoint(Endpoint endpoint) {
    return endpoints_[static_cast<size_t>(endpoint)];
  }
  const EndpointMetrics& ForEndpoint(Endpoint endpoint) const {
    return endpoints_[static_cast<size_t>(endpoint)];
  }

  /// A result-cache hit answered on an event-loop thread (no pool task).
  void RecordLoopCacheHit() {
    loop_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void RecordAccepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void RecordProtocolError() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  void SetQueueDepth(int64_t depth) {
    queue_depth_.store(depth, std::memory_order_relaxed);
  }
  void SetActiveSessions(int64_t sessions) {
    active_sessions_.store(sessions, std::memory_order_relaxed);
  }

  uint64_t loop_cache_hits() const {
    return loop_cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  int64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  int64_t active_sessions() const {
    return active_sessions_.load(std::memory_order_relaxed);
  }

  /// One-line JSON object with every figure above plus `extra_fields`
  /// (pre-rendered `"key": value` pairs injected verbatim, e.g. the
  /// server's epoch and cache byte counts). The STATS response body.
  std::string ToJson(const std::string& extra_fields = "") const;

 private:
  std::array<EndpointMetrics, static_cast<size_t>(Endpoint::kNumEndpoints)>
      endpoints_;
  std::atomic<uint64_t> loop_cache_hits_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<int64_t> active_sessions_{0};
};

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_METRICS_H_
