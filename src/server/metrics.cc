#include "server/metrics.h"

#include "common/string_util.h"

namespace sofos {
namespace server {

const char* EndpointName(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kQuery:
      return "query";
    case Endpoint::kUpdate:
      return "update";
    case Endpoint::kExplain:
      return "explain";
    case Endpoint::kAnalyze:
      return "analyze";
    case Endpoint::kTrace:
      return "trace";
    case Endpoint::kStats:
      return "stats";
    case Endpoint::kMetrics:
      return "metrics";
    case Endpoint::kHistory:
      return "history";
    case Endpoint::kSlow:
      return "slow";
    case Endpoint::kHttpQuery:
      return "http_query";
    case Endpoint::kNumEndpoints:
      break;
  }
  return "unknown";
}

std::string ServerMetrics::ToJson(const std::string& extra_fields) const {
  std::string out = "{";
  out += "\"endpoints\": {";
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    const EndpointMetrics& ep = endpoints_[i];
    LatencyHistogram::Snapshot snap = ep.latency.TakeSnapshot();
    if (i) out += ", ";
    out += StrFormat(
        "\"%s\": {\"requests\": %llu, \"errors\": %llu, "
        "\"mean_us\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
        "\"p99_us\": %.1f}",
        EndpointName(static_cast<Endpoint>(i)),
        static_cast<unsigned long long>(
            ep.requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            ep.errors.load(std::memory_order_relaxed)),
        snap.MeanMicros(), snap.P50(), snap.P95(), snap.P99());
  }
  out += "}";
  out += StrFormat(
      ", \"admission\": {\"accepted\": %llu, \"rejected\": %llu, "
      "\"queue_depth\": %lld, \"active_sessions\": %lld, "
      "\"protocol_errors\": %llu}",
      static_cast<unsigned long long>(accepted()),
      static_cast<unsigned long long>(rejected()),
      static_cast<long long>(queue_depth()),
      static_cast<long long>(active_sessions()),
      static_cast<unsigned long long>(
          protocol_errors_.load(std::memory_order_relaxed)));
  if (!extra_fields.empty()) {
    out += ", ";
    out += extra_fields;
  }
  out += "}";
  return out;
}

}  // namespace server
}  // namespace sofos
