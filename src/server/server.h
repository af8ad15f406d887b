#ifndef SOFOS_SERVER_SERVER_H_
#define SOFOS_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/engine.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/slow_query_log.h"

namespace sofos {
namespace server {

/// How connections map to threads.
enum class IoMode {
  /// Legacy: each accepted fd occupies one worker for its whole lifetime.
  /// Concurrency = pool size; admission is per *connection*.
  kThreadPerSession,
  /// Default: epoll event-loop threads own the sockets; only parsed
  /// requests hit the worker pool, so idle connections are nearly free
  /// and admission is per *request* (shed with BUSY, connection kept).
  kEventLoop,
};

/// Resolves the SOFOS_IO_MODE environment override ("thread" /
/// "thread_per_session" vs "event" / "event_loop" / "epoll", case
/// insensitive); anything else — including unset — returns `fallback`.
/// Used by the CLI `serve` command and bench_server so CI can run both
/// paths without a rebuild.
IoMode IoModeFromEnv(IoMode fallback);

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back with
  /// port() after Start()).
  uint16_t port = 0;
  /// Concurrently *served* sessions — the size of the session worker pool.
  unsigned max_sessions = 8;
  /// Accepted-but-waiting sessions beyond max_sessions (the admission
  /// queue). In thread-per-session mode, connections arriving past
  /// max_sessions + queue_capacity are rejected with `BUSY retry_ms=...`
  /// and closed; in event-loop mode the same figure caps the in-flight
  /// *requests* the queue model tolerates before its SLO math sheds.
  unsigned queue_capacity = 16;
  /// The retry hint floor for BUSY rejections: the admission controller's
  /// fallback while its model has no data, and the minimum hint for
  /// connection-level rejections (see AdmissionController).
  int busy_retry_ms = 50;

  /// ---- I/O architecture ----

  IoMode io_mode = IoMode::kEventLoop;
  /// Event-loop threads (event mode only). Connections are spread
  /// round-robin; each loop multiplexes its share with epoll.
  unsigned io_threads = 2;
  /// Open-connection cap in event mode (0 = default 4096). Accepts past
  /// the cap get BUSY/503 + close — this bounds fd/buffer usage, not
  /// concurrency; mostly-idle connections below it cost no threads.
  unsigned max_connections = 0;
  /// Queue-model admission tuning (SLO budget, retry clamps, telemetry
  /// window). `servers` and `fallback_retry_ms` are overwritten from
  /// max_sessions / busy_retry_ms at Start().
  AdmissionOptions admission;
  /// Query-result cache; capacity_bytes 0 disables caching entirely.
  ResultCacheOptions cache;
  bool enable_cache = true;
  /// Keep a handle on every published epoch snapshot instead of letting
  /// superseded ones die. Test-only: lets the loopback suite re-answer a
  /// query on the exact epoch a response was served from.
  bool retain_snapshots = false;

  /// ---- Continuous telemetry ----

  /// Run the background telemetry sampler (and keep a history ring) while
  /// serving. Off = HISTORY/`/history` report no data but cost nothing.
  bool enable_telemetry = true;
  /// Seconds between background samples of the metrics registry.
  double sample_period_seconds = 1.0;
  /// Retained samples: 360 at 1 s/sample = a 6-minute sliding window.
  size_t history_capacity = 360;

  /// Serve the HTTP/1.0 observability endpoint (GET /metrics /stats
  /// /history /slow /healthz) on a second loopback listener.
  bool enable_http = true;
  /// HTTP port; 0 picks an ephemeral port (read back with http_port()).
  uint16_t http_port = 0;

  /// Slow-query capture (threshold/rate-limit semantics in
  /// server/slow_query_log.h). threshold_micros <= 0 disables capture.
  SlowQueryOptions slow_query;
};

/// The SOFOS online serving subsystem: a concurrent TCP server speaking the
/// line protocol of server/protocol.h over localhost, plus an HTTP port
/// carrying the observability GETs and the /query JSON adapter.
///
/// Architecture (IoMode::kEventLoop, the default): a small set of epoll
/// event-loop threads own every socket — they accept, frame requests from
/// non-blocking reads, and write responses with EPOLLOUT backpressure.
/// QUERY and HTTP /query requests probe the result cache right there and
/// a hit is answered on the loop thread; misses and every other verb are
/// dispatched to the worker pool (common/thread_pool.h, max_sessions
/// workers). Connection count is therefore decoupled from thread count:
/// thousands of mostly-idle clients cost buffers, not workers. Admission
/// of pool-bound requests is per *request* through an M/M/c queue model
/// (server/admission.h): estimated-wait-over-SLO arrivals get
/// `BUSY retry_ms=<load-derived>` and the connection stays open.
///
/// IoMode::kThreadPerSession keeps the legacy shape — one listener thread
/// admits each connection to a pool worker for its whole lifetime; the
/// bounded in-flight count (max_sessions + queue_capacity) sheds
/// saturated arrivals with BUSY + close. Protocol responses are
/// byte-identical between the modes (asserted test-side); only admission
/// timing and connection capacity differ.
///
/// Serving coexists with updates through the engine's epoch snapshots:
/// QUERY/EXPLAIN sessions resolve SofosEngine::CurrentSnapshot() and run
/// entirely against that immutable read view, while UPDATE requests
/// (serialized by an internal writer mutex — the engine facade is single-
/// writer) mutate the live engine and publish a fresh snapshot. In-flight
/// queries finish on their old epoch; later requests see the new one; no
/// reader ever blocks on a writer.
///
/// On top sit a sharded LRU result cache keyed by (normalized query,
/// epoch) — epoch bumps invalidate implicitly, and the writer eagerly
/// evicts dead epochs after publishing — and per-endpoint SLO metrics
/// (request counts, p50/p95/p99 fixed-bucket latency, cache hit rate,
/// queue depth) served by STATS as one JSON line.
class SofosServer {
 public:
  /// `engine` must outlive the server and hold a loaded, finalized store.
  /// The server becomes the engine's only driver: no other thread may call
  /// engine methods (beyond CurrentSnapshot()) while it is running.
  SofosServer(core::SofosEngine* engine, const ServerOptions& options = {});
  ~SofosServer();  // implies Stop()

  SofosServer(const SofosServer&) = delete;
  SofosServer& operator=(const SofosServer&) = delete;

  /// Binds 127.0.0.1, publishes the initial snapshot, spawns the listener
  /// and the session pool.
  Status Start();

  /// Stops accepting, shuts down live sessions, waits for in-flight work.
  /// Idempotent.
  void Stop();

  bool running() const { return running_; }
  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  /// The bound HTTP observability port (valid after Start() when
  /// options.enable_http; 0 otherwise).
  uint16_t http_port() const { return http_port_; }

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }
  ResultCacheStats CacheStats() const { return cache_.Stats(); }
  /// Drops all cached results (bench_server's cold/warm boundary).
  void ClearCache() { cache_.Clear(); }

  /// Retained snapshot for `epoch` (requires options.retain_snapshots),
  /// or null.
  std::shared_ptr<const core::EngineSnapshot> SnapshotForEpoch(
      uint64_t epoch) const;

  /// Total UPDATE batches applied since Start() (seeds the deterministic
  /// update stream like the CLI's `update` command does).
  uint64_t update_batches_applied() const;

  /// The queue-model admission controller (valid after Start()).
  AdmissionController* admission() { return admission_.get(); }
  /// Live connections: event mode sums the loops' open sockets; thread
  /// mode reports admitted sessions.
  size_t open_connections() const;

  /// The telemetry history (null unless running with enable_telemetry).
  /// Safe to Sample()/Window() from any thread while the server runs.
  TelemetryHistory* telemetry() { return telemetry_.get(); }
  /// Takes one history sample immediately (test hook — lets suites drive
  /// the ring without waiting out the sampler period). No-op when
  /// telemetry is disabled.
  void SampleTelemetryNow();
  /// The HISTORY verb's JSON body: rates/interval percentiles over the
  /// trailing `window_seconds` ({"valid":false,...} when disabled or not
  /// enough samples yet).
  std::string HistoryJson(double window_seconds) const;

  const SlowQueryLog& slow_queries() const { return slow_log_; }

 private:
  /// One executed query in wire-neutral form, shared by the line
  /// protocol's QUERY and the HTTP/JSON adapter so both surfaces hit the
  /// same cache entries, recorder, and slow-query capture.
  struct QueryOutcome {
    bool ok = false;
    std::string error;  // when !ok
    uint64_t rows = 0;
    uint64_t cols = 0;
    uint64_t epoch = 0;
    bool cached = false;
    std::string view = "-";
    double micros = 0.0;
    std::string body;  // FormatQueryBody bytes (TSV)
  };

  void ListenLoop();
  void ServeSession(int fd);
  void HttpListenLoop();
  void ServeHttp(int fd);
  /// The /healthz body; sets *healthy to the admission verdict.
  std::string HealthJson(bool* healthy) const;
  /// The STATS body (shared by the STATS verb and GET /stats).
  std::string StatsJson() const;

  /// ---- Event-loop mode ----

  /// Loop-thread callbacks: frame-level admission + dispatch.
  void OnAccept(int fd, ConnKind kind);
  Reply OnLineRequest(EventLoop* loop, uint64_t conn, std::string line);
  Reply OnHttpRequest(EventLoop* loop, uint64_t conn, HttpRequest request);
  /// The QUERY path shared by the line protocol and HTTP /query (`http`
  /// picks the reply format): probes the result cache on the loop thread
  /// and answers hits — and requests that fail before execution — right
  /// there, with no admission decision and no pool task. A miss goes
  /// through AdmitAndDispatch carrying its probe.
  Reply OnQuery(EventLoop* loop, uint64_t conn, std::string sparql,
                bool http);
  /// Per-request queue-model admission. An admitted request is booked in
  /// flight and `work` runs on the worker pool, its response delivered
  /// through loop->Respond() (closing the connection after HTTP
  /// replies); a shed one is answered on the spot with BUSY / 503.
  Reply AdmitAndDispatch(EventLoop* loop, uint64_t conn, bool http,
                         std::function<std::string()> work);
  /// In-flight dispatched requests (running + queued), the queue-model's
  /// live input.
  size_t InFlightRequests() const;

  /// Runs one parsed non-QUIT request and returns the framed response —
  /// the single execution path both io modes share (byte-identity between
  /// them rests on this). Records endpoint metrics and feeds the
  /// admission controller's service-time EWMA.
  std::string ExecuteRequest(const Request& request);

  /// A QUERY resolved up to and including its single cache lookup. When
  /// `done`, `outcome` is final (a hit, or an error found before
  /// execution); otherwise ExecuteMiss runs the query on `snapshot` and
  /// fills the cache under `key` without a second lookup.
  struct QueryProbe {
    bool done = false;
    QueryOutcome outcome;
    std::shared_ptr<const core::EngineSnapshot> snapshot;
    std::string key;  // empty when caching is off
  };
  /// Resolves the snapshot and looks the query up; a hit also records
  /// its WorkloadRecorder entry. Cheap enough for the loop thread.
  QueryProbe ProbeQuery(const std::string& arg);
  /// Executes a probe that missed: cache fill and slow-query capture.
  QueryOutcome ExecuteMiss(const std::string& arg, const QueryProbe& probe);
  /// ProbeQuery, then ExecuteMiss when it missed.
  QueryOutcome ExecuteQuery(const std::string& arg);
  /// Formats a finished QUERY for its surface (`http`: the /query JSON
  /// adapter, else the line protocol) and meters it on that endpoint with
  /// the time since `timer` started.
  std::string AnswerQuery(bool http, const QueryOutcome& result,
                          const WallTimer& timer);
  /// Books one finished request: the endpoint's request counter and
  /// latency histogram (the admission model's arrival and service-time
  /// inputs) and the admission controller's service-time EWMA.
  void MeterRequest(Endpoint endpoint, double micros, bool ok);

  /// ---- HTTP ----

  /// Full response for the observability GETs (/metrics /stats /history
  /// /slow /healthz, plus 404/405 fallbacks). Never runs engine work.
  std::string HttpObservabilityResponse(const HttpRequest& request);
  /// The /query JSON response for a finished QUERY (200, or 400 with
  /// the error).
  static std::string HttpQueryResponse(const QueryOutcome& result);

  /// Request handlers append "header\n[body...]\nEND\n" to *out.
  void HandleUpdate(const std::string& arg, std::string* out);
  void HandleExplain(const std::string& arg, std::string* out);
  void HandleAnalyze(const std::string& arg, std::string* out);
  void HandleTrace(const std::string& arg, std::string* out);
  void HandleStats(std::string* out);
  void HandleMetrics(std::string* out);
  void HandleHistory(const std::string& arg, std::string* out);
  void HandleSlow(std::string* out);

  /// Slow-query capture: when the observed latency crosses the threshold
  /// (and the rate limit admits), re-runs `arg` once under EXPLAIN
  /// ANALYZE + tracing on `snapshot` and retains the diagnostics.
  void MaybeCaptureSlowQuery(
      const std::shared_ptr<const core::EngineSnapshot>& snapshot,
      const std::string& arg, double observed_micros);

  /// Publishes the engine's current epoch and eagerly invalidates dead
  /// cache entries. When `untouched_views` is non-null, cached answers
  /// routed through those views are first re-keyed to the new epoch
  /// (ResultCache::CarryForward) instead of evicted — the update provably
  /// left their source view unchanged, so the answers are still exact.
  /// Caller must hold update_mu_.
  Status PublishAndInvalidate(
      const std::vector<std::string>* untouched_views = nullptr);

  core::SofosEngine* engine_;
  ServerOptions options_;
  ServerMetrics metrics_;
  ResultCache cache_;
  /// Registry-collector registration bridging the server's bespoke stats
  /// (endpoint SLOs, cache shards) into the engine's MetricsRegistry for
  /// METRICS / STATS. Registered in Start(), unregistered in Stop(); 0 =
  /// not registered.
  uint64_t metrics_collector_id_ = 0;
  /// Session-pool bridge (sofos_pool_*); 0 = not registered.
  uint64_t pool_collector_id_ = 0;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread listener_;
  std::unique_ptr<ThreadPool> pool_;

  /// Queue-model admission (created in Start(), kept across Stop() so
  /// late Stats() reads stay valid).
  std::unique_ptr<AdmissionController> admission_;

  /// Event-loop mode: the loops own every socket (listeners included).
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<unsigned> next_loop_{0};  // round-robin connection placement
  unsigned max_connections_ = 0;        // resolved from options at Start()

  /// HTTP observability listener (second port, own thread, serves each
  /// connection synchronously — deliberately NOT on the session pool so
  /// /healthz stays responsive when the pool is saturated).
  int http_listen_fd_ = -1;
  uint16_t http_port_ = 0;
  std::thread http_listener_;

  /// Telemetry history + background sampler (enable_telemetry).
  std::unique_ptr<TelemetryHistory> telemetry_;
  SlowQueryLog slow_log_;

  /// Serializes every mutating engine entry point (UPDATE handling and
  /// snapshot publication).
  std::mutex update_mu_;
  /// Written only under update_mu_; atomic so STATS and monitoring reads
  /// never block behind a long multi-batch update (readers must not wait
  /// on the writer — the same rule the snapshots enforce for queries).
  std::atomic<uint64_t> update_batches_applied_{0};

  /// Admission bookkeeping. Thread mode: admitted/active *sessions* plus
  /// their fds (so Stop() can unblock recv()). Event mode: in-flight
  /// dispatched *requests* (running + pool-queued) — Stop() drains this
  /// to zero before tearing the loops down.
  mutable std::mutex sessions_mu_;
  std::condition_variable sessions_cv_;
  unsigned admitted_ = 0;  // submitted sessions not yet finished
  unsigned active_ = 0;    // sessions currently on a worker
  unsigned in_flight_requests_ = 0;  // event mode
  std::set<int> session_fds_;

  mutable std::mutex retained_mu_;
  std::map<uint64_t, std::shared_ptr<const core::EngineSnapshot>> retained_;
};

}  // namespace server
}  // namespace sofos

#endif  // SOFOS_SERVER_SERVER_H_
