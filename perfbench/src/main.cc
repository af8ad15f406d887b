// The repo benchmark: one in-process SofosServer (default options,
// ephemeral ports) driven over loopback by generated traffic.
//
//   sofos_perfbench --workload <serve_hot|update_mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Every run sets the deployment up several times (set-up time is a metric),
// serves one workload for --seconds, checks every answer against the base
// graph, and prints one JSON object as its last line. --trace 1 replays the
// same seeded requests with spans recorded around every call and reports
// per-layer figures instead of the end-to-end ones. perfbench/NOTES.md says
// why each workload exists and what each figure should move.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/stat.h>

#include "core/cost_model.h"
#include "core/engine.h"
#include "datagen/registry.h"
#include "harness.h"
#include "net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sparql/parser.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using sofos::core::SofosEngine;
using sofos::server::SofosServer;

// ---- Workload definitions ---------------------------------------------------

constexpr size_t kViews = 3;                // views chosen per deployment
/// Seeds the deployment: the graph (and so the selected views) and the
/// 64-query hot set users click through. --seed drives the traffic: Zipf
/// draws and arrival times. Seeding the graph and the query set per run
/// made the benchmark measure the seed rather than the code (NOTES.md has
/// the figures).
constexpr uint64_t kDeploymentSeed = 42;
constexpr size_t kHotQueries = 64;          // Zipf-drawn query set
constexpr size_t kHotPool = 1024;           // generated; the hot set's source
constexpr double kZipfExponent = 1.0;
constexpr int kSetupReps = 5;               // timed set-ups (after 1 warm-up)
constexpr double kWarmupSeconds = 1.0;      // untimed traffic before a window
constexpr double kUpdateFraction = 0.0005;  // UPDATE 1 <fraction>
constexpr size_t kInprocQueries = 1000;     // traced replay: Answer(q, true)
constexpr size_t kInprocBaseQueries = 200;  // ... of which also Answer(q, false)
constexpr int kVerifyThreads = 4;
constexpr int kOpenSenders = 16;            // open-loop client threads per surface
constexpr size_t kQuietSlice = 100;         // quiet updates per percentile
constexpr int kWindowAttempts = 3;          // see the window loop in Main
constexpr double kMaxStealPct = 3.0;        // calm windows stole 0.2-1.5%
constexpr int kMaxSettleSeconds = 20;       // calm-second wait before a re-run
/// Line QUERY samples a closed-loop reader can hold per window second,
/// 2-3x what one served on a 4-vCPU VM (13-19k/s). Readers are the
/// only senders whose sample count grows with the program's speed, so
/// their storage is sized from this and touched before set-up: peak_rss_mb
/// then carries it as a constant instead of reading a faster server as a
/// larger one.
constexpr double kMaxReaderQps = 40000.0;

struct WorkloadSpec {
  const char* name;
  const char* dataset;
  uint64_t triples;
  /// Closed-loop line-protocol QUERY readers (Zipf over kHotQueries).
  int readers;
  /// A closed-loop HTTP /query client that connects at most once per
  /// `http_pace_us` (0 = none).
  double http_pace_us;
  /// Open loop: Poisson arrivals at this fixed rate (0 = none), each a
  /// Zipf draw from the hot set, every `http_every`-th over HTTP and the
  /// rest over the line protocol, each surface served by a pool of
  /// kOpenSenders client threads.
  double open_rate_qps;
  int http_every;
  /// In-window updater period (0 = none).
  double update_period_ms;
  /// Serial UPDATEs after the window, with no readers (0 = none); their
  /// percentiles are the median over consecutive runs of kQuietSlice.
  int quiet_updates;
  /// The window's query figures are the median over this many equal
  /// slices of it (1 = the whole window), so one disturbed stretch of a
  /// run does not decide its result.
  int slices;
};

// perfbench/NOTES.md gives the reasons behind each figure.
constexpr WorkloadSpec kWorkloads[] = {
    // name, dataset, triples, readers, http_pace_us, open_rate_qps,
    // http_every, update_period_ms, quiet_updates, slices
    {"serve_hot", "lubm", 300000, 2, 1000.0, 0.0, 0, 0.0, 300, 5},
    {"update_mix", "geopop", 100000, 0, 0.0, 1000.0, 4, 250.0, 0, 4},
};

// ---- Seeded randomness (the benchmark's own, independent of src/) ---------

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Uniform01(std::mt19937_64* rng) {
  return static_cast<double>((*rng)() >> 11) * 0x1.0p-53;
}

class Zipf {
 public:
  Zipf(size_t n, double exponent) : cdf_(n) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = acc;
    }
    for (double& v : cdf_) v /= acc;
  }
  size_t Sample(std::mt19937_64* rng) const {
    const double u = Uniform01(rng);
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- Results ----------------------------------------------------------------

enum Op { kQuery = 0, kHttp = 1, kUpdate = 2, kNumOps = 3 };
const char* const kOpNames[] = {"query", "http", "update"};

/// Per-thread samples and counters; merged after the threads join. The
/// io/handler series feed per-layer figures only and are kept only by
/// traced runs.
struct Tally {
  uint64_t attempted[kNumOps] = {0, 0, 0};
  uint64_t failed[kNumOps] = {0, 0, 0};
  uint64_t busy[kNumOps] = {0, 0, 0};
  std::vector<double> query_us;     // line QUERY latency
  std::vector<double> query_at_s;   // its completion, s into the window
  std::vector<double> query_io_us;  // round trip minus header micros=
  std::vector<double> query_handler_us;
  std::vector<double> http_us;
  std::vector<double> http_at_s;
  std::vector<double> http_io_us;
  std::vector<double> update_ms;
  std::vector<double> update_handler_ms;
  std::vector<double> sched_lag_us;  // lateness of scheduled sends

  /// Sizes the untraced line QUERY series for `samples` and touches that
  /// storage, so recording up to it allocates nothing.
  void Reserve(size_t samples) {
    for (std::vector<double>* v : {&query_us, &query_at_s}) {
      v->assign(samples, 0.0);
      v->clear();  // keeps the capacity and its resident pages
    }
  }
  /// Empties every series, keeping its storage, and zeroes the counters.
  void Clear() {
    std::fill(std::begin(attempted), std::end(attempted), 0);
    std::fill(std::begin(failed), std::end(failed), 0);
    std::fill(std::begin(busy), std::end(busy), 0);
    for (std::vector<double>* v : Series()) v->clear();
  }
  void MergeCounts(const Tally& o) {
    for (int i = 0; i < kNumOps; ++i) {
      attempted[i] += o.attempted[i];
      failed[i] += o.failed[i];
      busy[i] += o.busy[i];
    }
  }
  /// Counters and samples; a series this tally does not have yet takes
  /// o's storage instead of copying it.
  void Merge(Tally&& o) {
    MergeCounts(o);
    const auto mine = Series();
    const auto theirs = o.Series();
    for (size_t i = 0; i < mine.size(); ++i) {
      if (mine[i]->empty()) {
        *mine[i] = std::move(*theirs[i]);
      } else {
        mine[i]->insert(mine[i]->end(), theirs[i]->begin(), theirs[i]->end());
      }
    }
  }
  std::vector<std::vector<double>*> Series() {
    return {&query_us,   &query_at_s, &query_io_us, &query_handler_us,
            &http_us,    &http_at_s,  &http_io_us,  &update_ms,
            &update_handler_ms,       &sched_lag_us};
  }
  void Fail(Op op, Outcome outcome) {
    ++failed[op];
    if (outcome == Outcome::kBusy) ++busy[op];
  }
};

/// A served answer kept for verification against the base graph.
struct Captured {
  Op op = kQuery;
  std::string query;
  BodyDigest body;
  uint64_t epoch = 0;
  bool served = false;  // false: the request failed (already counted)
};

/// Progress on stderr, stamped with seconds since the process started.
void Log(const char* what) {
  static const Clock::time_point kStart = Clock::now();
  std::fprintf(stderr, "perfbench: [%7.2fs peak %6.1f MiB] %s\n",
               MicrosSince(kStart) / 1e6, PeakRssMiB(), what);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---- Deployment ---------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0, load_s = 0, profile_s = 0, select_s = 0,
         materialize_s = 0, start_s = 0, total_s = 0;
};

/// Engine plus server; the server is declared last so it stops first.
struct Deployment {
  std::unique_ptr<SofosEngine> engine;
  std::unique_ptr<SofosServer> server;
  SetupTimes times;
  double bytes_per_triple = 0.0;
  double storage_amplification = 0.0;
};

double Seconds(Clock::time_point start) { return MicrosSince(start) / 1e6; }

/// generate + load + profile + select + materialize, each timed (and
/// recorded as a child span of `setup_span` when tracing).
std::unique_ptr<Deployment> BuildEngine(const WorkloadSpec& spec,
                                        SpanRecorder* spans,
                                        SpanRecorder::Buffer* buf,
                                        uint64_t request, uint64_t setup_span) {
  auto d = std::make_unique<Deployment>();
  d->engine = std::make_unique<SofosEngine>();
  SofosEngine* engine = d->engine.get();

  auto t = Clock::now();
  sofos::TripleStore store;
  sofos::datagen::ScaleSpec scale;
  scale.target_triples = spec.triples;
  auto dataset = sofos::datagen::GenerateByName(spec.dataset, scale, kDeploymentSeed,
                                                &store);
  if (!dataset.ok()) Die("datagen: " + dataset.status().ToString());
  d->times.generate_s = Seconds(t);
  spans->Record(buf, "datagen.generate", request, setup_span, t);

  auto facet = sofos::core::Facet::FromSparql(dataset->facet_sparql,
                                              dataset->name, dataset->dim_labels);
  if (!facet.ok()) Die("facet: " + facet.status().ToString());
  t = Clock::now();
  sofos::Status status = engine->LoadStore(std::move(store));
  if (status.ok()) status = engine->SetFacet(std::move(facet).value());
  if (!status.ok()) Die("load: " + status.ToString());
  d->times.load_s = Seconds(t);
  spans->Record(buf, "rdf.load", request, setup_span, t);

  t = Clock::now();
  if (!engine->Profile().ok()) Die("profile failed");
  d->times.profile_s = Seconds(t);
  spans->Record(buf, "core.profile", request, setup_span, t);

  t = Clock::now();
  auto model = engine->MakeModel(sofos::core::CostModelKind::kTripleCount);
  if (!model.ok()) Die("cost model: " + model.status().ToString());
  auto selection = engine->SelectViews(**model, kViews);
  if (!selection.ok()) Die("select: " + selection.status().ToString());
  d->times.select_s = Seconds(t);
  spans->Record(buf, "core.select", request, setup_span, t);

  t = Clock::now();
  auto views = engine->MaterializeSelection(*selection);
  if (!views.ok()) Die("materialize: " + views.status().ToString());
  d->times.materialize_s = Seconds(t);
  spans->Record(buf, "core.materialize", request, setup_span, t);

  d->bytes_per_triple = static_cast<double>(engine->CurrentBytes()) /
                        static_cast<double>(engine->CurrentTriples());
  d->storage_amplification = engine->StorageAmplification();
  return d;
}

void StartServer(Deployment* d, SpanRecorder* spans, SpanRecorder::Buffer* buf,
                 uint64_t request, uint64_t setup_span) {
  const auto t = Clock::now();
  d->server = std::make_unique<SofosServer>(d->engine.get());
  sofos::Status status = d->server->Start();
  if (!status.ok()) Die("server start: " + status.ToString());
  d->times.start_s = Seconds(t);
  spans->Record(buf, "server.start", request, setup_span, t);
}

/// Distinct generated facet queries (deduplicated by text), in generation
/// order. Runs before the server starts: the generator reads the store.
std::vector<sofos::core::WorkloadQuery> GenerateQueries(SofosEngine* engine,
                                                        size_t want,
                                                        uint64_t seed) {
  sofos::workload::WorkloadGenerator generator(&engine->facet(),
                                               engine->store());
  std::set<std::string> seen;
  std::vector<sofos::core::WorkloadQuery> out;
  for (int round = 0; out.size() < want && round < 16; ++round) {
    sofos::workload::WorkloadOptions options;
    options.num_queries = static_cast<int>(want - out.size()) * 2 + 16;
    options.seed = SplitMix(seed * 131 + static_cast<uint64_t>(round));
    auto queries = generator.Generate(options);
    if (!queries.ok()) Die("workload: " + queries.status().ToString());
    for (auto& q : *queries) {
      if (out.size() < want && seen.insert(q.sparql).second) {
        out.push_back(std::move(q));
      }
    }
  }
  if (out.size() < want) {
    Die("only " + std::to_string(out.size()) + " distinct queries of " +
        std::to_string(want));
  }
  return out;
}

/// Builds the Zipf-ranked hot set from a generated pool: one query per
/// query shape (which facet dimensions it groups by and which it filters),
/// shapes ordered coarse to fine — fewer constrained dimensions first, then
/// more filtered first — so rank 0 is the coarsest roll-up, the one a
/// dashboard asks for most. Rounds past the number of shapes take each
/// shape's next query. Ranking in generation order instead let chance
/// decide which expensive shapes carried most of the load.
std::vector<std::string> HotSet(
    const std::vector<sofos::core::WorkloadQuery>& pool, size_t keep) {
  using Shape = std::pair<uint32_t, uint32_t>;  // (group_mask, filter_mask)
  std::map<Shape, std::vector<const std::string*>> by_shape;
  for (const auto& q : pool) {
    by_shape[Shape(q.signature.group_mask, q.signature.filter_mask)].push_back(
        &q.sparql);
  }
  auto rank = [](const Shape& s) {
    const int grouped = __builtin_popcount(s.first);
    const int filtered = __builtin_popcount(s.second);
    return std::make_tuple(grouped + filtered, -filtered, s.first, s.second);
  };
  std::vector<Shape> shapes;
  for (const auto& kv : by_shape) shapes.push_back(kv.first);
  std::sort(shapes.begin(), shapes.end(),
            [&](const Shape& a, const Shape& b) { return rank(a) < rank(b); });
  std::vector<std::string> out;
  for (size_t round = 0, added = 1; out.size() < keep && added > 0; ++round) {
    added = 0;
    for (const Shape& shape : shapes) {
      const auto& queries = by_shape[shape];
      if (out.size() < keep && round < queries.size()) {
        out.push_back(*queries[round]);
        ++added;
      }
    }
  }
  if (out.size() < keep) Die("hot set: too few generated queries");
  return out;
}

// ---- Client loops -----------------------------------------------------------

struct ClientEnv {
  uint16_t port = 0;
  uint16_t http_port = 0;
  SpanRecorder* spans = nullptr;
  Clock::time_point window_start;  // samples are stamped relative to it
};

/// One line QUERY; books the outcome into `tally` (window samples only
/// when `sample`) and returns the reply.
LineReply TimedQuery(const ClientEnv& env, LineClient* client,
                     const std::string& sparql, Tally* tally, bool sample,
                     SpanRecorder::Buffer* buf,
                     Clock::time_point scheduled = Clock::time_point()) {
  const uint64_t request = env.spans->NextRequestId();
  ++tally->attempted[kQuery];
  const auto start = Clock::now();
  LineReply reply = client->Roundtrip("QUERY " + sparql);
  const auto end = Clock::now();
  env.spans->Record(buf, "client.query", request, 0, start);
  if (reply.outcome != Outcome::kOk) {
    tally->Fail(kQuery, reply.outcome);
    if (reply.outcome == Outcome::kTransport) client->Connect(env.port);
    return reply;
  }
  if (!sample) return reply;
  const double rt = std::chrono::duration<double, std::micro>(end - start).count();
  const auto origin = scheduled == Clock::time_point() ? start : scheduled;
  const ReplyFields f = ParseHeaderFields(reply.header);
  tally->query_us.push_back(
      std::chrono::duration<double, std::micro>(end - origin).count());
  tally->query_at_s.push_back(
      std::chrono::duration<double>(end - env.window_start).count());
  if (env.spans->enabled()) {
    tally->query_handler_us.push_back(f.micros);
    tally->query_io_us.push_back(rt - f.micros);
  }
  return reply;
}

HttpReply TimedHttp(const ClientEnv& env, const std::string& sparql,
                    Tally* tally, bool sample, SpanRecorder::Buffer* buf,
                    Clock::time_point scheduled = Clock::time_point()) {
  const uint64_t request = env.spans->NextRequestId();
  ++tally->attempted[kHttp];
  const auto start = Clock::now();
  HttpReply reply = HttpQuery(env.http_port, sparql);
  const auto end = Clock::now();
  env.spans->Record(buf, "client.http_query", request, 0, start);
  if (reply.outcome != Outcome::kOk) {
    tally->Fail(kHttp, reply.outcome);
    return reply;
  }
  if (!sample) return reply;
  const double rt = std::chrono::duration<double, std::micro>(end - start).count();
  const auto origin = scheduled == Clock::time_point() ? start : scheduled;
  tally->http_us.push_back(
      std::chrono::duration<double, std::micro>(end - origin).count());
  tally->http_at_s.push_back(
      std::chrono::duration<double>(end - env.window_start).count());
  if (env.spans->enabled()) tally->http_io_us.push_back(rt - reply.fields.micros);
  return reply;
}

void TimedUpdate(const ClientEnv& env, LineClient* client, Tally* tally,
                 SpanRecorder::Buffer* buf) {
  const uint64_t request = env.spans->NextRequestId();
  ++tally->attempted[kUpdate];
  char command[64];
  std::snprintf(command, sizeof(command), "UPDATE 1 %g", kUpdateFraction);
  const auto start = Clock::now();
  LineReply reply = client->Roundtrip(command);
  const double ms = MicrosSince(start) / 1000.0;
  env.spans->Record(buf, "client.update", request, 0, start);
  if (reply.outcome != Outcome::kOk) {
    tally->Fail(kUpdate, reply.outcome);
    if (reply.outcome == Outcome::kTransport) client->Connect(env.port);
    return;
  }
  tally->update_ms.push_back(ms);
  tally->update_handler_ms.push_back(ParseHeaderFields(reply.header).micros /
                                     1000.0);
}

void SleepUntil(Clock::time_point when) {
  std::this_thread::sleep_until(when);
}

double LagMicros(Clock::time_point scheduled) {
  return std::chrono::duration<double, std::micro>(Clock::now() - scheduled)
      .count();
}

/// An open-loop request sequence: send times (µs from the window start),
/// the query each arrival sends, and its surface.
struct Schedule {
  std::vector<double> at_us;
  std::vector<const std::string*> query;
  std::vector<uint8_t> http;
};

/// Open-loop arrivals per window: the fixed rate times its length.
size_t Arrivals(const WorkloadSpec& spec, double seconds) {
  return static_cast<size_t>(std::llround(spec.open_rate_qps * seconds));
}

/// Poisson arrivals conditioned on their count: Arrivals() send times
/// drawn uniformly over the window, in order, each drawing a hot-set query
/// by Zipf rank; every http_every-th goes over HTTP.
Schedule OpenSchedule(const WorkloadSpec& spec, double seconds, uint64_t seed,
                      const std::vector<std::string>& queries) {
  const size_t n = Arrivals(spec, seconds);
  const size_t every = static_cast<size_t>(spec.http_every);
  std::mt19937_64 rng(SplitMix(seed ^ 0x3000u));
  Schedule s;
  for (size_t i = 0; i < n; ++i) s.at_us.push_back(Uniform01(&rng) * seconds * 1e6);
  std::sort(s.at_us.begin(), s.at_us.end());
  const Zipf zipf(queries.size(), kZipfExponent);
  for (size_t i = 0; i < n; ++i) {
    s.query.push_back(&queries[zipf.Sample(&rng)]);
    s.http.push_back((i % every) == every - 1);
  }
  return s;
}

/// Runs one traffic window from `start` to `deadline`. Thread t books its
/// outcomes into (*tallies)[t], readers first (entries are added as
/// needed, and the caller's reader tallies keep their reserved storage):
///   - closed-loop line readers drawing by Zipf rank from a stream seeded
///     by (seed, reader), so a replay sends the same sequence;
///   - the paced closed-loop HTTP client;
///   - open-loop senders for `schedule` (when non-null): a pool per
///     surface takes arrivals in schedule order, so a slow reply delays
///     later arrivals only when the whole pool is busy, and each request
///     is timed from its scheduled send time, so such a stall is charged;
///   - the fixed-period updater (when `with_updates`).
void RunTraffic(const WorkloadSpec& spec, const ClientEnv& base_env,
                const std::vector<std::string>& queries, uint64_t seed,
                const Schedule* schedule, bool with_updates,
                Clock::time_point start, Clock::time_point deadline,
                bool sample, std::vector<Tally>* tallies) {
  ClientEnv env = base_env;
  env.window_start = start;
  const Zipf zipf(queries.size(), kZipfExponent);
  const int senders = schedule != nullptr ? 2 * kOpenSenders : 0;
  const bool updater = with_updates && spec.update_period_ms > 0;
  const size_t threads = static_cast<size_t>(
      spec.readers + (spec.http_pace_us > 0 ? 1 : 0) + senders + (updater ? 1 : 0));
  if (tallies->size() < threads) tallies->resize(threads);
  std::vector<std::thread> workers;
  size_t slot = 0;

  for (int r = 0; r < spec.readers; ++r) {
    workers.emplace_back([&, r, tally = &(*tallies)[slot++]] {
      SpanRecorder::Buffer* buf = env.spans->NewBuffer();
      std::mt19937_64 rng(SplitMix(seed ^ (0x1000u + static_cast<uint64_t>(r))));
      LineClient client;
      if (!client.Connect(env.port)) {
        tally->attempted[kQuery]++;
        tally->failed[kQuery]++;
        return;
      }
      SleepUntil(start);
      while (Clock::now() < deadline) {
        TimedQuery(env, &client, queries[zipf.Sample(&rng)], tally, sample, buf);
      }
    });
  }
  if (spec.http_pace_us > 0) {
    workers.emplace_back([&, tally = &(*tallies)[slot++]] {
      SpanRecorder::Buffer* buf = env.spans->NewBuffer();
      std::mt19937_64 rng(SplitMix(seed ^ 0x2000u));
      const auto pace = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(spec.http_pace_us));
      auto next = start;
      while (next < deadline) {
        if (Clock::now() < next) {
          SleepUntil(next);
          tally->sched_lag_us.push_back(LagMicros(next));
        }
        const auto sent = Clock::now();
        TimedHttp(env, queries[zipf.Sample(&rng)], tally, sample, buf);
        next = std::max(next + pace, sent + pace);
      }
    });
  }
  std::vector<size_t> lanes[2];  // arrival indices per surface, in order
  for (size_t i = 0; schedule != nullptr && i < schedule->at_us.size(); ++i) {
    lanes[schedule->http[i]].push_back(i);
  }
  std::atomic<size_t> cursor[2] = {{0}, {0}};
  for (int s = 0; s < senders; ++s) {
    workers.emplace_back([&, s, tally = &(*tallies)[slot++]] {
      SpanRecorder::Buffer* buf = env.spans->NewBuffer();
      const uint8_t http = s % 2;
      LineClient client;
      if (!http && !client.Connect(env.port)) {
        tally->attempted[kQuery]++;
        tally->failed[kQuery]++;
        return;
      }
      for (size_t k; (k = cursor[http].fetch_add(1)) < lanes[http].size();) {
        const size_t i = lanes[http][k];
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(
                            schedule->at_us[i]));
        SleepUntil(scheduled);
        tally->sched_lag_us.push_back(LagMicros(scheduled));
        const std::string& q = *schedule->query[i];
        if (http) {
          TimedHttp(env, q, tally, sample, buf, scheduled);
        } else {
          TimedQuery(env, &client, q, tally, sample, buf, scheduled);
        }
      }
    });
  }
  if (updater) {
    workers.emplace_back([&, tally = &(*tallies)[slot++]] {
      SpanRecorder::Buffer* buf = env.spans->NewBuffer();
      LineClient client;
      if (!client.Connect(env.port)) {
        tally->attempted[kUpdate]++;
        tally->failed[kUpdate]++;
        return;
      }
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(spec.update_period_ms));
      for (auto tick = start; tick < deadline; tick += period) {
        SleepUntil(tick);
        tally->sched_lag_us.push_back(LagMicros(tick));
        TimedUpdate(env, &client, tally, buf);
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Moves per-thread tallies into one. Appending allocates, so a caller
/// reads peak RSS before this.
Tally Combine(std::vector<Tally>* parts) {
  Tally all;
  for (Tally& t : *parts) all.Merge(std::move(t));
  parts->clear();
  return all;
}

/// Sends every query once over the line protocol and once over HTTP,
/// serially, keeping the bodies for verification (outside any window).
void CaptureAll(const ClientEnv& env, const std::vector<std::string>& queries,
                Tally* tally, std::vector<Captured>* captured) {
  SpanRecorder::Buffer* buf = env.spans->NewBuffer();
  LineClient client;
  if (!client.Connect(env.port)) Die("connect failed");
  for (const std::string& q : queries) {
    LineReply line = TimedQuery(env, &client, q, tally, false, buf);
    captured->push_back({kQuery, q, DigestBody(line.body),
                         ParseHeaderFields(line.header).epoch,
                         line.outcome == Outcome::kOk});
    HttpReply http = TimedHttp(env, q, tally, false, buf);
    captured->push_back({kHttp, q, DigestBody(http.body), http.fields.epoch,
                         http.outcome == Outcome::kOk});
  }
}

/// Checks each served body against FormatQueryBody(Answer(q, false)) on
/// `snapshot`, as row multisets (DigestBody). Every mismatch, a body served
/// from another epoch included, is booked as a failed operation. Returns
/// the number of mismatches.
uint64_t Verify(const sofos::core::EngineSnapshot& snapshot,
                const std::vector<Captured>& captured, Tally* tally) {
  std::map<std::string, std::vector<size_t>> by_query;
  for (size_t i = 0; i < captured.size(); ++i) {
    if (captured[i].served) by_query[captured[i].query].push_back(i);
  }
  std::vector<const std::string*> keys;
  for (const auto& kv : by_query) keys.push_back(&kv.first);
  std::vector<uint8_t> bad(captured.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kVerifyThreads; ++w) {
    workers.emplace_back([&] {
      for (size_t k; (k = next.fetch_add(1)) < keys.size();) {
        const std::string& q = *keys[k];
        auto base = snapshot.Answer(q, /*allow_views=*/false);
        const BodyDigest want =
            base.ok() ? DigestBody(sofos::server::FormatQueryBody(base->result))
                      : BodyDigest();
        for (size_t i : by_query.at(q)) {
          const Captured& c = captured[i];
          if (!base.ok() || c.epoch != snapshot.epoch() || c.body != want) {
            bad[i] = 1;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  uint64_t mismatches = 0;
  for (size_t i = 0; i < captured.size(); ++i) {
    if (bad[i]) {
      ++mismatches;
      ++tally->failed[captured[i].op];
      if (mismatches <= 3) {
        std::fprintf(stderr, "perfbench: wrong answer (%s, epoch %llu): %s\n",
                     kOpNames[captured[i].op],
                     static_cast<unsigned long long>(captured[i].epoch),
                     captured[i].query.c_str());
      }
    }
  }
  return mismatches;
}

// ---- Traced in-process replay -------------------------------------------------

struct InprocFigures {
  std::vector<double> parse_us, answer_us, exec_us, route_us, format_us;
  std::vector<double> base_us;
  double views_sum_us = 0.0;  // Answer(q, true) over the base-timed prefix
  double base_sum_us = 0.0;
  uint64_t used_view = 0, answered = 0;
  uint64_t rows_scanned = 0, result_rows = 0;
  std::vector<double> update_stream_ms, apply_ms, root_query_ms, merge_ms,
      delta_bindings, publish_ms;
};

/// Times the query layers on `snapshot` for `requests` (serial, no server
/// running): parse, Answer(q, true), FormatQueryBody, and Answer(q, false)
/// on a prefix.
void ReplayQueries(const sofos::core::EngineSnapshot& snapshot,
                   const std::vector<std::string>& requests,
                   SpanRecorder* spans, InprocFigures* fig) {
  SpanRecorder::Buffer* buf = spans->NewBuffer();
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::string& q = requests[i];
    const uint64_t request = spans->NextRequestId();
    const uint64_t root = spans->NextSpanId();
    const auto t0 = Clock::now();

    auto t = Clock::now();
    auto parsed = sofos::sparql::Parser::Parse(q);
    const double parse_us = MicrosSince(t);
    spans->Record(buf, "sparql.parse", request, root, t);
    if (!parsed.ok()) Die("parse: " + parsed.status().ToString());

    t = Clock::now();
    auto outcome = snapshot.Answer(q, /*allow_views=*/true);
    const double answer_us = MicrosSince(t);
    spans->Record(buf, "core.answer", request, root, t);
    if (!outcome.ok()) Die("answer: " + outcome.status().ToString());

    t = Clock::now();
    std::string body = sofos::server::FormatQueryBody(outcome->result);
    fig->format_us.push_back(MicrosSince(t));
    spans->Record(buf, "server.format_body", request, root, t);

    fig->parse_us.push_back(parse_us);
    fig->answer_us.push_back(answer_us);
    fig->exec_us.push_back(outcome->micros);
    fig->route_us.push_back(answer_us - parse_us - outcome->micros);
    ++fig->answered;
    if (outcome->used_view) ++fig->used_view;
    fig->rows_scanned += outcome->rows_scanned;
    fig->result_rows += outcome->result_rows;

    if (i < kInprocBaseQueries) {
      t = Clock::now();
      auto base = snapshot.Answer(q, /*allow_views=*/false);
      const double base_us = MicrosSince(t);
      spans->Record(buf, "core.answer_base", request, root, t);
      if (!base.ok()) Die("answer base: " + base.status().ToString());
      fig->base_us.push_back(base_us);
      fig->base_sum_us += base_us;
      fig->views_sum_us += answer_us;
    }
    spans->Record(buf, "inproc.query", request, 0, t0, root);
  }
}

/// Replays the server's update sequence (UPDATE k uses stream seed 99 + k,
/// as SofosServer::HandleUpdate does) on a freshly built engine.
void ReplayUpdates(SofosEngine* engine, uint64_t count, SpanRecorder* spans,
                   InprocFigures* fig) {
  SpanRecorder::Buffer* buf = spans->NewBuffer();
  if (!engine->PublishSnapshot().ok()) Die("initial publish failed");
  for (uint64_t k = 0; k < count; ++k) {
    const uint64_t request = spans->NextRequestId();
    const uint64_t root = spans->NextSpanId();
    const auto t0 = Clock::now();

    sofos::workload::UpdateStreamOptions options;
    options.num_batches = 1;
    options.batch_fraction = kUpdateFraction;
    options.seed = 99 + k;
    auto t = Clock::now();
    auto stream = sofos::workload::GenerateUpdateStream(
        engine->base_snapshot(), engine->store()->dictionary(), options);
    fig->update_stream_ms.push_back(MicrosSince(t) / 1000.0);
    spans->Record(buf, "workload.update_stream", request, root, t);
    if (!stream.ok() || stream->size() != 1) Die("update stream failed");

    t = Clock::now();
    auto applied = engine->ApplyUpdates(stream->front());
    fig->apply_ms.push_back(MicrosSince(t) / 1000.0);
    spans->Record(buf, "maintenance.apply", request, root, t);
    if (!applied.ok()) Die("apply: " + applied.status().ToString());
    fig->root_query_ms.push_back(applied->maintenance.root_query_micros / 1000.0);
    fig->merge_ms.push_back(applied->maintenance.merge_micros / 1000.0);
    fig->delta_bindings.push_back(
        static_cast<double>(applied->maintenance.delta_bindings));

    t = Clock::now();
    if (!engine->PublishSnapshot().ok()) Die("publish failed");
    fig->publish_ms.push_back(MicrosSince(t) / 1000.0);
    spans->Record(buf, "core.publish", request, root, t);
    spans->Record(buf, "inproc.update", request, 0, t0, root);
  }
}

// ---- Output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over `slices` equal slices of a `window_s` window of `stat`
/// applied to each slice's samples (`at_s`: completion time of sample i).
/// `stat` receives the slice's values and its length in seconds.
template <typename Stat>
double SliceMedian(const std::vector<double>& values,
                   const std::vector<double>& at_s, double window_s,
                   int slices, Stat stat) {
  const double len = window_s / slices;
  std::vector<std::vector<double>> parts(static_cast<size_t>(slices));
  for (size_t i = 0; i < values.size(); ++i) {
    const int k = std::min(slices - 1, static_cast<int>(at_s[i] / len));
    parts[static_cast<size_t>(std::max(k, 0))].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (auto& part : parts) per_slice.push_back(stat(std::move(part), len));
  return Median(per_slice);
}

// ---- Main -------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  const std::string helper_error = CheckPercentileHelper();
  if (!helper_error.empty()) Die("percentile helper: " + helper_error);

  Log("start");
  const double load_start = LoadAverage();
  SpanRecorder spans(args.trace);
  SpanRecorder::Buffer* setup_buf = spans.NewBuffer();
  Tally tally;  // counts of every operation of the run, timed or not
  // The window's per-thread tallies, readers first. The readers' storage
  // is reserved here, before set-up, so it is the same in every run.
  std::vector<Tally> window_parts(static_cast<size_t>(spec->readers));
  for (Tally& t : window_parts) {
    t.Reserve(static_cast<size_t>(kMaxReaderQps * args.seconds));
  }
  std::string rss_log;  // peak RSS after each phase, for the context line
  auto note_rss = [&](const char* phase) {
    char note[48];
    std::snprintf(note, sizeof(note), "%s\"%s\": %.1f", rss_log.empty() ? "" : ", ",
                  phase, PeakRssMiB());
    rss_log += note;
    Log((std::string(phase) + " done").c_str());
  };

  // Set-up, repeated: one untimed warm-up, then kSetupReps timed ones; the
  // last one serves. The median damps the first-run-is-slowest effect.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> live;
  std::vector<std::string> queries;  // the hot set
  const bool open_loop = spec->open_rate_qps > 0;
  for (int rep = 0; rep <= kSetupReps; ++rep) {
    live.reset();
    const uint64_t request = spans.NextRequestId();
    const uint64_t root = spans.NextSpanId();
    const auto t0 = Clock::now();
    live = BuildEngine(*spec, &spans, setup_buf, request, root);
    const double build_s = Seconds(t0);
    if (rep == kSetupReps) {  // untimed: the generator reads the store
      queries = HotSet(
          GenerateQueries(live->engine.get(), kHotPool, kDeploymentSeed),
          kHotQueries);
    }
    StartServer(live.get(), &spans, setup_buf, request, root);
    spans.Record(setup_buf, "setup", request, 0, t0, root);
    live->times.total_s = build_s + live->times.start_s;
    if (rep > 0) setups.push_back(live->times);
  }
  note_rss("set-up");
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };

  ClientEnv env;
  env.port = live->server->port();
  env.http_port = live->server->http_port();
  env.spans = &spans;
  SpanRecorder untraced(false);
  ClientEnv quiet_env = env;  // the untimed phases record no spans
  quiet_env.spans = &untraced;

  // Untimed traffic without updates: the warm-up, and the wait for a calm
  // host before a window is re-run. Returns the share of CPU time the
  // hypervisor stole meanwhile (idle vCPUs show no steal, hence traffic).
  const Schedule warm_schedule =
      open_loop ? OpenSchedule(*spec, kWarmupSeconds, args.seed ^ 0xabcdu, queries)
                : Schedule();
  auto untimed_traffic = [&] {
    const CpuTicks ticks = ReadCpuTicks();
    const auto start = Clock::now() + std::chrono::milliseconds(10);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWarmupSeconds));
    std::vector<Tally> parts;
    RunTraffic(*spec, quiet_env, queries, args.seed ^ 0xabcdu,
               open_loop ? &warm_schedule : nullptr, false, start, end, false,
               &parts);
    for (const Tally& t : parts) tally.MergeCounts(t);
    return StealPercent(ticks, ReadCpuTicks());
  };

  // Warm-up: every query's first served bodies, verified at once on the
  // epoch that served them, then a short run that settles the cache and
  // the threads.
  uint64_t mismatches = 0;
  {
    std::vector<Captured> first;
    CaptureAll(quiet_env, queries, &tally, &first);
    mismatches += Verify(*live->engine->CurrentSnapshot(), first, &tally);
    untimed_traffic();
  }
  note_rss("warm-up");

  // The measured window. A traced run first repeats it untraced on the same
  // deployment, so the tracing overhead is measured, not assumed.
  const Schedule schedule =
      open_loop ? OpenSchedule(*spec, args.seconds, args.seed, queries) : Schedule();
  auto run_window = [&](const ClientEnv& e) {
    for (Tally& t : window_parts) t.Clear();
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    RunTraffic(*spec, e, queries, args.seed, open_loop ? &schedule : nullptr,
               true, start, deadline, true, &window_parts);
    for (const Tally& t : window_parts) tally.MergeCounts(t);
    return std::max(Seconds(start), args.seconds);
  };
  double untraced_p50 = 0.0;
  if (args.trace) {
    run_window(quiet_env);
    std::vector<double> all;
    for (const Tally& t : window_parts) {
      all.insert(all.end(), t.query_us.begin(), t.query_us.end());
    }
    untraced_p50 = Percentile(std::move(all), 50);
  }
  // A window during which the hypervisor stole more than kMaxStealPct of
  // the CPU measures the neighbours, not the program. Such stretches last
  // a minute or two, so before a re-run untimed traffic goes on, second by
  // second, until one second is calm (at most kMaxSettleSeconds); the last
  // attempt is kept, and every operation of each counts. Peak RSS is read
  // before the samples are merged, because merging allocates; the readers'
  // storage is reused, not grown.
  sofos::server::ResultCacheStats cache_before, cache_after;
  double window_s = 0.0;
  std::string steal_log;
  for (int attempt = 0; attempt < kWindowAttempts; ++attempt) {
    if (attempt > 0) {
      Log("window disturbed by host steal; waiting for a calm second");
      for (int i = 0; i < kMaxSettleSeconds; ++i) {
        if (untimed_traffic() <= kMaxStealPct) break;
      }
    }
    cache_before = live->server->CacheStats();
    const CpuTicks ticks = ReadCpuTicks();
    window_s = run_window(env);
    const double steal = StealPercent(ticks, ReadCpuTicks());
    cache_after = live->server->CacheStats();
    char note[32];
    std::snprintf(note, sizeof(note), "%s%.2f", attempt ? ", " : "", steal);
    steal_log += note;
    if (steal <= kMaxStealPct) break;
  }
  const double peak_rss_mb = PeakRssMiB();
  note_rss("window");
  // Share of the readers' reserved storage the busiest one used; past 1 its
  // samples outgrew the reservation and peak_rss_mb grew with them.
  double reader_fill = 0.0;
  for (size_t r = 0; r < static_cast<size_t>(spec->readers); ++r) {
    reader_fill = std::max(reader_fill, window_parts[r].query_us.size() /
                                            (kMaxReaderQps * args.seconds));
  }
  if (reader_fill > 1.0) Log("reader samples outgrew kMaxReaderQps; raise it");
  Tally window = Combine(&window_parts);

  // Verification, outside the window. update_mix re-verifies every query
  // on the epoch its last UPDATE published.
  if (spec->update_period_ms > 0) {
    std::vector<Captured> last;
    CaptureAll(quiet_env, queries, &tally, &last);
    mismatches += Verify(*live->engine->CurrentSnapshot(), last, &tally);
  }
  Log("verification done");

  // Quiet update phase (serve_hot): visibility latency of the same UPDATE
  // with no readers, so every workload reports it.
  if (spec->quiet_updates > 0) {
    SpanRecorder::Buffer* buf = spans.NewBuffer();
    LineClient client;
    if (!client.Connect(env.port)) Die("connect failed");
    Tally quiet;
    for (int i = 0; i < spec->quiet_updates; ++i) {
      TimedUpdate(env, &client, &quiet, buf);
    }
    tally.MergeCounts(quiet);
    window.update_ms = std::move(quiet.update_ms);
    window.update_handler_ms = std::move(quiet.update_handler_ms);
  }
  Log("updates done");
  const uint64_t updates_applied = live->server->update_batches_applied();
  live->server->Stop();
  const double bytes_per_triple = live->bytes_per_triple;
  const double storage_amplification = live->storage_amplification;

  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double lookups =
      hits + static_cast<double>(cache_after.misses - cache_before.misses);
  std::vector<Metric> metrics;
  std::vector<Metric> tails;  // --trace 0 only
  std::string trace_path;
  if (args.trace) {
    InprocFigures fig;
    {
      // Query layers on the final snapshot, over the seeded request
      // sequence the first reader (or the open loop) sent.
      std::vector<std::string> requests;
      if (open_loop) {
        for (size_t i = 0; i < kInprocQueries; ++i) {
          requests.push_back(*schedule.query[i % schedule.query.size()]);
        }
      } else {
        const Zipf zipf(queries.size(), kZipfExponent);
        std::mt19937_64 rng(SplitMix(args.seed ^ 0x1000u));
        for (size_t i = 0; i < kInprocQueries; ++i) {
          requests.push_back(queries[zipf.Sample(&rng)]);
        }
      }
      ReplayQueries(*live->engine->CurrentSnapshot(), requests, &spans, &fig);
    }
    live.reset();
    {
      // Update layers: the server's update sequence on a fresh engine.
      SpanRecorder::Buffer* buf = spans.NewBuffer();
      auto fresh =
          BuildEngine(*spec, &spans, buf, spans.NextRequestId(), 0);
      ReplayUpdates(fresh->engine.get(), updates_applied, &spans, &fig);
    }
    const double traced_p50 = Percentile(window.query_us, 50);
    const double sends = static_cast<double>(
        window.attempted[kQuery] + window.attempted[kHttp] +
        window.attempted[kUpdate]);
    metrics = {
        {"datagen.generate_s", median_of(&SetupTimes::generate_s), "s"},
        {"rdf.load_s", median_of(&SetupTimes::load_s), "s"},
        {"rdf.bytes_per_triple", bytes_per_triple, "B"},
        {"core.profile_s", median_of(&SetupTimes::profile_s), "s"},
        {"core.select_s", median_of(&SetupTimes::select_s), "s"},
        {"core.materialize_s", median_of(&SetupTimes::materialize_s), "s"},
        {"core.storage_amplification", storage_amplification, "ratio"},
        {"server.start_s", median_of(&SetupTimes::start_s), "s"},
        {"server.handler_us_p50", Percentile(window.query_handler_us, 50), "us"},
        {"server.io_us_p50", Percentile(window.query_io_us, 50), "us"},
        {"server.http_io_us_p50", Percentile(window.http_io_us, 50), "us"},
        {"server.cache_hit_ratio", SafeRatio(hits, lookups), "ratio"},
        {"server.cache_invalidations",
         static_cast<double>(cache_after.invalidations - cache_before.invalidations),
         "count"},
        {"server.cache_carried_forward",
         static_cast<double>(cache_after.carried_forward -
                             cache_before.carried_forward),
         "count"},
        {"server.busy_ratio",
         SafeRatio(static_cast<double>(window.busy[kQuery] + window.busy[kHttp] +
                                       window.busy[kUpdate]),
                   sends),
         "ratio"},
        {"server.format_body_us_p50", Percentile(fig.format_us, 50), "us"},
        {"server.update_handler_ms_p50", Percentile(window.update_handler_ms, 50),
         "ms"},
        {"sparql.parse_us_p50", Percentile(fig.parse_us, 50), "us"},
        {"sparql.exec_us_p50", Percentile(fig.exec_us, 50), "us"},
        {"sparql.exec_us_p99", Percentile(fig.exec_us, 99), "us"},
        {"core.answer_us_p50", Percentile(fig.answer_us, 50), "us"},
        {"core.answer_us_p99", Percentile(fig.answer_us, 99), "us"},
        {"core.route_us_p50", Percentile(fig.route_us, 50), "us"},
        {"core.answer_base_us_p50", Percentile(fig.base_us, 50), "us"},
        {"core.view_speedup", SafeRatio(fig.base_sum_us, fig.views_sum_us), "x"},
        {"core.view_hit_ratio",
         SafeRatio(static_cast<double>(fig.used_view),
                   static_cast<double>(fig.answered)),
         "ratio"},
        {"core.rows_scanned_per_result",
         SafeRatio(static_cast<double>(fig.rows_scanned),
                   static_cast<double>(fig.result_rows)),
         "ratio"},
        {"workload.update_stream_ms_p50", Percentile(fig.update_stream_ms, 50),
         "ms"},
        {"maintenance.apply_ms_p50", Percentile(fig.apply_ms, 50), "ms"},
        {"maintenance.root_query_ms_p50", Percentile(fig.root_query_ms, 50), "ms"},
        {"maintenance.merge_ms_p50", Percentile(fig.merge_ms, 50), "ms"},
        {"maintenance.delta_bindings", Median(fig.delta_bindings), "count"},
        {"core.publish_ms_p50", Percentile(fig.publish_ms, 50), "ms"},
        {"bench.sched_lag_us_p99", Percentile(window.sched_lag_us, 99), "us"},
        {"bench.trace_overhead_pct",
         100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"},
    };
    ::mkdir(".bench_trace", 0755);
    trace_path = std::string(".bench_trace/") + spec->name + ".spans.jsonl";
    if (!spans.WriteJsonLines(trace_path)) Die("cannot write " + trace_path);
  }

  uint64_t attempted = 0, failed = 0;
  for (int op = 0; op < kNumOps; ++op) {
    attempted += tally.attempted[op];
    failed += tally.failed[op];
  }
  if (!args.trace) {
    auto sliced = [&](const std::vector<double>& values,
                      const std::vector<double>& at_s, auto stat) {
      return SliceMedian(values, at_s, window_s, spec->slices, stat);
    };
    auto p50 = [](std::vector<double> v, double) { return Percentile(v, 50); };
    auto p99 = [](std::vector<double> v, double) { return Percentile(v, 99); };
    auto rate = [](std::vector<double> v, double len) { return v.size() / len; };
    // Quiet phase: median over consecutive runs of kQuietSlice updates, so a
    // stretch of host contention does not decide the tail.
    auto update_pct = [&](double p) {
      const std::vector<double>& u = window.update_ms;
      if (spec->quiet_updates == 0) return Percentile(u, p);
      std::vector<double> per_slice;
      for (size_t i = 0; i + kQuietSlice <= u.size(); i += kQuietSlice) {
        per_slice.push_back(Percentile(
            std::vector<double>(u.begin() + i, u.begin() + i + kQuietSlice), p));
      }
      return Median(per_slice);
    };
    std::vector<double> served = window.query_us, served_at_s = window.query_at_s;
    served.insert(served.end(), window.http_us.begin(), window.http_us.end());
    served_at_s.insert(served_at_s.end(), window.http_at_s.begin(),
                       window.http_at_s.end());
    metrics = {
        {"setup_s", median_of(&SetupTimes::total_s), "s"},
        {"query_p50_us", sliced(window.query_us, window.query_at_s, p50), "us"},
        {"qps", sliced(served, served_at_s, rate), "1/s"},
        {"http_query_p50_us", sliced(window.http_us, window.http_at_s, p50), "us"},
        {"update_p50_ms", update_pct(50), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"ok_ratio",
         1.0 - SafeRatio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
         "ratio"},
    };
    // The tails are printed, not gated: their spread between runs on a
    // shared host exceeded the largest bound the benchmark may set
    // (perfbench/NOTES.md).
    tails = {
        {"query_p99_us", sliced(window.query_us, window.query_at_s, p99), "us"},
        {"http_query_p99_us", sliced(window.http_us, window.http_at_s, p99), "us"},
        {"update_p90_ms", update_pct(90), "ms"},
    };
  }

  // A reported figure without enough samples behind it is a benchmark
  // defect, not a number: it fails the run. A tail without them is left
  // out (update_mix sends 80 updates, and a p90 needs 100).
  bool reportable = true;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s has too few samples\n", m.name.c_str());
      reportable = false;
      m.value = -1.0;
    }
  }

  // Run context, next to the metrics.
  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"hardware_concurrency\": %u, "
              "\"loadavg_start\": %.2f, \"loadavg_end\": %.2f, "
              "\"window_steal_pct\": [%s], \"window_s\": %.3f, "
              "\"window_cache_hit_ratio\": %.4f, \"peak_rss_mib_after\": {%s}, "
              "\"reader_storage_used\": %.3f, "
              "\"samples\": {\"query\": %zu, \"http\": %zu, "
              "\"update\": %zu, \"sched\": %zu}, \"mismatches\": %llu, "
              "\"spans\": %zu, \"trace_file\": \"%s\"}\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), load_start, LoadAverage(),
              steal_log.c_str(), window_s, SafeRatio(hits, lookups), rss_log.c_str(),
              reader_fill,
              window.query_us.size(), window.http_us.size(),
              window.update_ms.size(), window.sched_lag_us.size(),
              static_cast<unsigned long long>(mismatches), spans.NumSpans(),
              trace_path.c_str());
  for (int op = 0; op < kNumOps; ++op) {
    std::printf("ops: %-6s attempted=%llu failed=%llu busy=%llu\n", kOpNames[op],
                static_cast<unsigned long long>(tally.attempted[op]),
                static_cast<unsigned long long>(tally.failed[op]),
                static_cast<unsigned long long>(tally.busy[op]));
  }
  for (const Metric& m : tails) {
    if (std::isfinite(m.value)) {
      std::printf("  %-36s %16.4f %s (not gated)\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-36s %16s (not gated)\n", m.name.c_str(), "too few samples");
    }
  }
  const bool correct = failed == 0 && mismatches == 0 && reportable;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
