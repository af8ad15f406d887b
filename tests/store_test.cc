/// Tests for the sharded copy-on-write TripleStore:
///   - shard invariance: Scan() byte-identity, statistics, query answers,
///     Explain output, and maintenance blank labels across
///     shard_count ∈ {1, 2, 8} on every bundled dataset
///   - COW aliasing: Clone() shares every shard; ApplyDelta() replaces
///     exactly the delta-touched shards and leaves clones byte-stable
///   - repartitioning via SetShardCount and the shared-dictionary contract

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "tests/core_test_util.h"
#include "tests/test_util.h"
#include "workload/generator.h"

namespace sofos {
namespace {

using core::maintenance::GraphDelta;
using core::maintenance::TermTriple;
using testing::ExpectSameAnswers;

Term Iri(const std::string& s) { return Term::Iri("http://t/" + s); }

/// A random but deterministic graph used by the store-level tests.
void BuildRandomGraph(TripleStore* store, uint64_t seed, int n = 400) {
  Rng rng(seed);
  const int kSubjects = 40, kPredicates = 7, kObjects = 25;
  for (int i = 0; i < n; ++i) {
    store->Add(Iri("s" + std::to_string(rng.Uniform(kSubjects))),
               Iri("p" + std::to_string(rng.Uniform(kPredicates))),
               Iri("o" + std::to_string(rng.Uniform(kObjects))));
  }
  store->Finalize();
}

/// Exact (order-preserving) byte image of a scan: the id triples in the
/// order the range returns them.
std::vector<std::tuple<TermId, TermId, TermId>> ScanImage(
    const TripleStore& store, TermId s, TermId p, TermId o) {
  std::vector<std::tuple<TermId, TermId, TermId>> out;
  for (const Triple& t : store.Scan(s, p, o)) out.emplace_back(t.s, t.p, t.o);
  return out;
}

TEST(ShardInvarianceTest, ScanByteIdentityAcrossShardCounts) {
  TripleStore reference;
  BuildRandomGraph(&reference, 42);
  ASSERT_EQ(reference.shard_count(), 1u);

  for (size_t shards : {2u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shards));
    TripleStore sharded;
    sharded.SetShardCount(shards);
    BuildRandomGraph(&sharded, 42);  // same dictionary ids: same build order
    EXPECT_EQ(sharded.shard_count(), shards);

    const auto& all = reference.triples();
    ASSERT_EQ(sharded.triples().size(), all.size());
    // Every bound/unbound combination, exact order included.
    Rng rng(7);
    for (int trial = 0; trial < 80; ++trial) {
      uint64_t mask = rng.Uniform(8);
      TermId s = (mask & 1) ? all[rng.Uniform(all.size())].s : kNullTermId;
      TermId p = (mask & 2) ? all[rng.Uniform(all.size())].p : kNullTermId;
      TermId o = (mask & 4) ? all[rng.Uniform(all.size())].o : kNullTermId;
      EXPECT_EQ(ScanImage(sharded, s, p, o), ScanImage(reference, s, p, o))
          << "pattern mask=" << mask;
      // Morsel boundaries depend only on range length: identical too.
      auto ref_parts = reference.ScanPartitions(s, p, o, 4);
      auto sh_parts = sharded.ScanPartitions(s, p, o, 4);
      ASSERT_EQ(sh_parts.size(), ref_parts.size());
      for (size_t i = 0; i < ref_parts.size(); ++i) {
        EXPECT_EQ(sh_parts[i].size(), ref_parts[i].size());
      }
    }

    // Statistics are shard-invariant.
    EXPECT_EQ(sharded.NumTriples(), reference.NumTriples());
    EXPECT_EQ(sharded.NumNodes(), reference.NumNodes());
    EXPECT_EQ(sharded.NumPredicates(), reference.NumPredicates());
    for (const auto& [pred, stats] : reference.predicate_stats()) {
      const PredicateStats* other = sharded.StatsFor(pred);
      ASSERT_NE(other, nullptr);
      EXPECT_EQ(other->triples, stats.triples);
      EXPECT_EQ(other->distinct_subjects, stats.distinct_subjects);
      EXPECT_EQ(other->distinct_objects, stats.distinct_objects);
    }
  }
}

TEST(ShardInvarianceTest, SingleShardServesFullScanFromCanonical) {
  TripleStore store;
  BuildRandomGraph(&store, 5);
  // The unbound pattern is the canonical array itself — same bytes, same
  // storage — at every shard count.
  EXPECT_EQ(store.Scan(kNullTermId, kNullTermId, kNullTermId).begin(),
            store.triples().data());
  store.SetShardCount(8);
  EXPECT_EQ(store.Scan(kNullTermId, kNullTermId, kNullTermId).begin(),
            store.triples().data());
}

TEST(ShardInvarianceTest, ApplyDeltaMatchesRebuildAtEveryShardCount) {
  for (size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shards));
    TripleStore store;
    store.SetShardCount(shards);
    testing::BuildFigure1Graph(&store);

    auto iri = [](const std::string& s) {
      return Term::Iri("http://example.org/" + s);
    };
    store.StageDelete(iri("France"), iri("language"), Term::String("French"));
    store.StageDelete(iri("Atlantis"), iri("name"), Term::String("Atlantis"));
    store.StageAdd(iri("Spain"), iri("name"), Term::String("Spain"));
    store.StageAdd(iri("Germany"), iri("language"), Term::String("German"));
    store.StageAdd(iri("Canada"), iri("year"), Term::Integer(2019));
    store.StageDelete(iri("Canada"), iri("year"), Term::Integer(2019));
    DeltaApplyResult result = store.ApplyDelta();
    EXPECT_EQ(result.adds_applied, 1u);
    EXPECT_EQ(result.deletes_applied, 1u);
    EXPECT_GT(result.shards_rebuilt, 0u);
    EXPECT_LE(result.shards_rebuilt, 3 * shards);

    // Control: the same final triple set built through the legacy path.
    TripleStore control;
    const Dictionary& dict = store.dictionary();
    for (const Triple& t : store.triples()) {
      control.Add(dict.term(t.s), dict.term(t.p), dict.term(t.o));
    }
    control.Finalize();
    EXPECT_EQ(store.NumTriples(), control.NumTriples());
    EXPECT_EQ(store.NumNodes(), control.NumNodes());
    EXPECT_EQ(store.NumPredicates(), control.NumPredicates());
    for (const Triple& t : store.triples()) {
      auto cs = control.dictionary().Lookup(dict.term(t.s));
      auto cp = control.dictionary().Lookup(dict.term(t.p));
      auto co = control.dictionary().Lookup(dict.term(t.o));
      ASSERT_TRUE(cs && cp && co);
      EXPECT_EQ(store.Count(t.s, kNullTermId, kNullTermId),
                control.Count(*cs, kNullTermId, kNullTermId));
      EXPECT_EQ(store.Count(kNullTermId, t.p, kNullTermId),
                control.Count(kNullTermId, *cp, kNullTermId));
      EXPECT_EQ(store.Count(kNullTermId, kNullTermId, t.o),
                control.Count(kNullTermId, kNullTermId, *co));
      EXPECT_EQ(store.Count(t.s, kNullTermId, t.o),
                control.Count(*cs, kNullTermId, *co));
      EXPECT_EQ(store.Count(kNullTermId, t.p, t.o),
                control.Count(kNullTermId, *cp, *co));
      EXPECT_TRUE(store.Contains(t.s, t.p, t.o));
    }
  }
}

TEST(ShardInvarianceTest, SetShardCountRepartitionsInPlace) {
  TripleStore store;
  BuildRandomGraph(&store, 11);
  auto before = ScanImage(store, kNullTermId, kNullTermId, kNullTermId);
  uint64_t nodes = store.NumNodes();

  ThreadPool pool(4);
  store.SetShardCount(4, &pool);
  EXPECT_EQ(store.shard_count(), 4u);
  EXPECT_EQ(ScanImage(store, kNullTermId, kNullTermId, kNullTermId), before);
  EXPECT_EQ(store.NumNodes(), nodes);

  store.SetShardCount(1);
  EXPECT_EQ(store.shard_count(), 1u);
  EXPECT_EQ(ScanImage(store, kNullTermId, kNullTermId, kNullTermId), before);
  EXPECT_EQ(store.NumNodes(), nodes);
}

TEST(ShardInvarianceTest, ParallelFinalizeAndDeltaMatchSerial) {
  ThreadPool pool(4);
  TripleStore serial, parallel;
  serial.SetShardCount(8);
  parallel.SetShardCount(8);
  BuildRandomGraph(&serial, 17);
  {
    Rng rng(17);
    const int kSubjects = 40, kPredicates = 7, kObjects = 25;
    for (int i = 0; i < 400; ++i) {
      parallel.Add(Iri("s" + std::to_string(rng.Uniform(kSubjects))),
                   Iri("p" + std::to_string(rng.Uniform(kPredicates))),
                   Iri("o" + std::to_string(rng.Uniform(kObjects))));
    }
    parallel.Finalize(&pool);
  }
  EXPECT_EQ(ScanImage(parallel, kNullTermId, kNullTermId, kNullTermId),
            ScanImage(serial, kNullTermId, kNullTermId, kNullTermId));

  for (TripleStore* store : {&serial, &parallel}) {
    store->StageAdd(Iri("s1"), Iri("p1"), Iri("fresh"));
    store->StageDelete(Iri("s1"), Iri("p1"), Iri("o1"));
  }
  DeltaApplyResult a = serial.ApplyDelta(nullptr);
  DeltaApplyResult b = parallel.ApplyDelta(&pool);
  EXPECT_EQ(a.adds_applied, b.adds_applied);
  EXPECT_EQ(a.deletes_applied, b.deletes_applied);
  EXPECT_EQ(a.shards_rebuilt, b.shards_rebuilt);
  EXPECT_EQ(ScanImage(parallel, kNullTermId, kNullTermId, kNullTermId),
            ScanImage(serial, kNullTermId, kNullTermId, kNullTermId));
  EXPECT_EQ(serial.NumNodes(), parallel.NumNodes());
}

/// The delta splice kernel against a std::set reference, in SPO order and
/// under a non-default comparator (POS), over a universe small enough that
/// adds of present triples, deletes of absent ones, triples on both sides
/// and edits at either end of the run all occur.
TEST(SpliceKernelTest, MatchesSetReference) {
  Rng rng(5);
  auto pos_less = [](const Triple& x, const Triple& y) {
    return std::tie(x.p, x.o, x.s) < std::tie(y.p, y.o, y.s);
  };
  auto random_triple = [&] {
    return Triple{static_cast<TermId>(1 + rng.Uniform(6)),
                  static_cast<TermId>(1 + rng.Uniform(3)),
                  static_cast<TermId>(1 + rng.Uniform(6))};
  };
  auto in_order = [](const std::set<Triple>& set, auto less) {
    std::vector<Triple> v(set.begin(), set.end());
    std::sort(v.begin(), v.end(), less);
    return v;
  };
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::set<Triple> base, adds, deletes;
    const size_t nb = rng.Uniform(48), na = rng.Uniform(10),
                 nd = rng.Uniform(10);
    for (size_t i = 0; i < nb; ++i) base.insert(random_triple());
    for (size_t i = 0; i < na; ++i) adds.insert(random_triple());
    for (size_t i = 0; i < nd; ++i) deletes.insert(random_triple());
    if (!base.empty()) {
      if (rng.Chance(0.3)) deletes.insert(*base.begin());
      if (rng.Chance(0.3)) deletes.insert(*base.rbegin());
      if (rng.Chance(0.2)) adds.insert(*base.rbegin());
    }
    std::set<Triple> expected = base;
    for (const Triple& t : deletes) expected.erase(t);
    expected.insert(adds.begin(), adds.end());

    const std::less<Triple> spo_less;
    EXPECT_EQ(ApplySortedDelta(in_order(base, spo_less),
                               in_order(adds, spo_less),
                               in_order(deletes, spo_less)),
              in_order(expected, spo_less));
    EXPECT_EQ(ApplySortedDelta(in_order(base, pos_less),
                               in_order(adds, pos_less),
                               in_order(deletes, pos_less), pos_less),
              in_order(expected, pos_less));
  }
}

/// The first observable difference between two finalized stores over ids
/// 1..max_id: sizes, node and predicate statistics, the full scan, and
/// the byte image and count of every single- and two-bound scan shape.
/// Empty when they agree.
std::string FirstStoreDifference(const TripleStore& store,
                                 const TripleStore& control, TermId max_id) {
  if (store.NumTriples() != control.NumTriples()) return "NumTriples";
  if (store.NumNodes() != control.NumNodes()) {
    return "NumNodes " + std::to_string(store.NumNodes()) + " vs " +
           std::to_string(control.NumNodes());
  }
  if (store.NumPredicates() != control.NumPredicates()) return "NumPredicates";
  for (const auto& [pred, want] : control.predicate_stats()) {
    const PredicateStats* got = store.StatsFor(pred);
    if (got == nullptr || got->triples != want.triples ||
        got->distinct_subjects != want.distinct_subjects ||
        got->distinct_objects != want.distinct_objects) {
      return "stats of predicate " + std::to_string(pred);
    }
  }
  if (ScanImage(store, kNullTermId, kNullTermId, kNullTermId) !=
      ScanImage(control, kNullTermId, kNullTermId, kNullTermId)) {
    return "full scan";
  }
  auto same = [&](TermId s, TermId p, TermId o) {
    return ScanImage(store, s, p, o) == ScanImage(control, s, p, o) &&
           store.Count(s, p, o) == control.Count(s, p, o);
  };
  constexpr TermId kAny = kNullTermId;
  for (TermId a = 1; a <= max_id; ++a) {
    if (!same(a, kAny, kAny) || !same(kAny, a, kAny) || !same(kAny, kAny, a)) {
      return "single-bound scan on id " + std::to_string(a);
    }
    for (TermId b = 1; b <= max_id; ++b) {
      if (!same(a, b, kAny) || !same(kAny, a, b) || !same(a, kAny, b)) {
        return "two-bound scan on ids " + std::to_string(a) + "," +
               std::to_string(b);
      }
    }
  }
  return "";
}

/// Randomized ApplyDelta property: after each of 120 random deltas, the
/// delta-merged store is indistinguishable from a store finalized from
/// scratch over the reference set (G \ D) ∪ A, at shard counts {1, 4, 64}
/// in both layouts. Deltas mix adds already present, deletes of absent
/// triples, triples staged on both sides, and edits at the ends of the id
/// range (hence of the canonical array and of many shard runs).
TEST(DeltaPropertyTest, RandomDeltasMatchFinalizeControl) {
  // Subjects 1..10, predicates 11..14, objects 5..20: ids 5..10 are both
  // subjects and objects, so node counting sees shared terms.
  constexpr TermId kMaxId = 20;
  auto random_triple = [](Rng* rng) {
    return Triple{static_cast<TermId>(1 + rng->Uniform(10)),
                  static_cast<TermId>(11 + rng->Uniform(4)),
                  static_cast<TermId>(5 + rng->Uniform(16))};
  };
  ThreadPool pool(2);
  for (size_t shards : {1u, 4u, 64u}) {
    for (bool compact : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " compact=" + std::to_string(compact));
      Rng rng(1000 + shards + (compact ? 1 : 0));
      std::set<Triple> reference;
      for (int i = 0; i < 150; ++i) reference.insert(random_triple(&rng));
      TripleStore store;
      store.SetShardCount(shards);
      store.SetCompactLayout(compact);
      store.ReplaceTriples({reference.begin(), reference.end()});
      store.Finalize();

      for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        std::vector<Triple> current(reference.begin(), reference.end());
        auto live = [&] { return current[rng.Uniform(current.size())]; };
        std::vector<Triple> adds, deletes;
        const size_t ops = 1 + rng.Uniform(12);
        for (size_t i = 0; i < ops; ++i) {
          switch (rng.Uniform(6)) {
            case 0:  // a (usually) fresh add
              adds.push_back(random_triple(&rng));
              break;
            case 1:  // an add already present
              if (!current.empty()) adds.push_back(live());
              break;
            case 2:  // a delete of a live triple
              if (!current.empty()) deletes.push_back(live());
              break;
            case 3:  // a (usually) absent delete
              deletes.push_back(random_triple(&rng));
              break;
            case 4: {  // the same triple on both sides
              Triple t = current.empty() || rng.Chance(0.5)
                             ? random_triple(&rng)
                             : live();
              adds.push_back(t);
              deletes.push_back(t);
              break;
            }
            default: {  // the ends of the id range and of the array
              const bool low = rng.Chance(0.5);
              const Triple extreme = low ? Triple{1, 11, 5} : Triple{10, 14, 20};
              (rng.Chance(0.5) ? adds : deletes).push_back(extreme);
              if (!current.empty()) {
                deletes.push_back(low ? current.front() : current.back());
              }
              break;
            }
          }
        }
        // Staged in arbitrary order, duplicates included: ApplyDelta
        // normalizes.
        if (rng.Chance(0.3) && !adds.empty()) adds.push_back(adds.front());

        std::set<Triple> add_set(adds.begin(), adds.end());
        uint64_t want_adds = 0, want_deletes = 0;
        for (const Triple& t : std::set<Triple>(deletes.begin(), deletes.end())) {
          if (add_set.count(t) == 0 && reference.erase(t) > 0) ++want_deletes;
        }
        for (const Triple& t : add_set) {
          if (reference.insert(t).second) ++want_adds;
        }

        for (const Triple& t : adds) store.StageAdd(t.s, t.p, t.o);
        for (const Triple& t : deletes) store.StageDelete(t.s, t.p, t.o);
        DeltaApplyResult result =
            store.ApplyDelta(step % 2 == 0 ? nullptr : &pool);
        EXPECT_EQ(result.adds_applied, want_adds);
        EXPECT_EQ(result.deletes_applied, want_deletes);

        TripleStore control;
        control.SetShardCount(shards);
        control.SetCompactLayout(compact);
        control.ReplaceTriples({reference.begin(), reference.end()});
        control.Finalize();
        ASSERT_EQ(FirstStoreDifference(store, control, kMaxId), "");
      }
    }
  }
}

TEST(CowTest, CloneAliasesEveryShardAndTheCanonicalArray) {
  TripleStore store;
  store.SetShardCount(8);
  BuildRandomGraph(&store, 3);
  TripleStore clone = store.Clone();

  EXPECT_EQ(clone.CanonicalIdentity(), store.CanonicalIdentity());
  for (int f = 0; f < TripleStore::kNumFamilies; ++f) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(clone.ShardIdentity(static_cast<TripleStore::Family>(f), k),
                store.ShardIdentity(static_cast<TripleStore::Family>(f), k));
    }
  }
  // DeepClone shares nothing.
  TripleStore deep = store.DeepClone();
  EXPECT_NE(deep.CanonicalIdentity(), store.CanonicalIdentity());
  for (int f = 0; f < TripleStore::kNumFamilies; ++f) {
    for (size_t k = 0; k < 8; ++k) {
      EXPECT_NE(deep.ShardIdentity(static_cast<TripleStore::Family>(f), k),
                store.ShardIdentity(static_cast<TripleStore::Family>(f), k));
    }
  }
}

TEST(CowTest, ApplyDeltaRebuildsOnlyTouchedShards) {
  constexpr size_t kShards = 8;
  TripleStore store;
  store.SetShardCount(kShards);
  BuildRandomGraph(&store, 9);
  TripleStore clone = store.Clone();

  // One added triple with a brand-new subject/object: exactly one bucket
  // per family may change.
  TermId s = store.Intern(Iri("fresh-subject"));
  TermId p = store.Intern(Iri("p1"));
  TermId o = store.Intern(Iri("fresh-object"));
  store.StageAdd(s, p, o);
  DeltaApplyResult result = store.ApplyDelta();
  ASSERT_EQ(result.adds_applied, 1u);
  EXPECT_EQ(result.shards_rebuilt, 3u);  // one bucket in each family

  const size_t touched[TripleStore::kNumFamilies] = {
      TripleStore::ShardIndexFor(s, kShards),
      TripleStore::ShardIndexFor(p, kShards),
      TripleStore::ShardIndexFor(o, kShards),
  };
  EXPECT_NE(store.CanonicalIdentity(), clone.CanonicalIdentity());
  for (int f = 0; f < TripleStore::kNumFamilies; ++f) {
    for (size_t k = 0; k < kShards; ++k) {
      auto family = static_cast<TripleStore::Family>(f);
      if (k == touched[f]) {
        EXPECT_NE(store.ShardIdentity(family, k), clone.ShardIdentity(family, k))
            << "family " << f << " bucket " << k << " must be rebuilt";
      } else {
        EXPECT_EQ(store.ShardIdentity(family, k), clone.ShardIdentity(family, k))
            << "family " << f << " bucket " << k << " must stay aliased";
      }
    }
  }
}

TEST(CowTest, CloneAnswersAreStableWhileTheOriginalMutates) {
  TripleStore store;
  store.SetShardCount(4);
  BuildRandomGraph(&store, 21);
  TripleStore clone = store.Clone();

  TermId p1 = store.Intern(Iri("p1"));
  auto before_full = ScanImage(clone, kNullTermId, kNullTermId, kNullTermId);
  auto before_pred = ScanImage(clone, kNullTermId, p1, kNullTermId);
  // Pin a live range into the clone's shard: must survive the original's
  // mutation (the shard stays alive via the clone's shared_ptr).
  TripleStore::ScanRange pinned = clone.Scan(kNullTermId, p1, kNullTermId);
  const Triple first = pinned.empty() ? Triple{} : *pinned.begin();

  store.StageAdd(Iri("brand-new"), Iri("p1"), Iri("value"));
  store.StageDelete(clone.triples()[0].s, clone.triples()[0].p,
                    clone.triples()[0].o);
  store.ApplyDelta();

  EXPECT_EQ(ScanImage(clone, kNullTermId, kNullTermId, kNullTermId),
            before_full);
  EXPECT_EQ(ScanImage(clone, kNullTermId, p1, kNullTermId), before_pred);
  if (!pinned.empty()) {
    EXPECT_EQ(*pinned.begin(), first);  // pointer still valid, same bytes
  }
  EXPECT_NE(store.NumTriples(), 0u);
}

TEST(CowTest, CloneSharesTheAppendOnlyDictionary) {
  TripleStore store;
  BuildRandomGraph(&store, 2);
  TripleStore clone = store.Clone();
  size_t before = clone.NumTerms();
  TermId id = store.Intern(Iri("interned-after-clone"));
  // Shared dictionary: the clone sees the new term under the same id...
  EXPECT_EQ(clone.NumTerms(), before + 1);
  EXPECT_EQ(clone.dictionary().term(id), Iri("interned-after-clone"));
  // ...but a DeepClone is severed.
  TripleStore deep = store.DeepClone();
  size_t deep_before = deep.NumTerms();
  store.Intern(Iri("interned-after-deep-clone"));
  EXPECT_EQ(deep.NumTerms(), deep_before);
}

/// Full-pipeline shard invariance: profile, selection, materialization,
/// workload answers, Explain output, and incremental maintenance
/// (including mvm_ blank labels) must be byte-identical at every shard
/// count.
struct PipelineImage {
  std::vector<std::string> triples_after_updates;  // decoded, incl. labels
  std::string explain;
  std::vector<sparql::QueryResult> answers;
  uint64_t publishes = 0;
};

PipelineImage RunPipeline(const std::string& dataset, unsigned shard_count) {
  PipelineImage image;
  core::SofosEngine engine;
  engine.SetShardCount(shard_count);
  testing::SetUpEngine(&engine, dataset);
  EXPECT_EQ(engine.store()->shard_count(),
            static_cast<size_t>(std::max(1u, shard_count)));  // applied at load
  testing::MustProfile(&engine);
  core::TripleCountCostModel model;
  auto selection = engine.SelectViews(model, 3);
  EXPECT_TRUE(selection.ok());
  EXPECT_TRUE(engine.MaterializeSelection(*selection).ok());

  workload::UpdateStreamOptions options;
  options.num_batches = 2;
  options.batch_fraction = 0.03;
  options.delete_fraction = 0.4;
  options.seed = 19;
  auto stream = workload::GenerateUpdateStream(
      engine.base_snapshot(), engine.store()->dictionary(), options);
  EXPECT_TRUE(stream.ok());
  for (const GraphDelta& delta : *stream) {
    auto outcome = engine.ApplyUpdates(delta);
    EXPECT_TRUE(outcome.ok());
    EXPECT_TRUE(engine.PublishSnapshot().ok());
  }
  image.publishes = engine.publish_latency().count;

  // Decoded triples (sorted for dictionary-id independence) capture the
  // maintained graph including maintenance blank labels byte-for-byte.
  const Dictionary& dict = engine.store()->dictionary();
  for (const Triple& t : engine.store()->triples()) {
    image.triples_after_updates.push_back(dict.term(t.s).ToNTriples() + " " +
                                          dict.term(t.p).ToNTriples() + " " +
                                          dict.term(t.o).ToNTriples());
  }
  std::sort(image.triples_after_updates.begin(),
            image.triples_after_updates.end());

  std::string root = engine.facet().ViewQuerySparql(engine.facet().FullMask());
  auto explain = engine.ExplainSparql(root);
  EXPECT_TRUE(explain.ok());
  image.explain = explain.ok() ? *explain : "";

  workload::WorkloadGenerator generator(&engine.facet(), engine.store());
  workload::WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.seed = 31;
  auto queries = generator.Generate(wopts);
  EXPECT_TRUE(queries.ok());
  for (const auto& query : *queries) {
    auto outcome = engine.Answer(query, /*allow_views=*/true);
    EXPECT_TRUE(outcome.ok());
    image.answers.push_back(outcome.ok() ? outcome->result
                                         : sparql::QueryResult{});
  }
  return image;
}

void ExpectPipelineInvariant(const std::string& dataset) {
  PipelineImage reference = RunPipeline(dataset, 1);
  EXPECT_GT(reference.publishes, 0u);
  for (unsigned shards : {2u, 8u}) {
    SCOPED_TRACE(dataset + " shard_count=" + std::to_string(shards));
    PipelineImage image = RunPipeline(dataset, shards);
    // Maintained graph — blank labels included — byte-identical.
    EXPECT_EQ(image.triples_after_updates, reference.triples_after_updates);
    // Plans don't see the shard layout.
    EXPECT_EQ(image.explain, reference.explain);
    ASSERT_EQ(image.answers.size(), reference.answers.size());
    for (size_t i = 0; i < reference.answers.size(); ++i) {
      ExpectSameAnswers(image.answers[i], reference.answers[i],
                        dataset + " query " + std::to_string(i));
    }
  }
}

TEST(ShardPipelineTest, InvariantOnGeopop) { ExpectPipelineInvariant("geopop"); }
TEST(ShardPipelineTest, InvariantOnLubm) { ExpectPipelineInvariant("lubm"); }
TEST(ShardPipelineTest, InvariantOnSwdf) { ExpectPipelineInvariant("swdf"); }

TEST(ShardPipelineTest, AutoShardCountFollowsThreadCount) {
  core::SofosEngine engine;  // shard knob left at 0 = auto
  testing::SetUpEngine(&engine, "geopop");
  engine.SetNumThreads(1);
  EXPECT_EQ(engine.store()->shard_count(), 1u);
  // Growing the pool re-resolves the auto shard count (power of two).
  engine.SetNumThreads(4);
  EXPECT_EQ(engine.store()->shard_count(), 4u);
  engine.SetNumThreads(3);
  EXPECT_EQ(engine.store()->shard_count(), 4u);
  // A pinned knob is left alone by thread changes.
  engine.SetShardCount(2);
  engine.SetNumThreads(8);
  EXPECT_EQ(engine.store()->shard_count(), 2u);
}

TEST(ShardPipelineTest, SnapshotsStayOnTheirEpochAcrossUpdates) {
  core::SofosEngine engine;
  engine.SetShardCount(4);
  testing::SetUpEngine(&engine, "geopop");
  testing::MustProfile(&engine);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto snap_result, engine.PublishSnapshot());
  std::shared_ptr<const core::EngineSnapshot> old_snap = snap_result;
  std::string root = engine.facet().ViewQuerySparql(engine.facet().FullMask());
  SOFOS_ASSERT_OK_AND_ASSIGN(auto before, old_snap->Answer(root, true));

  workload::UpdateStreamOptions options;
  options.num_batches = 1;
  options.batch_fraction = 0.05;
  options.seed = 5;
  SOFOS_ASSERT_OK_AND_ASSIGN(
      auto stream,
      workload::GenerateUpdateStream(engine.base_snapshot(),
                                     engine.store()->dictionary(), options));
  SOFOS_ASSERT_OK_AND_ASSIGN(auto outcome, engine.ApplyUpdates(stream[0]));
  EXPECT_GT(outcome.adds_applied + outcome.deletes_applied, 0u);
  SOFOS_ASSERT_OK_AND_ASSIGN(auto fresh, engine.PublishSnapshot());
  EXPECT_NE(fresh->epoch(), old_snap->epoch());

  // The old snapshot still answers from its shards — byte-stable even
  // though the engine's store rebuilt the touched ones.
  SOFOS_ASSERT_OK_AND_ASSIGN(auto after, old_snap->Answer(root, true));
  ExpectSameAnswers(before.result, after.result, "old epoch answer");
  // Publishing the same epoch twice builds once (histogram counts builds).
  uint64_t builds = engine.publish_latency().count;
  SOFOS_ASSERT_OK(engine.PublishSnapshot().status());
  EXPECT_EQ(engine.publish_latency().count, builds);
}

}  // namespace
}  // namespace sofos
