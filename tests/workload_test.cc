#include "workload/generator.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sparql/parser.h"
#include "sparql/query_engine.h"
#include "tests/core_test_util.h"

namespace sofos {
namespace workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override { testing::SetUpEngine(&engine_, "geopop"); }
  core::SofosEngine engine_;
};

TEST_F(WorkloadTest, GeneratesRequestedCount) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 12;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  EXPECT_EQ(queries->size(), 12u);
  std::set<std::string> ids;
  for (const auto& query : *queries) ids.insert(query.id);
  EXPECT_EQ(ids.size(), 12u) << "query ids must be unique";
}

TEST_F(WorkloadTest, AllQueriesParseAndExecute) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 30;
  options.seed = 17;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  sparql::QueryEngine qe(engine_.store());
  for (const auto& query : *queries) {
    ASSERT_TRUE(sparql::Parser::Parse(query.sparql).ok()) << query.sparql;
    auto result = qe.Execute(query.sparql);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << query.sparql;
  }
}

TEST_F(WorkloadTest, SingleEqualityFiltersAreSatisfiable) {
  // Constants come from the data, so a query with exactly ONE equality
  // filter always matches something. (Conjunctions of filters on different
  // dimensions may legitimately be jointly empty, e.g. a country paired
  // with the wrong continent.)
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 40;
  options.filter_prob = 1.0;
  options.max_filters = 1;
  options.range_prob = 0.0;  // equality only
  options.seed = 23;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  sparql::QueryEngine qe(engine_.store());
  size_t filtered = 0;
  for (const auto& query : *queries) {
    if (query.signature.constraints.size() != 1) continue;
    ++filtered;
    auto result = qe.Execute(query.sparql);
    ASSERT_TRUE(result.ok()) << query.sparql;
    EXPECT_GT(result->NumRows(), 0u) << query.sparql;
  }
  EXPECT_GT(filtered, 20u);
}

TEST_F(WorkloadTest, SignatureMatchesRenderedSparql) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 25;
  options.seed = 29;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  core::Rewriter rewriter(&engine_.facet());
  for (const auto& query : *queries) {
    auto parsed = sparql::Parser::Parse(query.sparql);
    ASSERT_TRUE(parsed.ok());
    auto sig = rewriter.AnalyzeQuery(*parsed);
    ASSERT_TRUE(sig.ok()) << sig.status().ToString() << "\n" << query.sparql;
    EXPECT_EQ(sig->group_mask, query.signature.group_mask) << query.sparql;
    EXPECT_EQ(sig->filter_mask, query.signature.filter_mask) << query.sparql;
  }
}

TEST_F(WorkloadTest, DeterministicForSeed) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 10;
  options.seed = 31;
  auto a = generator.Generate(options);
  auto b = generator.Generate(options);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].sparql, (*b)[i].sparql);
  }
  options.seed = 32;
  auto c = generator.Generate(options);
  ASSERT_TRUE(c.ok());
  bool any_different = false;
  for (size_t i = 0; i < a->size(); ++i) {
    any_different |= (*a)[i].sparql != (*c)[i].sparql;
  }
  EXPECT_TRUE(any_different);
}

TEST_F(WorkloadTest, GroupDimProbabilityShapesQueries) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions all_dims;
  all_dims.num_queries = 10;
  all_dims.group_dim_prob = 1.0;
  all_dims.filter_prob = 0.0;
  auto full = generator.Generate(all_dims);
  ASSERT_TRUE(full.ok());
  for (const auto& query : *full) {
    EXPECT_EQ(query.signature.group_mask, engine_.facet().FullMask());
    EXPECT_EQ(query.signature.filter_mask, 0u);
  }

  WorkloadOptions no_dims;
  no_dims.num_queries = 10;
  no_dims.group_dim_prob = 0.0;
  no_dims.filter_prob = 0.0;
  auto apex = generator.Generate(no_dims);
  ASSERT_TRUE(apex.ok());
  for (const auto& query : *apex) {
    EXPECT_EQ(query.signature.group_mask, 0u);
    EXPECT_EQ(query.sparql.find("GROUP BY"), std::string::npos);
  }
}

TEST_F(WorkloadTest, RangeFiltersOnNumericDims) {
  WorkloadGenerator generator(&engine_.facet(), engine_.store());
  WorkloadOptions options;
  options.num_queries = 50;
  options.filter_prob = 1.0;
  options.range_prob = 1.0;
  options.seed = 37;
  auto queries = generator.Generate(options);
  ASSERT_TRUE(queries.ok());
  bool saw_range = false;
  for (const auto& query : *queries) {
    for (const auto& c : query.signature.constraints) {
      if (c.usage == core::DimUsage::kFilteredRange) {
        saw_range = true;
        EXPECT_NE(c.filter_sparql.find(">="), std::string::npos);
        EXPECT_NE(c.filter_sparql.find("<="), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(saw_range) << "year is numeric: range filters must appear";
}

/// The update-stream generator's naive form, kept as the parity oracle:
/// copy the whole base up front and advance the copy after every batch
/// with three set-algebra passes (set_difference, set_difference, merge +
/// unique). GenerateUpdateStream must emit exactly the same stream.
std::vector<core::maintenance::GraphDelta> NaiveUpdateStream(
    const std::vector<Triple>& base, const Dictionary& dict,
    const UpdateStreamOptions& options) {
  using core::maintenance::GraphDelta;
  using core::maintenance::TermTriple;
  Rng rng(options.seed);
  std::unordered_map<TermId, std::vector<TermId>> objects_by_pred;
  for (const Triple& t : base) objects_by_pred[t.p].push_back(t.o);
  std::vector<Triple> current = base;
  auto decode = [&](const Triple& t) {
    return TermTriple{dict.term(t.s), dict.term(t.p), dict.term(t.o)};
  };
  std::vector<GraphDelta> stream;
  for (int b = 0; b < options.num_batches; ++b) {
    size_t ops = static_cast<size_t>(static_cast<double>(base.size()) *
                                     options.batch_fraction);
    ops = std::max(ops, static_cast<size_t>(std::max(options.min_batch_ops, 1)));
    size_t num_deletes = static_cast<size_t>(static_cast<double>(ops) *
                                             options.delete_fraction);
    num_deletes = std::min(num_deletes, current.size() > 1 ? current.size() - 1
                                                           : size_t{0});
    size_t num_adds = ops - std::min(ops, num_deletes);

    GraphDelta delta;
    std::vector<Triple> batch_deletes;
    for (size_t i : rng.SampleIndices(current.size(), num_deletes)) {
      batch_deletes.push_back(current[i]);
      delta.deletes.push_back(decode(current[i]));
    }
    std::sort(batch_deletes.begin(), batch_deletes.end());
    std::vector<Triple> batch_adds;
    for (size_t i = 0; i < num_adds; ++i) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const Triple& donor = current[rng.Uniform(current.size())];
        const std::vector<TermId>& pool = objects_by_pred[donor.p];
        Triple candidate{donor.s, donor.p, pool[rng.Uniform(pool.size())]};
        if (std::binary_search(current.begin(), current.end(), candidate) ||
            std::binary_search(batch_adds.begin(), batch_adds.end(),
                               candidate)) {
          continue;
        }
        batch_adds.insert(std::lower_bound(batch_adds.begin(),
                                           batch_adds.end(), candidate),
                          candidate);
        delta.adds.push_back(decode(candidate));
        break;
      }
    }

    std::vector<Triple> effective_deletes, stripped, next;
    std::set_difference(batch_deletes.begin(), batch_deletes.end(),
                        batch_adds.begin(), batch_adds.end(),
                        std::back_inserter(effective_deletes));
    std::set_difference(current.begin(), current.end(),
                        effective_deletes.begin(), effective_deletes.end(),
                        std::back_inserter(stripped));
    std::merge(stripped.begin(), stripped.end(), batch_adds.begin(),
               batch_adds.end(), std::back_inserter(next));
    next.erase(std::unique(next.begin(), next.end()), next.end());
    current = std::move(next);
    stream.push_back(std::move(delta));
  }
  return stream;
}

/// One stream rendered as text: batch by batch, deletes then adds.
std::vector<std::string> RenderStream(
    const std::vector<core::maintenance::GraphDelta>& stream) {
  std::vector<std::string> lines;
  auto line = [](const char* sign, const core::maintenance::TermTriple& t) {
    return std::string(sign) + t.s.ToNTriples() + " " + t.p.ToNTriples() +
           " " + t.o.ToNTriples();
  };
  for (size_t b = 0; b < stream.size(); ++b) {
    lines.push_back("batch " + std::to_string(b));
    for (const auto& t : stream[b].deletes) lines.push_back(line("-", t));
    for (const auto& t : stream[b].adds) lines.push_back(line("+", t));
  }
  return lines;
}

TEST_F(WorkloadTest, UpdateStreamMatchesNaiveCopyAndAdvance) {
  const std::vector<Triple>& base = engine_.base_snapshot();
  const Dictionary& dict = engine_.store()->dictionary();
  for (uint64_t seed : {1u, 7u, 42u, 99u, 2024u}) {
    for (int batches = 1; batches <= 5; ++batches) {
      for (double delete_fraction : {0.0, 0.4, 1.0}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " batches=" + std::to_string(batches) +
                     " delete_fraction=" + std::to_string(delete_fraction));
        UpdateStreamOptions options;
        options.num_batches = batches;
        options.batch_fraction = 0.02;
        options.delete_fraction = delete_fraction;
        options.seed = seed;
        auto stream = GenerateUpdateStream(base, dict, options);
        ASSERT_TRUE(stream.ok()) << stream.status().ToString();
        ASSERT_EQ(stream->size(), static_cast<size_t>(batches));
        EXPECT_EQ(RenderStream(*stream),
                  RenderStream(NaiveUpdateStream(base, dict, options)));
      }
    }
  }
}

}  // namespace
}  // namespace workload
}  // namespace sofos
