#include "workload/generator.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

#include "common/rng.h"
#include "common/string_util.h"
#include "sparql/query_engine.h"

namespace sofos {
namespace workload {

using core::DimConstraint;
using core::DimUsage;
using core::QuerySignature;
using core::WorkloadQuery;

Result<std::vector<Term>> WorkloadGenerator::DimValues(int dim, int max_constants) {
  const std::string& var = facet_->dims()[static_cast<size_t>(dim)].var;
  std::string pattern;
  for (const auto& tp : facet_->pattern()) {
    pattern += "  " + tp.ToString() + " .\n";
  }
  std::string query = "SELECT DISTINCT ?" + var + " WHERE {\n" + pattern +
                      "} LIMIT " + std::to_string(max_constants);
  sparql::QueryEngine engine(store_);
  SOFOS_ASSIGN_OR_RETURN(sparql::QueryResult result, engine.Execute(query));
  std::vector<Term> values;
  for (size_t r = 0; r < result.rows.size(); ++r) {
    if (result.bound[r][0]) values.push_back(result.rows[r][0]);
  }
  return values;
}

Result<std::vector<WorkloadQuery>> WorkloadGenerator::Generate(
    const WorkloadOptions& options) {
  Rng rng(options.seed);
  const size_t num_dims = facet_->num_dims();

  // Sample the constant pools once per dimension.
  std::vector<std::vector<Term>> pools(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    SOFOS_ASSIGN_OR_RETURN(pools[d],
                           DimValues(static_cast<int>(d), options.max_constants));
  }

  std::string pattern;
  for (const auto& tp : facet_->pattern()) {
    pattern += "  " + tp.ToString() + " .\n";
  }

  std::vector<WorkloadQuery> queries;
  queries.reserve(static_cast<size_t>(options.num_queries));
  for (int q = 0; q < options.num_queries; ++q) {
    WorkloadQuery query;
    query.id = "q" + std::to_string(q);
    QuerySignature& sig = query.signature;

    for (size_t d = 0; d < num_dims; ++d) {
      if (rng.Chance(options.group_dim_prob)) sig.group_mask |= 1u << d;
    }

    // Filters: random dims (grouped or not) with constants from the pool.
    int filters = 0;
    for (int attempt = 0; attempt < options.max_filters; ++attempt) {
      if (!rng.Chance(options.filter_prob)) continue;
      size_t d = rng.Uniform(num_dims);
      if ((sig.filter_mask >> d) & 1u) continue;  // one filter per dim
      if (pools[d].empty()) continue;
      const std::string& var = facet_->dims()[d].var;

      DimConstraint constraint;
      constraint.dim = static_cast<int>(d);
      bool numeric = pools[d][0].is_numeric();
      if (numeric && rng.Chance(options.range_prob) && pools[d].size() >= 2) {
        const Term& a = rng.Pick(pools[d]);
        const Term& b = rng.Pick(pools[d]);
        auto av = a.AsInt64().ValueOr(0);
        auto bv = b.AsInt64().ValueOr(0);
        int64_t lo = std::min(av, bv), hi = std::max(av, bv);
        constraint.usage = DimUsage::kFilteredRange;
        constraint.filter_sparql = StrFormat(
            "?%s >= %lld && ?%s <= %lld", var.c_str(),
            static_cast<long long>(lo), var.c_str(), static_cast<long long>(hi));
      } else {
        const Term& value = rng.Pick(pools[d]);
        constraint.usage = DimUsage::kFilteredEq;
        constraint.filter_sparql =
            "?" + var + " = " + value.ToNTriples();
      }
      sig.filter_mask |= 1u << d;
      sig.constraints.push_back(std::move(constraint));
      ++filters;
    }
    (void)filters;

    // Render the SPARQL against the base graph.
    std::string select = "SELECT";
    std::string group;
    for (size_t d = 0; d < num_dims; ++d) {
      if ((sig.group_mask >> d) & 1u) {
        select += " ?" + facet_->dims()[d].var;
        group += " ?" + facet_->dims()[d].var;
      }
    }
    select += " (" + sparql::AggKindName(facet_->agg_kind()) + "(?" +
              facet_->agg_var() + ") AS ?agg)";
    std::string where = " WHERE {\n" + pattern;
    for (const DimConstraint& c : sig.constraints) {
      where += "  FILTER(" + c.filter_sparql + ")\n";
    }
    where += "}";
    query.sparql = select + where;
    if (!group.empty()) query.sparql += " GROUP BY" + group;

    queries.push_back(std::move(query));
  }
  return queries;
}

Result<std::vector<core::maintenance::GraphDelta>> GenerateUpdateStream(
    const std::vector<Triple>& base, const Dictionary& dict,
    const UpdateStreamOptions& options) {
  using core::maintenance::GraphDelta;
  using core::maintenance::TermTriple;

  if (options.num_batches < 0 || options.batch_fraction < 0 ||
      options.delete_fraction < 0 || options.delete_fraction > 1) {
    return Status::InvalidArgument("invalid update-stream options");
  }
  if (base.empty()) {
    return Status::InvalidArgument("update stream requires a non-empty base");
  }

  Rng rng(options.seed);

  // Object pools per predicate, sampled from the initial base: inserts
  // recombine an existing (s, p) with another object of the same predicate.
  std::unordered_map<TermId, std::vector<TermId>> objects_by_pred;
  for (const Triple& t : base) objects_by_pred[t.p].push_back(t.o);

  // `current` is the graph state each batch is generated against, so that
  // every delete hits a live triple and every insert is genuinely new at
  // apply time. Batch 0 reads `base` in place; a working copy is made
  // (by the delta splice) only when another batch follows.
  const std::vector<Triple>* current = &base;  // sorted
  std::vector<Triple> working;

  auto decode = [&](const Triple& t) {
    return TermTriple{dict.term(t.s), dict.term(t.p), dict.term(t.o)};
  };

  std::vector<GraphDelta> stream;
  stream.reserve(static_cast<size_t>(options.num_batches));
  for (int b = 0; b < options.num_batches; ++b) {
    size_t ops = static_cast<size_t>(
        static_cast<double>(base.size()) * options.batch_fraction);
    ops = std::max(ops, static_cast<size_t>(std::max(options.min_batch_ops, 1)));
    size_t num_deletes = static_cast<size_t>(
        static_cast<double>(ops) * options.delete_fraction);
    num_deletes = std::min(
        num_deletes, current->size() > 1 ? current->size() - 1 : size_t{0});
    size_t num_adds = ops - std::min(ops, num_deletes);

    GraphDelta delta;
    std::vector<Triple> batch_deletes;
    for (size_t i : rng.SampleIndices(current->size(), num_deletes)) {
      batch_deletes.push_back((*current)[i]);
      delta.deletes.push_back(decode((*current)[i]));
    }
    std::sort(batch_deletes.begin(), batch_deletes.end());

    std::vector<Triple> batch_adds;
    for (size_t i = 0; i < num_adds; ++i) {
      // A handful of recombination attempts per insert; graphs where every
      // (s, p, o') already exists simply yield a smaller batch.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const Triple& donor = (*current)[rng.Uniform(current->size())];
        const std::vector<TermId>& pool = objects_by_pred[donor.p];
        Triple candidate{donor.s, donor.p, pool[rng.Uniform(pool.size())]};
        if (std::binary_search(current->begin(), current->end(), candidate) ||
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

    // Advance the working copy with the shared delta semantics.
    if (b + 1 < options.num_batches) {
      working = ApplySortedDelta(*current, batch_adds, batch_deletes);
      current = &working;
    }

    stream.push_back(std::move(delta));
  }
  return stream;
}

}  // namespace workload
}  // namespace sofos
