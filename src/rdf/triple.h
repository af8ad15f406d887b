#ifndef SOFOS_RDF_TRIPLE_H_
#define SOFOS_RDF_TRIPLE_H_

#include <algorithm>
#include <functional>
#include <tuple>
#include <vector>

#include "rdf/dictionary.h"

namespace sofos {

/// A dictionary-encoded RDF triple: 12 bytes.
struct Triple {
  TermId s = kNullTermId;
  TermId p = kNullTermId;
  TermId o = kNullTermId;

  bool operator==(const Triple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
  bool operator!=(const Triple& other) const { return !(*this == other); }
  bool operator<(const Triple& other) const {
    return std::tie(s, p, o) < std::tie(other.s, other.p, other.o);
  }
};

/// A triple pattern over ids, kNullTermId meaning "wildcard". This is the
/// storage-level counterpart of a SPARQL triple pattern whose variables have
/// been stripped of names.
struct TripleIdPattern {
  TermId s = kNullTermId;
  TermId p = kNullTermId;
  TermId o = kNullTermId;

  bool Matches(const Triple& t) const {
    return (s == kNullTermId || s == t.s) && (p == kNullTermId || p == t.p) &&
           (o == kNullTermId || o == t.o);
  }
};

/// Applies a sorted, deduplicated delta to a sorted, deduplicated triple
/// run: returns (base \ deletes) ∪ adds in `less` order. A triple staged on
/// both sides survives, an add already in `base` and a delete absent from
/// it are no-ops — the one definition of delta semantics, shared by
/// TripleStore::ApplyDelta (canonical array and every shard run), the
/// engine's base-snapshot mirror, and the update-stream generator. All
/// three inputs must be sorted and duplicate-free under `less`, a strict
/// total order on triples.
///
/// Splice kernel: each delta triple is located with a lower_bound from the
/// previous position and the unchanged span in between is bulk-copied
/// (a memmove for a trivially copyable Triple), so the cost is
/// O(|base| / memcpy speed + d log |base|) rather than a per-triple
/// compare-and-push over the whole run.
template <typename Less = std::less<Triple>>
std::vector<Triple> ApplySortedDelta(const std::vector<Triple>& base,
                                     const std::vector<Triple>& adds,
                                     const std::vector<Triple>& deletes,
                                     Less less = Less()) {
  std::vector<Triple> out;
  out.reserve(base.size() + adds.size());
  auto pos = base.begin();
  auto a = adds.begin();
  auto d = deletes.begin();
  while (a != adds.end() || d != deletes.end()) {
    // Next delta key in order; an add and a delete of the same triple are
    // one event (the add wins).
    const bool take_add =
        a != adds.end() && (d == deletes.end() || !less(*d, *a));
    const Triple& key = take_add ? *a : *d;
    const bool is_delete_too =
        take_add && d != deletes.end() && !less(*a, *d);
    auto it = std::lower_bound(pos, base.end(), key, less);
    out.insert(out.end(), pos, it);
    pos = it;
    const bool present = it != base.end() && !less(key, *it);
    if (present) ++pos;  // re-emitted below if it survives
    if (take_add) {
      out.push_back(key);
      ++a;
      if (is_delete_too) ++d;
    } else {
      ++d;  // delete: dropped if present, a no-op otherwise
    }
  }
  out.insert(out.end(), pos, base.end());
  return out;
}

}  // namespace sofos

#endif  // SOFOS_RDF_TRIPLE_H_
