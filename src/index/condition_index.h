// The condition-index facade: numeric attribute indexes plus the shared
// ConditionCache for one (relation, prefix) snapshot. A RuleEvaluator owns
// one; evaluating a rule becomes an intersection of cached per-condition
// bitmaps, and a candidate rule differing from an evaluated one in a single
// condition (a minimal generalization) costs one extraction plus arity−1
// cache hits.
//
// Only numeric attributes have an index (a sorted projection with
// cumulative bitmaps). A categorical condition's miss is the column scan of
// its containment mask, the same scan that completes a stale entry (below).
//
// Threading contract (mirrors RuleEvaluator::EnsureMasks): EnsureForRule,
// ExtendTo and ConditionBitmaps run on the coordinating thread, never during
// a parallel evaluation. ConditionBitmaps looks up and puts back every key
// of a batch on that thread; only the extractions and completions of the
// keys it misses or finds stale run on the workers of its fan-out. An
// extraction reads its numeric index; a completion, and a categorical
// condition's miss, scan the relation's columns below the prefix, as the
// scan path does (the ingest pipeline defers column regrowth while an
// epoch is pinned), and read the ontology only through Contains, which is
// safe once EnsureForRule has warmed its caches.
//
// Append/delta contract: numeric attribute indexes describe the first
// prefix_rows() rows as of the last build or extension. A RuleEvaluator
// bound to a fixed prefix never goes stale. A long-lived index over an
// advancing stream follows it through ExtendTo(new_prefix), the delta path
// for pure appends: numeric indexes absorb only the new rows (via a sorted
// delta segment) and the cache is left alone. A cached bitmap may therefore
// be shorter than the prefix; the hit that finds it so completes it by
// scanning only the rows it is missing, and puts the completed copy back.
// So an extension costs the batch, and an entry that is never read again
// costs nothing. Results are bit-identical to a rebuild. Rows must not be
// rewritten once an index or a cached bitmap covers them: the one in-place
// rewrite, Relation::SetCell, is called only by GenerateDataset's
// risk-score back-fill, which runs before any evaluator exists.

#ifndef RUDOLF_INDEX_CONDITION_INDEX_H_
#define RUDOLF_INDEX_CONDITION_INDEX_H_

#include <functional>
#include <memory>
#include <vector>

#include "index/attribute_index.h"
#include "index/condition_cache.h"
#include "relation/relation.h"
#include "rules/rule.h"

namespace rudolf {

/// \brief Per-attribute indexes + condition-bitmap cache over one relation
/// prefix.
class ConditionIndex {
 public:
  /// Binds to the first `prefix_rows` rows of `relation` (SIZE_MAX = all
  /// rows at construction). Attribute indexes are built lazily by
  /// EnsureForRule; construction itself is cheap.
  explicit ConditionIndex(const Relation& relation,
                          size_t prefix_rows = static_cast<size_t>(-1),
                          size_t cache_capacity = ConditionCache::kDefaultCapacity);

  size_t prefix_rows() const { return prefix_; }

  /// Builds the missing numeric indexes behind the rule's non-trivial
  /// conditions and warms the ontology caches of its non-trivial
  /// categorical ones. Serial-only (see the threading contract above).
  void EnsureForRule(const Rule& rule);

  /// True if every non-trivial numeric condition of the rule has its
  /// attribute index built, as EnsureForRule leaves it: what
  /// ConditionBitmaps requires of the rules whose conditions it looks up.
  bool ReadyForRule(const Rule& rule) const;

  /// One condition of a batch lookup.
  struct ConditionRef {
    size_t attr = 0;
    Condition cond;
  };

  /// Runs `body(lo, hi)` over a partition of the units [0, n), in parallel
  /// or inline (RuleEvaluator::ForEachUnit).
  using FanOut = std::function<void(
      size_t n, const std::function<void(size_t, size_t)>& body)>;

  /// Capture bitmaps of `conds` over the prefix, one per entry (entries with
  /// equal keys share one bitmap), through the LRU cache. Each distinct key
  /// is looked up once, in first-use order. A miss extracts a numeric
  /// condition from its attribute index and scans a categorical
  /// condition's column. A hit on an entry cached before an ExtendTo is
  /// completed over the missing rows (a scan of at most the rows appended
  /// since); that counts as a hit and as `index.cache.stale_extends`. The
  /// extractions and completions run through `fan_out`, one key per unit,
  /// and their bitmaps are put back in first-use order once all are done.
  /// So the cache's counters and contents do not depend on the thread
  /// count, and no key is extracted twice. Requires EnsureForRule (or
  /// ReadyForRule) for the conditions' rules. Serial-only (see the
  /// threading contract above).
  std::vector<std::shared_ptr<const Bitset>> ConditionBitmaps(
      const std::vector<ConditionRef>& conds, const FanOut& fan_out);

  /// ConditionBitmaps for one condition, run inline.
  std::shared_ptr<const Bitset> ConditionBitmap(size_t attr,
                                                const Condition& cond);

  /// Delta-maintains the binding out to `new_prefix` rows (clamped to the
  /// relation's current rows; must not shrink the prefix): every built
  /// numeric index absorbs the rows of [prefix_rows(), new_prefix) (see
  /// NumericAttributeIndex::AppendRows). Cached condition bitmaps are not touched; each is
  /// completed on its next hit (ConditionBitmaps). Bit-identical to dropping
  /// and rebuilding. Serial-only, like EnsureForRule. Only valid when the
  /// relation grew by pure appends since the last build or extension (see
  /// the append/delta contract above).
  /// A `new_prefix` at or below prefix_rows() is a checked no-op (counted
  /// as `index.extend_to.rejected` when strictly below): the binding
  /// already covers those rows, and shrinking would corrupt every cached
  /// bitmap.
  void ExtendTo(size_t new_prefix);

  ConditionCacheStats cache_stats() const { return cache_.stats(); }

  /// Approximate heap bytes held: built numeric indexes plus the
  /// condition-bitmap cache. The fleet's per-tenant accounting reads this.
  size_t ApproxMemoryBytes() const;

  /// Drops every cached condition bitmap (tier-1 fleet eviction), keeping
  /// the attribute indexes — later evaluations re-extract on demand,
  /// bit-identically, at one extraction per condition.
  void ReleaseCachedBitmaps() { cache_.Clear(); }

 private:
  // `stale` (a bitmap of `cond` over a shorter prefix: a cached entry, or
  // an empty one on a categorical miss) completed over
  // [stale.size(), prefix_) by the condition's column scan.
  Bitset Complete(size_t attr, const Condition& cond,
                  const Bitset& stale) const;

  const Relation& relation_;
  size_t prefix_;
  std::vector<std::unique_ptr<NumericAttributeIndex>> numeric_;
  ConditionCache cache_;
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_CONDITION_INDEX_H_
