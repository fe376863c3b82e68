// The condition-index facade: per-attribute indexes plus the shared
// ConditionCache for one (relation, prefix) snapshot. A RuleEvaluator owns
// one; evaluating a rule becomes an intersection of cached per-condition
// bitmaps, and a candidate rule differing from an evaluated one in a single
// condition (a minimal generalization) costs one extraction plus arity−1
// cache hits.
//
// Threading contract (mirrors RuleEvaluator::EnsureMasks): EnsureForRule is
// the only mutating entry point for the attribute indexes and must run on
// the coordinating thread before any parallel evaluation touching the rule;
// ConditionBitmap and ReadyForRule are safe from worker threads afterwards
// (the LRU cache is internally locked).
//
// Append/delta contract: indexes and cached bitmaps describe the first
// prefix_rows() rows as of the last build or extension. A RuleEvaluator
// bound to a fixed prefix never goes stale. A long-lived index over an
// advancing stream follows it through ExtendTo(new_prefix), the delta path
// for pure appends: attribute indexes absorb only the new rows (numeric via
// a sorted delta segment, categorical by extending postings in place) and
// every cached condition bitmap is copied and completed by scanning just
// the new row range. The scans are O(batch), but the copies are
// O(cached entries × prefix / 64) words under the cache mutex (ROADMAP
// item 2 makes the extension lazy). Results are bit-identical to a
// rebuild. Rows must not be rewritten once an index covers them: the one
// in-place rewrite, Relation::SetCell, is called only by GenerateDataset's
// risk-score back-fill, which runs before any evaluator exists.

#ifndef RUDOLF_INDEX_CONDITION_INDEX_H_
#define RUDOLF_INDEX_CONDITION_INDEX_H_

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

  /// Builds the missing attribute indexes behind the rule's non-trivial
  /// conditions and warms the ontology caches they read. Serial-only (see
  /// the threading contract above).
  void EnsureForRule(const Rule& rule);

  /// True if every non-trivial condition of the rule has its attribute
  /// index built — the read-only fast path worker threads may take.
  bool ReadyForRule(const Rule& rule) const;

  /// Capture bitmap of one condition over the prefix: LRU-cached, extracted
  /// from the attribute index on miss. Requires the attribute's index
  /// (EnsureForRule / ReadyForRule). Thread-safe.
  std::shared_ptr<const Bitset> ConditionBitmap(size_t attr,
                                                const Condition& cond);

  /// Delta-maintains the binding out to `new_prefix` rows (clamped to the
  /// relation's current rows; must not shrink the prefix): every built
  /// attribute index absorbs the rows of [prefix_rows(), new_prefix) and
  /// every cached condition bitmap is replaced by a copy completed by
  /// scanning only that row range. The scans cost O(batch × (built indexes
  /// + cached conditions)); the copies cost O(cached conditions × prefix /
  /// 64) words, under the cache mutex (ROADMAP item 2). Bit-identical to
  /// dropping and rebuilding. Serial-only, like EnsureForRule. Only
  /// valid when the relation grew by pure appends since the last build or
  /// extension (see the append/delta contract above).
  /// A `new_prefix` at or below prefix_rows() is a checked no-op (counted
  /// as `index.extend_to.rejected` when strictly below): the binding
  /// already covers those rows, and shrinking would corrupt every cached
  /// bitmap.
  void ExtendTo(size_t new_prefix);

  ConditionCacheStats cache_stats() const { return cache_.stats(); }

  /// Approximate heap bytes held: built attribute indexes plus the
  /// condition-bitmap cache. The fleet's per-tenant accounting reads this.
  size_t ApproxMemoryBytes() const;

  /// Drops every cached condition bitmap (tier-1 fleet eviction), keeping
  /// the attribute indexes — later evaluations re-extract on demand,
  /// bit-identically, at one extraction per condition.
  void ReleaseCachedBitmaps() { cache_.Clear(); }

 private:
  const Relation& relation_;
  size_t prefix_;
  std::vector<std::unique_ptr<NumericAttributeIndex>> numeric_;
  std::vector<std::unique_ptr<CategoricalAttributeIndex>> categorical_;
  ConditionCache cache_;
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_CONDITION_INDEX_H_
