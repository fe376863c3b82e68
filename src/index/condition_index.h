// The condition cache for one (relation, prefix) snapshot: the shared
// ConditionCache of per-condition capture bitmaps, filled by column scans.
// A RuleEvaluator owns one; evaluating a rule becomes an intersection of
// cached per-condition bitmaps, and a candidate rule differing from an
// evaluated one in a single condition (a minimal generalization) costs one
// scan of one column plus arity−1 cache hits.
//
// No condition has an index of its own. A miss scans its condition's column
// over the prefix, through the range kernel (numeric) or the containment
// mask (categorical); a stale entry is completed by the same scan over the
// rows it is missing (below). One batch runs every such scan as one pass
// over row blocks and, inside a block, over strips that each key's scan
// reads while the column strip is hot (ConditionBitmaps).
//
// Threading contract (mirrors RuleEvaluator::EnsureMasks): EnsureForRule,
// ExtendTo and ConditionBitmaps run on the coordinating thread, never during
// a parallel evaluation. ConditionBitmaps looks up and puts back every key
// of a batch on that thread, and allocates the bitmaps it fills there; only
// the blocks of its scan pass run on the workers of its fan-out. The scans
// read the relation's columns below the prefix, as the scan path does (the
// ingest pipeline defers column regrowth while an epoch is pinned).
//
// Append/delta contract: the binding covers the first prefix_rows() rows. A
// RuleEvaluator bound to a fixed prefix never goes stale. A long-lived
// binding over an advancing stream follows it through ExtendTo(new_prefix),
// which only moves the prefix: the cache is left alone, so a cached bitmap
// may be shorter than the prefix; the hit that finds it so completes it by
// scanning only the rows it is missing, and puts the completed copy back.
// So an extension costs nothing, and an entry that is never read again costs
// nothing. Results are bit-identical to a rebuild. Rows must not be
// rewritten once a cached bitmap covers them: the one in-place rewrite,
// Relation::SetCell, is called only by GenerateDataset's risk-score
// back-fill, which runs before any evaluator exists.

#ifndef RUDOLF_INDEX_CONDITION_INDEX_H_
#define RUDOLF_INDEX_CONDITION_INDEX_H_

#include <functional>
#include <memory>
#include <vector>

#include "index/condition_cache.h"
#include "relation/relation.h"
#include "rules/rule.h"

namespace rudolf {

/// \brief Condition-bitmap cache over one relation prefix, filled by
/// column scans.
class ConditionIndex {
 public:
  /// Binds to the first `prefix_rows` rows of `relation` (SIZE_MAX = all
  /// rows at construction). Construction is cheap; nothing is built.
  explicit ConditionIndex(const Relation& relation,
                          size_t prefix_rows = static_cast<size_t>(-1),
                          size_t cache_capacity = ConditionCache::kDefaultCapacity);

  size_t prefix_rows() const { return prefix_; }

  /// Warms the ontology caches of the rule's non-trivial categorical
  /// conditions, which their scans read through Contains. Serial-only (see
  /// the threading contract above).
  void EnsureForRule(const Rule& rule);

  /// One condition of a batch lookup.
  struct ConditionRef {
    size_t attr = 0;
    Condition cond;
  };

  /// Runs `body(lo, hi)` once per block of the rows [lo, hi), in parallel or
  /// inline. Interior block boundaries must be multiples of 64, so that
  /// blocks write disjoint words (RuleEvaluator::ForEachBlock).
  using BlockFanOut = std::function<void(
      size_t lo, size_t hi, const std::function<void(size_t, size_t)>& body)>;

  /// Capture bitmaps of `conds` over the prefix, one per entry (entries with
  /// equal keys share one bitmap), through the LRU cache. Each distinct key
  /// is looked up once, in first-use order. A miss scans its condition's
  /// column over the prefix. A hit on an entry cached before an ExtendTo is
  /// completed over the missing rows; that counts as a hit and as
  /// `index.cache.stale_extends`. The scans of all missing and stale keys
  /// run as one pass over the blocks of `fan_out`, and their bitmaps are put
  /// back in first-use order once all are done. So the cache's counters and
  /// contents do not depend on the thread count, and no key is scanned
  /// twice. Requires EnsureForRule for the conditions' rules. Serial-only
  /// (see the threading contract above).
  std::vector<std::shared_ptr<const Bitset>> ConditionBitmaps(
      const std::vector<ConditionRef>& conds, const BlockFanOut& fan_out);

  /// ConditionBitmaps for one condition, run inline.
  std::shared_ptr<const Bitset> ConditionBitmap(size_t attr,
                                                const Condition& cond);

  /// Moves the binding out to `new_prefix` rows (clamped to the relation's
  /// current rows). Cached condition bitmaps are not touched; each is
  /// completed on its next hit (ConditionBitmaps). Bit-identical to dropping
  /// and rebuilding. Serial-only, like EnsureForRule. Only valid when the
  /// relation grew by pure appends (see the append/delta contract above).
  /// A `new_prefix` at or below prefix_rows() is a checked no-op (counted
  /// as `index.extend_to.rejected` when strictly below): the binding
  /// already covers those rows, and shrinking would corrupt every cached
  /// bitmap.
  void ExtendTo(size_t new_prefix);

  ConditionCacheStats cache_stats() const { return cache_.stats(); }

  /// Approximate heap bytes of the cached condition bitmaps. The fleet's
  /// per-tenant accounting reads this.
  size_t ApproxMemoryBytes() const { return cache_.ApproxMemoryBytes(); }

  /// Drops every cached condition bitmap (tier-1 fleet eviction), which is
  /// all the index holds; later evaluations scan again on demand,
  /// bit-identically, at one scan per condition.
  void ReleaseCachedBitmaps() { cache_.Clear(); }

 private:
  const Relation& relation_;
  size_t prefix_;
  ConditionCache cache_;
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_CONDITION_INDEX_H_
