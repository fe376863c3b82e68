// Columnar evaluation of rules over the transaction relation. Produces
// capture bitmaps (one bit per row) and label-partitioned counts — the raw
// material of the benefit term α·ΔF + β·ΔL + γ·ΔR.
//
// Evaluation optionally runs on the shared TaskScheduler (see
// EvalOptions). One rule, FansOut, decides whether a batch of rules (tracker
// builds, Sync, generalization candidates), a split walk over a rule's
// capture and a scan's 65,536-row blocks fan out: only when the evaluator
// has more than one thread and its prefix spans at least two such chunks.
// Only the row-range extension pass keeps its own test: it parallelizes
// across rules whenever it has more than one. Every decomposition
// produces bit-identical results to the serial path — see DESIGN.md
// "Parallel evaluation pipeline" — and episodes issued by concurrent
// evaluators (fleet tenants) interleave freely on the one scheduler.
//
// Every scan is one conjunction scan (simd::OrConjunctionMatches): the
// rows of a range that match every predicate of a list, walked in
// 1,024-row strips.
//
// By default rules are evaluated through the condition cache the evaluator
// owns (ConditionCache, src/index/): each non-trivial condition's capture
// bitmap is scanned once from its column and LRU-cached, and a rule is the
// intersection of its conditions' bitmaps — so candidate rules differing
// from an evaluated rule in one condition (minimal generalizations) cost
// one column scan instead of a scan of every condition. A batch looks up
// each distinct condition once, serially, and scans the missing and stale
// ones in one blocked pass whose row blocks fan out (EvalRules). The cached
// path is bit-identical to the scan; see DESIGN.md "Condition index &
// cache".
//
// Threading contract: EnsureMasks, ExtendPrefix and the cache's lookups,
// bitmap allocations and put-backs run on the coordinating thread, never
// during a parallel evaluation. Workers only run the blocks of a scan or of
// the blocked pass, writing their own words of the bitmaps, and intersect;
// they read concept masks that EnsureMasks built beforehand. The scans read
// the relation's columns below the prefix (the ingest pipeline defers
// column regrowth while an epoch is pinned).
//
// Append/delta contract: the evaluator covers the first num_rows() rows. An
// evaluator bound to a fixed prefix never goes stale. A long-lived one over
// an advancing stream follows it through ExtendPrefix(new_prefix), which
// only moves the prefix: the cache is left alone, so a cached bitmap may be
// shorter than the prefix; the hit that finds it so completes it by
// scanning only the rows it is missing, and puts the completed copy back.
// So an extension costs nothing, and an entry that is never read again
// costs nothing. Results are bit-identical to a rebuild. Rows must not be
// rewritten once a cached bitmap covers them: the one in-place rewrite,
// Relation::SetCell, is called only by GenerateDataset's risk-score
// back-fill, which runs before any evaluator exists.
//
// Concept masks stay with the evaluator, not the ontology: evaluators on
// different threads share one ontology (the ingest worker extends a
// tracker while the main thread runs the quality pass), so a mask the
// ontology filled lazily would need a lock, and an eager table would cost
// n² bytes for n concepts. The evaluator's memo has one writer under the
// EnsureMasks contract and holds only the concepts its rules use.

#ifndef RUDOLF_RULES_EVALUATOR_H_
#define RUDOLF_RULES_EVALUATOR_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "index/condition_cache.h"
#include "relation/relation.h"
#include "rules/rule_set.h"
#include "util/bitset.h"
#include "util/task_scheduler.h"

namespace rudolf {

namespace simd {
struct ColumnPredicate;
}  // namespace simd

/// Parallelism knobs for rule evaluation. A session builds every
/// CaptureTracker, through which its engines evaluate, with
/// SessionOptions::eval; standalone evaluators and trackers take them
/// directly.
struct EvalOptions {
  /// 1 (default): the serial code path, no scheduler involved. 0: all
  /// hardware threads. n > 1: the process-wide TaskScheduler (sized at
  /// least n at first use; see TaskScheduler::Shared). Whatever is
  /// configured, the `RUDOLF_THREADS` environment variable overrides it
  /// (see ResolveNumThreads).
  int num_threads = 1;
  /// Condition-cached evaluation (default on): rule captures are computed
  /// as intersections of LRU-cached per-condition bitmaps, each scanned
  /// from its column on a miss, bit-identical to the columnar scan of the
  /// rule. The `RUDOLF_INDEX` environment variable (0/1)
  /// overrides it (see ResolveUseIndex).
  bool use_index = true;
};

/// The effective indexed-evaluation setting: `RUDOLF_INDEX=0|1` wins over
/// the requested value; any other value warns and leaves the request
/// alone. The variable is read once per process.
bool ResolveUseIndex(bool requested);

/// Number of captured rows per label class.
struct LabelCounts {
  size_t fraud = 0;
  size_t legitimate = 0;
  size_t unlabeled = 0;

  size_t total() const { return fraud + legitimate + unlabeled; }
  LabelCounts& operator+=(const LabelCounts& other) {
    fraud += other.fraud;
    legitimate += other.legitimate;
    unlabeled += other.unlabeled;
    return *this;
  }
  bool operator==(const LabelCounts&) const = default;
};

/// \brief Evaluates rules over one relation.
///
/// The evaluator is bound to a prefix of a relation, num_rows(), which it
/// alone owns and which only ExtendPrefix moves, and only forward.
/// Categorical conditions are evaluated through per-concept membership masks
/// computed once per (ontology, concept) pair and memoized.
class RuleEvaluator {
 public:
  /// Binds to the first `prefix_rows` rows of `relation` (SIZE_MAX = all
  /// rows at construction time). The relation must outlive the evaluator;
  /// rows appended later are outside the prefix and are ignored.
  explicit RuleEvaluator(const Relation& relation,
                         size_t prefix_rows = static_cast<size_t>(-1),
                         EvalOptions options = {});

  const Relation& relation() const { return relation_; }
  size_t num_rows() const { return num_rows_; }

  /// Resolved thread count (1 = serial).
  int num_threads() const { return num_threads_; }

  /// Words of one chunk of a fanned-out walk over a prefix bitmap, and of
  /// one row block of a scan or of the condition cache's scan pass: 1,024
  /// words, 65,536 rows.
  static constexpr size_t kChunkWords = 1024;
  static constexpr size_t kChunkRows = kChunkWords * 64;

  /// The fan-out rule of batch evaluation, proposal scoring and row-block
  /// scans: true when the evaluator has more than one thread, its prefix
  /// spans at least two chunks (more than kChunkRows rows), and the caller
  /// is not already inside one of this evaluator's own parallel regions.
  bool FansOut() const;

  /// Runs `body(lo, hi)` over a partition of the units [0, n): on the
  /// scheduler when FansOut(), else inline as one `body(0, n)` call. A body
  /// may write only state indexed by its own units.
  void ForEachUnit(size_t n,
                   const std::function<void(size_t, size_t)>& body) const;

  /// Re-binds to the first `new_prefix` rows (clamped to the relation's
  /// current rows) after the relation grew by pure appends (see the
  /// append/delta contract above). Only the prefix moves: cached condition
  /// bitmaps are completed over the new rows on their next hit.
  /// Bit-identical to constructing a fresh evaluator over the new prefix.
  /// A `new_prefix` below num_rows() is a checked no-op, counted as
  /// `index.extend_to.rejected`: the evaluator already covers those rows,
  /// and shrinking would leave every cached bitmap and every capture built
  /// over the old prefix longer than the new one. Serial-only
  /// (coordinating thread).
  void ExtendPrefix(size_t new_prefix);

  /// Sets in `out` (sized num_rows()) the bits of the rows in [lo, hi)
  /// captured by the rule — exactly the bits EvalRule would set in that
  /// range; bits outside [lo, hi) are untouched. The serial row-range scan
  /// of the append path: extending a capture bitmap to a grown prefix costs
  /// O(hi - lo). One conjunction scan of the rule's non-trivial conditions
  /// (simd::OrConjunctionMatches). Requires the rule's concept masks to be
  /// warm when called from a worker thread (see EvalRulesRange).
  void EvalRuleRange(const Rule& rule, size_t lo, size_t hi, Bitset* out) const;

  /// EvalRuleRange for a batch of live rules, in `ids` order, writing into
  /// `outs[i]` — the bulk delta pass behind CaptureTracker::ExtendPrefix.
  /// Parallel across rules when num_threads > 1 (concept masks are warmed
  /// serially first); bit-identical to the serial loop.
  void EvalRulesRange(const RuleSet& rules, const std::vector<RuleId>& ids,
                      size_t lo, size_t hi,
                      const std::vector<Bitset*>& outs) const;

  /// ORs into `out` (sized num_rows()) the rows in [lo, hi) that some live
  /// rule of `rules` captures; bits outside [lo, hi) are untouched. Scans,
  /// never the condition cache, in blocks cut on absolute kChunkRows
  /// boundaries, one unit each of ForEachUnit; blocks write disjoint words,
  /// so the union is bit-identical at every width. The one-shot pass of
  /// EvaluateOnRange and ManualExpert::RunRound.
  void EvalRuleSetRange(const RuleSet& rules, size_t lo, size_t hi,
                        Bitset* out) const;

  /// Rows captured by a single rule: a batch of one on the indexed path
  /// (see EvalRules); with the index off, a scan whose row blocks fan out
  /// under FansOut(), as in EvalRuleSetRange.
  Bitset EvalRule(const Rule& rule) const;

  /// Rows captured by the union of all live rules: EvalRuleSetRange over
  /// the prefix with the index off; with it on, one EvalRules batch ORed on
  /// the same blocks. Both fan out under FansOut().
  Bitset EvalRuleSet(const RuleSet& rules) const;

  /// The batch evaluation path: hands each rule's capture bitmap to
  /// `consume(i, capture)`, once per index i of `rules`. On the cached path
  /// every distinct (attribute, condition) of the batch is looked up in the
  /// condition cache once, serially and in first-use order; the missing and
  /// stale ones are scanned in one pass over the row blocks of ForEachBlock
  /// and put back in that order (ConditionBitmaps), so the cache's counters
  /// do not depend on the thread count and no key is scanned twice. Then the
  /// conditions of each rule are intersected and consumed, in parallel
  /// across rules; on the scan path each rule is scanned. Both fan out under
  /// FansOut(), and `consume` runs on worker threads when they do.
  void EvalRules(const std::vector<const Rule*>& rules,
                 const std::function<void(size_t, Bitset)>& consume) const;

  /// Capture bitmaps of the given live rules, in `ids` order — the bulk
  /// build behind EvalRuleSet, CaptureTracker's construction and Sync,
  /// through the batch path above.
  std::vector<Bitset> EvalRules(const RuleSet& rules,
                                const std::vector<RuleId>& ids) const;

  /// Label-partitioned count of the rows in `captured`, using visible labels.
  LabelCounts CountsVisible(const Bitset& captured) const;

  /// Label-partitioned count of the rows in `captured`, using true labels.
  LabelCounts CountsTrue(const Bitset& captured) const;

  /// Convenience: counts of a rule's captures under visible labels.
  LabelCounts RuleCountsVisible(const Rule& rule) const;

  /// Hit, miss and eviction counters of the condition cache; all zero when
  /// the cache is off (EvalOptions::use_index / RUDOLF_INDEX=0).
  ConditionCacheStats cache_stats() const;

  /// Approximate heap bytes held by the evaluator's caches: the condition
  /// cache's bitmaps and the concept-mask cache.
  /// The fleet's per-tenant memory accounting reads this; call only from a
  /// quiescent session (no concurrent evaluation).
  size_t ApproxMemoryBytes() const;

  /// Drops every cached condition bitmap (tier-1 fleet eviction); concept
  /// masks stay, and later evaluations scan again on demand,
  /// bit-identically. No-op when the cache is off. Call only from a
  /// quiescent session.
  void ReleaseCachedBitmaps();

 private:
  // One non-trivial condition of a batch, on attribute `attr`.
  struct ConditionRef {
    size_t attr = 0;
    const Condition* cond = nullptr;
  };

  // Membership mask for "value's concept is contained in `concept`" within
  // `ontology`: mask[v] != 0 iff Contains(concept, v). Builds and memoizes
  // a missing mask, so it inserts only on the coordinating thread.
  const std::vector<uint8_t>& ConceptMask(const Ontology* ontology,
                                          ConceptId concept_id) const;

  // Serially materializes every concept mask (and warms the ontology
  // caches) the rule's conditions need, so parallel scans only read
  // mask_cache_. The one warm-up of the evaluator: it must be called before
  // any parallel region touching `rule`.
  void EnsureMasks(const Rule& rule) const;

  // The scan predicate of condition `cond` on attribute `attr`. A
  // categorical one points into its concept mask; the memo's nodes do not
  // move, so the pointer survives later mask insertions.
  simd::ColumnPredicate Predicate(size_t attr, const Condition& cond) const;

  // The blocked pass of the cached path: capture bitmaps of `conds` over
  // the prefix, one per entry (entries with equal keys share one bitmap).
  // Each distinct key is looked up once, in first-use order. A miss scans
  // its condition's column over the prefix; a hit on an entry cached before
  // an ExtendPrefix is completed over the rows it is missing, which counts
  // as a hit and as `index.cache.stale_extends`. All those scans run as one
  // pass over the blocks of ForEachBlock, each block walked in
  // simd::kStripRows strips that every key reads in turn, grouped by
  // attribute; the new bitmaps are put back in first-use order once all are
  // done. Serial-only: only the blocks run on workers.
  std::vector<std::shared_ptr<const Bitset>> ConditionBitmaps(
      const std::vector<ConditionRef>& conds) const;

  // Runs `body(lo, hi)` once per block of [lo, hi): the range cut on
  // absolute kChunkRows boundaries and clamped to lo and hi, one block per
  // unit of ForEachUnit. The condition cache's blocked pass runs on these
  // blocks too.
  void ForEachBlock(size_t lo, size_t hi,
                    const std::function<void(size_t, size_t)>& body) const;

  // The scan of one rule over the whole prefix.
  Bitset EvalRuleScan(const Rule& rule) const;

  const Relation& relation_;
  size_t num_rows_;
  int num_threads_;
  // Shared task scheduler; null iff num_threads_ <= 1. Episodes
  // are tagged with `this`, so InRegionTagged(this) distinguishes "inside
  // one of *my* parallel regions" (read-only fan-out work) from a fresh
  // coordinating call — even when this whole evaluator runs nested inside
  // some other object's episode (fleet mode).
  TaskScheduler* sched_;
  // The condition cache of the cached evaluation path; null when it is
  // off. Looked up, filled and put back only on the coordinating thread
  // (the threading contract above).
  std::unique_ptr<ConditionCache> cache_;
  // Memoized concept masks keyed by (ontology pointer, concept id).
  mutable std::map<std::pair<const Ontology*, ConceptId>, std::vector<uint8_t>>
      mask_cache_;
};

}  // namespace rudolf

#endif  // RUDOLF_RULES_EVALUATOR_H_
