// Incremental accounting of Φ(I): which rows each live rule captures, how
// many rules capture each row, and what the benefit deltas of hypothetical
// edits (replace / add / split a rule) would be — without re-evaluating the
// whole rule set. This is what keeps Algorithm 1/2 proposal scoring under
// the paper's "at most one second": a replace or add delta is a handful of
// masked popcounts per 64 rows over the tracker's bit planes (see
// DeltaForReplace; a batch of generalization candidates is evaluated and
// scored in parallel), and the splits of a rule on every attribute are one
// walk over the rule's own capture, cut into chunks that fan out (see
// DeltaForSplit).

#ifndef RUDOLF_CORE_CAPTURE_TRACKER_H_
#define RUDOLF_CORE_CAPTURE_TRACKER_H_

#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "rules/evaluator.h"
#include "rules/rule_set.h"

namespace rudolf {

/// One attribute's split of a rule (see CaptureTracker::DeltaForSplit): the
/// rule is replaced by one copy of itself per entry of `sides`, each with
/// that condition on `attr` (no sides: the rule is removed).
struct AttributeSplit {
  size_t attr = 0;
  std::vector<Condition> sides;
};

/// What one AttributeSplit would do: its benefit delta, and each copy's
/// visible-label counts, in `sides` order.
struct SplitScore {
  BenefitDelta delta;
  std::vector<LabelCounts> side_counts;
};

/// \brief Tracks per-rule capture bitmaps over a prefix of the relation.
///
/// The tracker is bound to the first `prefix_rows` rows ("the past" the
/// algorithms are allowed to see) and owns the rule set under refinement:
/// the engines read rules() and edit it one rule at a time through Add,
/// Replace and Remove, and edits made elsewhere reach it in bulk through
/// Sync. Every path keeps the rules, the bitmaps and the cover counts
/// consistent.
///
/// Four bit planes over the prefix feed the benefit deltas: `covered`
/// (cover count > 0) and `once` (cover count == 1) follow every
/// cover-count change, and `fraud` / `legit` hold each row's visible label
/// (an unlabeled row is in neither), kept current by ExtendPrefix and
/// OnVisibleLabelChanged.
class CaptureTracker {
 public:
  /// Copies `rules` and builds bitmaps for every live rule over the first
  /// `prefix_rows` rows of `relation` (SIZE_MAX = all rows). The initial
  /// bitmap build parallelizes across rules when `eval.num_threads > 1`.
  CaptureTracker(const Relation& relation, const RuleSet& rules,
                 size_t prefix_rows = static_cast<size_t>(-1),
                 EvalOptions eval = {});

  /// The prefix, which the evaluator owns.
  size_t prefix_rows() const { return evaluator_.num_rows(); }
  const RuleEvaluator& evaluator() const { return evaluator_; }
  /// The rules the tracker tracks.
  const RuleSet& rules() const { return rules_; }

  /// Extends the tracker over rows [prefix_rows(), new_prefix) after the
  /// visible stream advanced (clamped to the relation's current rows): the
  /// evaluator moves its prefix, each tracked rule is evaluated only over
  /// the new row range (parallel across rules when the tracker was built
  /// with num_threads > 1), and its bitmap, the cover counts, and the
  /// maintained label counts are extended in place. The rule scans are
  /// O(batch × rules); cached condition bitmaps are completed on their next
  /// hit (RuleEvaluator::ExtendPrefix). Bit-identical to building a fresh
  /// tracker over the new prefix. A `new_prefix` below prefix_rows() is the
  /// evaluator's checked no-op (counted as `index.extend_to.rejected`), and
  /// leaves the tracker as it was. The relation must have grown by pure
  /// appends since the last build/extension.
  void ExtendPrefix(size_t new_prefix);

  /// Brings the tracker in line with `rules` after edits made outside it
  /// (simplification, caller edits): ids no longer live are dropped, rules
  /// that changed are re-evaluated, new ones are added, and rules() becomes
  /// `rules`, tombstones and next id included. The state is bit-identical
  /// to a fresh build over `rules` at the same prefix.
  void Sync(const RuleSet& rules);

  /// Label fixup: must be called (with the row's previous and new visible
  /// label) whenever a row *inside* the prefix is relabeled while the
  /// tracker is live — covered or not — or the label planes go stale, and
  /// with them every DeltaFor* and TotalCounts(). Label changes beyond the
  /// prefix need no notification — ExtendPrefix reads them when the rows
  /// come into view.
  void OnVisibleLabelChanged(size_t row, Label old_label, Label new_label);

  /// Capture bitmap of one live rule.
  const Bitset& RuleCapture(RuleId id) const;

  /// Rows captured by the whole rule set (cover count > 0): a copy of the
  /// covered plane.
  Bitset UnionCapture() const { return covered_; }

  /// Visible-label counts of the current Φ(I). Maintained incrementally by
  /// the edits and ExtendPrefix — O(1), no union scan.
  LabelCounts TotalCounts() const { return total_counts_; }

  /// True if the row is captured by at least one rule.
  bool IsCovered(size_t row) const { return cover_count_[row] > 0; }

  /// Number of live rules capturing the row.
  uint32_t CoverCount(size_t row) const { return cover_count_[row]; }

  /// Evaluates a rule over the prefix (convenience wrapper).
  Bitset Eval(const Rule& rule) const;

  /// Benefit delta if rule `id`'s capture became `new_capture`. Computed
  /// one 64-row word at a time by simd::CountCoverDelta: the rows the edit
  /// newly covers are new & ~old & ~covered, the rows it leaves uncovered
  /// old & ~new & once, each split by the label planes. Every capture
  /// argument of the DeltaFor* family must cover exactly the prefix
  /// (size() == prefix_rows(), like an Eval result).
  BenefitDelta DeltaForReplace(RuleId id, const Bitset& new_capture) const;

  /// DeltaForReplace for a batch of edits, rule ids[i] replaced by
  /// *rules[i]: the captures come from one RuleEvaluator::EvalRules batch,
  /// and each is scored as it is intersected, in parallel across the batch
  /// when the evaluator fans out. The generalization candidates of one
  /// ranking are such a batch.
  std::vector<BenefitDelta> DeltaForReplace(
      const std::vector<RuleId>& ids,
      const std::vector<const Rule*>& rules) const;

  /// Benefit delta if a rule with capture `capture` were added.
  BenefitDelta DeltaForAdd(const Bitset& capture) const;

  /// The score of each split of rule `id` in `splits`, in order. Every side
  /// must accept only values the rule's own condition on its attribute
  /// accepts, so each copy captures a subset of the rule's capture and a
  /// split gains no row. One walk over the rule's capture reads each row's
  /// label and `once` bits a single time and tests each split's cell
  /// against that split's sides: a copy counts the rows its side keeps, and
  /// a row no side of a split keeps is lost to it when the rule alone
  /// covers the row. The walk cuts the capture's words into chunks of
  /// RuleEvaluator::kChunkWords, which fan out under the evaluator's rule,
  /// and sums the per-chunk counts in chunk order.
  std::vector<SplitScore> DeltaForSplit(
      RuleId id, const std::vector<AttributeSplit>& splits) const;

  /// Edits of rules(): each evaluates the rule's capture and moves the
  /// cover and label counts along. Add returns the id rules() assigned. Add
  /// and Replace take the rule by value, so it may be one of rules()'s own.
  RuleId Add(Rule rule);
  void Replace(RuleId id, Rule rule);
  void Remove(RuleId id);

  /// Approximate heap bytes held: per-rule capture bitmaps, cover counts,
  /// the four bit planes (4 bits per prefix row), and the evaluator's
  /// caches (condition bitmaps and concept masks).
  /// The fleet's per-tenant accounting; call only while the tracker is
  /// quiescent.
  size_t ApproxMemoryBytes() const;

  /// Tier-1 fleet eviction: drops the evaluator's condition-bitmap cache
  /// (the captures and cover counts stay). Later candidate evaluations
  /// scan again on demand, bit-identically. Quiescent-only, like
  /// ApproxMemoryBytes.
  void ReleaseCachedBitmaps();

 private:
  // Counts the rows whose coverage replacing old with new would change.
  BenefitDelta DeltaBetween(const Bitset& old_capture,
                            const Bitset& new_capture) const;

  // Writes one row's visible label into the fraud and legit planes.
  void SetLabel(size_t row, Label label);

  // The field of LabelCounts for one row's visible label, read from the
  // planes.
  size_t LabelCounts::*LabelField(size_t row) const;

  // Adjusts total_counts_ for a row entering (+1) or leaving (-1) the union.
  void AdjustTotals(size_t row, int direction);

  // Raises (or lowers) one row's cover count, keeping the covered and once
  // planes and total_counts_ in sync across the 0 <-> 1 <-> 2 transitions.
  void RaiseCover(size_t row);
  void LowerCover(size_t row);

  // Installs `capture` as rule `id`'s bitmap, replacing any old one and
  // moving the cover counts along.
  void SetCapture(RuleId id, Bitset capture);

  const Relation& relation_;
  RuleEvaluator evaluator_;
  RuleSet rules_;
  std::unordered_map<RuleId, Bitset> captures_;
  std::vector<uint32_t> cover_count_;
  // The bit planes over the prefix (see the class comment). They belong to
  // the tracker, not the relation: an appender may write rows past this
  // prefix concurrently, and a 64-row word would straddle the two.
  Bitset covered_;
  Bitset once_;
  Bitset fraud_;
  Bitset legit_;
  LabelCounts total_counts_;
};

}  // namespace rudolf

#endif  // RUDOLF_CORE_CAPTURE_TRACKER_H_
