// Algorithm 2: adapt rules to exclude legitimate tuples.
//
// For every captured legitimate tuple l and every rule r capturing it, the
// engine ranks the attributes by the benefit of splitting r on them:
//   * numeric A ∈ [b,e] splits into [b, prev(l.A)] and [succ(l.A), e];
//   * categorical A ≤ c splits into one rule per concept of a greedy set
//     cover of c's leaves that excludes l.A (Section 4.2).
// The splits of every attribute are scored in one walk over r's capture
// (CaptureTracker::DeltaForSplit), cut into chunks that fan out across the
// session's eval threads on large prefixes. The best split is proposed to
// the expert; a rejection tries the next attribute. An accepted split
// replaces r with the replacement rules.

#ifndef RUDOLF_CORE_SPECIALIZE_H_
#define RUDOLF_CORE_SPECIALIZE_H_

#include <unordered_set>
#include <vector>

#include "core/capture_tracker.h"
#include "core/cost_model.h"
#include "core/proposal.h"
#include "expert/expert.h"
#include "rules/edit.h"

namespace rudolf {

/// Configuration of the specialization pass.
struct SpecializeOptions {
  CostModel cost_model;
  /// When false, categorical attributes are never split (RUDOLF -s).
  bool refine_categorical = true;
  /// Cap on legitimate tuples processed per pass (expert workload bound,
  /// like the generalizer's max_clusters_per_pass).
  size_t max_legit_tuples = 32;
  /// Safety valve on proposals per (tuple, rule) pair.
  size_t max_proposals_per_rule = 6;
};

/// Outcome counters of one specialization pass.
struct SpecializeStats {
  size_t tuples = 0;            ///< captured legitimate tuples examined
  size_t proposals = 0;
  size_t accepted = 0;
  size_t revised = 0;
  size_t rejected = 0;
  size_t splits_applied = 0;
  size_t rules_removed = 0;     ///< splits that eliminated a rule entirely
  size_t skipped_tuples = 0;    ///< tuples left captured (expert declined)
  size_t truncated_tuples = 0;  ///< captured legit tuples dropped by the
                                ///< max_legit_tuples cap (not examined)
  double expert_seconds = 0.0;
};

/// \brief Runs Algorithm 2 over the visible prefix of a relation.
class SpecializationEngine {
 public:
  /// Like GeneralizationEngine, the visible prefix and the rules come from
  /// the tracker handed to Run(), so the engine (and its dismissed-tuple
  /// memory) can persist across a session's rounds. Split scoring never
  /// evaluates a rule: every side narrows the rule, so the tracker counts
  /// every attribute's sides in one walk over the rule's own capture
  /// (CaptureTracker::DeltaForSplit).
  SpecializationEngine(const Relation& relation, SpecializeOptions options);

  /// One full pass over all captured legitimate tuples. The accepted splits
  /// are made to the tracker's rules and logged.
  SpecializeStats Run(CaptureTracker* tracker, Expert* expert, EditLog* log);

  /// All viable splits of the tracker's rule `rule_id` that exclude row
  /// `row`, ranked by benefit (best first) — exposed for tests and the
  /// interactive example. Empty unless `rule_id` is live, `row` is inside
  /// the tracker's prefix and the rule captures it: a side narrowed around
  /// a row outside the rule could widen the rule instead.
  std::vector<SplitProposal> RankSplits(const CaptureTracker& tracker,
                                        RuleId rule_id, size_t row) const;

 private:
  // Replaces `rule_id` by `replacements` in the tracker and logs it.
  void ApplySplit(CaptureTracker* tracker, EditLog* log, RuleId rule_id,
                  size_t attribute, const std::vector<Rule>& replacements,
                  EditSource source, SpecializeStats* stats);

  const Relation& relation_;
  SpecializeOptions options_;
  // Tuples whose every split the expert declined ("tolerated inclusion");
  // not re-proposed in later passes of the same session.
  std::unordered_set<size_t> dismissed_rows_;
};

}  // namespace rudolf

#endif  // RUDOLF_CORE_SPECIALIZE_H_
