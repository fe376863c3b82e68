// Algorithm 1: generalize rules to capture new fraudulent tuples.
//
//   1. Cluster the uncaptured (visibly) fraudulent transactions.
//   2. Per cluster, compute the representative tuple f(C) and rank the rules
//      by Equation 2 (distance minus benefit of the minimal generalization).
//      The benefits of a ranking's shortlist are one batch
//      (CaptureTracker::DeltaForReplace over RuleEvaluator::EvalRules),
//      scored in parallel when the tracker's evaluator fans out.
//   3. Walk the top-k candidates through the expert: accept / revise /
//      reject; when the candidates run dry, propose a transaction-specific
//      rule that selects exactly f(C) (line 18).

#ifndef RUDOLF_CORE_GENERALIZE_H_
#define RUDOLF_CORE_GENERALIZE_H_

#include <vector>

#include "cluster/strategy.h"
#include "core/capture_tracker.h"
#include "core/cost_model.h"
#include "core/proposal.h"
#include "expert/expert.h"
#include "rules/edit.h"

namespace rudolf {

/// Configuration of the generalization pass.
struct GeneralizeOptions {
  /// Rule evaluation runs on the tracker handed to Run(), at its width; a
  /// session sets a serial clustering's width from SessionOptions::eval.
  ClusteringOptions clustering;
  /// Number of candidate rules ranked per representative (the paper's
  /// top-k).
  size_t top_k = 3;
  CostModel cost_model;
  /// When false the engine never touches categorical conditions (the
  /// paper's RUDOLF -s ablation, mimicking numeric-only prior systems):
  /// representatives degrade categorical attributes to "all values" unless
  /// the cluster is single-valued, and rules whose categorical conditions
  /// do not already contain the representative are not candidates.
  bool refine_categorical = true;
  /// Candidates pre-filtered by Equation 1 distance before the (more
  /// expensive) benefit evaluation, which scores them as one batch.
  size_t max_candidates_scored = 16;
  /// Safety valve on expert interactions per cluster.
  size_t max_proposals_per_cluster = 8;
  /// Expert-workload triage: clusters are processed in decreasing size, and
  /// at most this many are brought to the expert per pass (sparse noise
  /// clusters never reach the expert; they are counted as skipped).
  size_t max_clusters_per_pass = 32;
};

/// Outcome counters of one generalization pass.
struct GeneralizeStats {
  size_t clusters = 0;
  size_t proposals = 0;          ///< proposals shown to the expert
  size_t accepted = 0;           ///< accepted as proposed
  size_t revised = 0;            ///< accepted with expert changes
  size_t rejected = 0;           ///< rejected proposals
  size_t new_rules = 0;          ///< transaction-specific rules added
  size_t skipped_clusters = 0;   ///< clusters the expert declined to cover
  double expert_seconds = 0.0;

  size_t interactions() const { return proposals; }
};

/// \brief Runs Algorithm 1 over the visible prefix of a relation.
class GeneralizationEngine {
 public:
  /// The prefix of rows visible to a pass is taken from the tracker given
  /// to Run(), so one engine can serve a whole session as new transactions
  /// arrive — keeping its expert memories (rejected representatives) alive.
  GeneralizationEngine(const Relation& relation, GeneralizeOptions options);

  /// One full pass: clusters uncaptured fraud and interacts with `expert`
  /// until every cluster is covered, skipped, or out of candidates. The
  /// accepted edits are made to the tracker's rules and logged.
  GeneralizeStats Run(CaptureTracker* tracker, Expert* expert, EditLog* log);

  /// The ranked top-k candidate proposals among the tracker's rules for one
  /// representative — exposed for tests and the interactive example.
  std::vector<GeneralizationProposal> RankCandidates(
      const CaptureTracker& tracker, const Rule& representative,
      size_t cluster_size) const;

  /// Builds the representative of a cluster, honoring refine_categorical.
  Rule BuildRepresentative(const std::vector<size_t>& cluster_rows) const;

  /// Representatives the expert has dismissed as "not a real attack".
  /// Clusters whose representative falls inside one are skipped without
  /// bothering the expert again (the engine is kept alive across the
  /// session's generalize/specialize rounds for exactly this memory).
  const std::vector<Rule>& rejected_representatives() const {
    return rejected_representatives_;
  }

 private:
  // Applies an accepted rule change to the tracker and logs it.
  void ApplyRuleChange(CaptureTracker* tracker, EditLog* log, RuleId id,
                       const Rule& old_rule, const Rule& new_rule,
                       EditSource source);

  const Relation& relation_;
  GeneralizeOptions options_;
  std::vector<Rule> rejected_representatives_;
  // Number of Run() passes served; perturbs the clustering between passes.
  uint64_t pass_counter_ = 0;
};

}  // namespace rudolf

#endif  // RUDOLF_CORE_GENERALIZE_H_
