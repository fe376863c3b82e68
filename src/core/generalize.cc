#include "core/generalize.h"

#include <algorithm>
#include <cassert>

#include "cluster/representative.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"

namespace rudolf {

GeneralizationEngine::GeneralizationEngine(const Relation& relation,
                                           GeneralizeOptions options)
    : relation_(relation), options_(std::move(options)) {}

Rule GeneralizationEngine::BuildRepresentative(
    const std::vector<size_t>& cluster_rows) const {
  Rule rep = RepresentativeOfRows(relation_, cluster_rows);
  if (options_.refine_categorical) return rep;
  // RUDOLF -s: no ontology available — a categorical attribute keeps its
  // value only when the whole cluster agrees on one leaf; otherwise the
  // representative cannot constrain it at all.
  const Schema& schema = relation_.schema();
  for (size_t i = 0; i < schema.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (def.kind != AttrKind::kCategorical) continue;
    CellValue first = relation_.Get(cluster_rows[0], i);
    bool uniform = true;
    for (size_t r : cluster_rows) {
      if (relation_.Get(r, i) != first) {
        uniform = false;
        break;
      }
    }
    rep.set_condition(i, uniform ? Condition::MakeCategorical(
                                       static_cast<ConceptId>(first))
                                 : Condition::TrivialFor(def));
  }
  return rep;
}

std::vector<GeneralizationProposal> GeneralizationEngine::RankCandidates(
    const CaptureTracker& tracker, const Rule& representative,
    size_t cluster_size) const {
  RUDOLF_TIMED_SCOPE("generalize.rank");
  RUDOLF_COUNTER_INC("generalize.rankings");
  const Schema& schema = relation_.schema();
  const RuleSet& rules = tracker.rules();

  // Stage 1: distance pre-filter (Equation 1).
  struct DistanceEntry {
    RuleId id;
    double distance;
  };
  std::vector<DistanceEntry> by_distance;
  for (RuleId id : rules.LiveIds()) {
    const Rule& rule = rules.Get(id);
    if (!options_.refine_categorical) {
      // Categorical conditions are immutable: the rule must already contain
      // the representative's categorical conditions to be a candidate.
      bool compatible = true;
      for (size_t i = 0; i < schema.arity(); ++i) {
        const AttributeDef& def = schema.attribute(i);
        if (def.kind == AttrKind::kCategorical &&
            !rule.condition(i).ContainsCondition(def,
                                                 representative.condition(i))) {
          compatible = false;
          break;
        }
      }
      if (!compatible) continue;
    }
    double d = options_.cost_model.Distance(schema, rule, representative);
    if (d >= 1e18) continue;  // unreachable generalization
    by_distance.push_back({id, d});
  }
  std::sort(by_distance.begin(), by_distance.end(),
            [](const DistanceEntry& a, const DistanceEntry& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
  if (by_distance.size() > options_.max_candidates_scored) {
    by_distance.resize(options_.max_candidates_scored);
  }

  // Stage 2: full Equation 2 scoring of the shortlisted rules, as one
  // batch of replacements.
  std::vector<GeneralizationProposal> proposals;
  proposals.reserve(by_distance.size());
  for (const DistanceEntry& entry : by_distance) {
    const Rule& rule = rules.Get(entry.id);
    GeneralizationProposal p;
    p.rule_id = entry.id;
    p.original = rule;
    p.proposed = rule.SmallestGeneralizationFor(schema, representative);
    p.representative = representative;
    p.cluster_size = cluster_size;
    p.changed_attributes = rule.DiffAttributes(p.proposed);
    p.categorical_refinement = options_.refine_categorical;
    p.distance = entry.distance;
    proposals.push_back(std::move(p));
  }
  std::vector<RuleId> ids;
  std::vector<const Rule*> proposed;
  for (const GeneralizationProposal& p : proposals) {
    ids.push_back(p.rule_id);
    proposed.push_back(&p.proposed);
  }
  std::vector<BenefitDelta> deltas = tracker.DeltaForReplace(ids, proposed);
  for (size_t i = 0; i < proposals.size(); ++i) {
    proposals[i].delta = deltas[i];
    proposals[i].score =
        proposals[i].distance - options_.cost_model.Benefit(deltas[i]);
  }
  std::sort(proposals.begin(), proposals.end(),
            [](const GeneralizationProposal& a, const GeneralizationProposal& b) {
              return a.score < b.score ||
                     (a.score == b.score && a.rule_id < b.rule_id);
            });
  if (proposals.size() > options_.top_k) proposals.resize(options_.top_k);
  return proposals;
}

void GeneralizationEngine::ApplyRuleChange(CaptureTracker* tracker, EditLog* log,
                                           RuleId id, const Rule& old_rule,
                                           const Rule& new_rule, EditSource source) {
  const Schema& schema = relation_.schema();
  std::vector<size_t> changed = old_rule.DiffAttributes(new_rule);
  tracker->Replace(id, new_rule);
  // All condition changes of one accepted proposal form one rule update.
  uint64_t group = changed.size() > 1 ? log->NewGroup() : 0;
  for (size_t attr : changed) {
    Edit edit;
    edit.kind = EditKind::kModifyCondition;
    edit.source = source;
    edit.rule = id;
    edit.attribute = attr;
    edit.cost = options_.cost_model.operations().modify_condition;
    edit.group = group;
    edit.note = "generalize " + schema.attribute(attr).name;
    log->Record(std::move(edit));
  }
}

GeneralizeStats GeneralizationEngine::Run(CaptureTracker* tracker, Expert* expert,
                                          EditLog* log) {
  RUDOLF_SPAN("session.generalize");
  GeneralizeStats stats;
  const Schema& schema = relation_.schema();
  const RuleSet& rules = tracker->rules();

  // Uncaptured, visibly fraudulent rows of the tracker's prefix.
  const size_t prefix = tracker->prefix_rows();
  std::vector<size_t> uncovered_fraud;
  for (size_t r = 0; r < prefix; ++r) {
    if (relation_.VisibleLabel(r) == Label::kFraud && !tracker->IsCovered(r)) {
      uncovered_fraud.push_back(r);
    }
  }
  if (uncovered_fraud.empty()) return stats;

  // Vary the (order-sensitive) clustering between passes: a mixed
  // pattern+noise cluster the expert dismissed in one pass can come apart
  // into a recognizable pattern cluster in the next.
  ClusteringOptions clustering = options_.clustering;
  clustering.seed += pass_counter_;
  if (pass_counter_ > 0) {
    Rng shuffle_rng(clustering.seed);
    shuffle_rng.Shuffle(&uncovered_fraud);
  }
  ++pass_counter_;

  std::vector<std::vector<size_t>> clusters;
  {
    RUDOLF_TIMED_SCOPE("generalize.cluster");
    clusters = ClusterRows(relation_, uncovered_fraud, clustering);
  }
  stats.clusters = clusters.size();
  RUDOLF_COUNTER_ADD("generalize.clusters", clusters.size());
  // Triage: big clusters (real attack bursts) first; sparse noise last.
  std::stable_sort(clusters.begin(), clusters.end(),
                   [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
                     return a.size() > b.size();
                   });
  if (clusters.size() > options_.max_clusters_per_pass) {
    stats.skipped_clusters += clusters.size() - options_.max_clusters_per_pass;
    clusters.resize(options_.max_clusters_per_pass);
  }

  for (const std::vector<size_t>& cluster : clusters) {
    Rule representative = BuildRepresentative(cluster);
    // Previously dismissed as noise? Don't ask the expert again. (Exact
    // match only: a *subset* of a dismissed mixed cluster may well be a
    // genuine pattern the expert would accept.)
    bool remembered = false;
    for (const Rule& rejected : rejected_representatives_) {
      if (rejected == representative) {
        remembered = true;
        break;
      }
    }
    if (remembered) {
      ++stats.skipped_clusters;
      continue;
    }
    std::vector<GeneralizationProposal> candidates =
        RankCandidates(*tracker, representative, cluster.size());
    for (GeneralizationProposal& candidate : candidates) {
      candidate.cluster_rows = cluster;
    }

    bool covered = false;
    bool abandoned = false;
    size_t shown = 0;
    for (GeneralizationProposal& proposal : candidates) {
      if (shown >= options_.max_proposals_per_cluster) break;
      // The rule may have changed while covering a previous cluster; it may
      // even cover the representative already.
      if (!rules.IsLive(proposal.rule_id)) continue;
      const Rule current = rules.Get(proposal.rule_id);
      if (current.ContainsRule(schema, representative)) {
        covered = true;
        break;
      }
      if (!(current == proposal.original)) {
        // Recompute the proposal against the rule's current shape.
        proposal.original = current;
        proposal.proposed = current.SmallestGeneralizationFor(schema, representative);
        proposal.changed_attributes = current.DiffAttributes(proposal.proposed);
        proposal.distance =
            options_.cost_model.Distance(schema, current, representative);
        proposal.delta = tracker->DeltaForReplace(proposal.rule_id,
                                                  tracker->Eval(proposal.proposed));
        proposal.score = proposal.distance - options_.cost_model.Benefit(proposal.delta);
      }
      ++shown;
      ++stats.proposals;
      GeneralizationReview review =
          expert->ReviewGeneralization(proposal, relation_);
      stats.expert_seconds += review.seconds;
      switch (review.action) {
        case GeneralizationReview::Action::kAccept:
          ApplyRuleChange(tracker, log, proposal.rule_id, proposal.original,
                          proposal.proposed, EditSource::kSystem);
          ++stats.accepted;
          break;
        case GeneralizationReview::Action::kAcceptRevised:
          ApplyRuleChange(tracker, log, proposal.rule_id, proposal.original,
                          review.revised, EditSource::kExpert);
          ++stats.revised;
          break;
        case GeneralizationReview::Action::kReject:
          ++stats.rejected;
          continue;
        case GeneralizationReview::Action::kRejectCluster:
          ++stats.rejected;
          abandoned = true;
          break;
      }
      if (abandoned) break;
      if (rules.Get(proposal.rule_id).ContainsRule(schema, representative)) {
        covered = true;
        break;
      }
      // The expert's revision did not cover the representative — keep
      // walking the remaining candidates.
    }

    if (abandoned) {
      ++stats.skipped_clusters;
      rejected_representatives_.push_back(representative);
      continue;
    }
    if (!covered) {
      // Line 18: a rule selecting exactly f(C). The representative *is* the
      // rule. The expert may still decline (tolerated omission).
      GeneralizationProposal p;
      p.rule_id = kInvalidRule;
      p.proposed = representative;
      p.representative = representative;
      p.cluster_size = cluster.size();
      p.cluster_rows = cluster;
      p.categorical_refinement = options_.refine_categorical;
      Bitset capture = tracker->Eval(representative);
      p.delta = tracker->DeltaForAdd(capture);
      p.score = -options_.cost_model.Benefit(p.delta);
      ++stats.proposals;
      GeneralizationReview review = expert->ReviewGeneralization(p, relation_);
      stats.expert_seconds += review.seconds;
      if (review.action == GeneralizationReview::Action::kReject ||
          review.action == GeneralizationReview::Action::kRejectCluster) {
        ++stats.rejected;
        ++stats.skipped_clusters;
        // Only a deliberate "not an attack" dismissal is remembered; a
        // plain rejection of the transaction-specific rule leaves the
        // cluster eligible for review once new evidence arrives.
        if (review.action == GeneralizationReview::Action::kRejectCluster) {
          rejected_representatives_.push_back(representative);
        }
        continue;
      }
      const Rule& to_add = review.action == GeneralizationReview::Action::kAccept
                               ? p.proposed
                               : review.revised;
      // The expert may hand back a rule that already exists (e.g. adopting
      // a scheme signature a previous cluster installed); don't duplicate.
      bool duplicate = false;
      for (RuleId live : rules.LiveIds()) {
        if (rules.Get(live) == to_add) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        ++stats.skipped_clusters;
        continue;
      }
      RuleId id = tracker->Add(to_add);
      Edit edit;
      edit.kind = EditKind::kAddRule;
      edit.source = review.action == GeneralizationReview::Action::kAccept
                        ? EditSource::kSystem
                        : EditSource::kExpert;
      edit.rule = id;
      edit.cost = options_.cost_model.operations().add_rule;
      edit.note = "new rule for uncovered cluster";
      log->Record(std::move(edit));
      ++stats.new_rules;
      if (review.action == GeneralizationReview::Action::kAcceptRevised) {
        ++stats.revised;
      } else {
        ++stats.accepted;
      }
    }
  }
  RUDOLF_COUNTER_ADD("generalize.proposals", stats.proposals);
  RUDOLF_COUNTER_ADD("generalize.accepted", stats.accepted + stats.revised);
  RUDOLF_COUNTER_ADD("generalize.rejected", stats.rejected);
  return stats;
}

}  // namespace rudolf
