#include "core/specialize.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rudolf {

SpecializationEngine::SpecializationEngine(const Relation& relation,
                                           SpecializeOptions options)
    : relation_(relation), options_(std::move(options)) {}

std::vector<SplitProposal> SpecializationEngine::RankSplits(
    const CaptureTracker& tracker, RuleId rule_id, size_t row) const {
  RUDOLF_TIMED_SCOPE("specialize.rank_splits");
  RUDOLF_COUNTER_INC("specialize.rankings");
  std::vector<SplitProposal> proposals;
  // The sides below narrow the rule around the row's values, which keeps
  // them inside the rule (as DeltaForSplit requires) only when the rule
  // captures the row.
  if (!tracker.rules().IsLive(rule_id) || row >= tracker.prefix_rows() ||
      !tracker.RuleCapture(rule_id).Test(row)) {
    return proposals;
  }
  const Schema& schema = relation_.schema();
  const Rule& rule = tracker.rules().Get(rule_id);
  Tuple l = relation_.GetRow(row);

  std::vector<AttributeSplit> splits;
  for (size_t attr = 0; attr < schema.arity(); ++attr) {
    const AttributeDef& def = schema.attribute(attr);
    const Condition& cond = rule.condition(attr);
    AttributeSplit split{attr, {}};
    std::vector<Condition>& sides = split.sides;

    if (def.kind == AttrKind::kNumeric) {
      const Interval& iv = cond.interval();
      int64_t v = l[attr];
      // prev(l.A) / succ(l.A) over the discrete int64 domain. kNegInf/kPosInf
      // (INT64_MIN/MAX) are open-end sentinels, not data values, so a side
      // whose finite bound would land *on* a sentinel (v-1 == kNegInf or
      // v+1 == kPosInf) could only capture sentinel-valued cells — skip it
      // rather than emit an interval that reads as unbounded. The `&&`
      // short-circuit also keeps v±1 from overflowing at the domain extremes.
      if (iv.lo < v && v - 1 > kNegInf) {
        sides.push_back(Condition::MakeNumeric({iv.lo, v - 1}));
      }
      if (iv.hi > v && v + 1 < kPosInf) {
        sides.push_back(Condition::MakeNumeric({v + 1, iv.hi}));
      }
      // Both sides empty (point condition) ⇒ no sides: the split removes
      // the rule outright.
    } else {
      if (!options_.refine_categorical) continue;
      ConceptId within = cond.concept_id();
      ConceptId leaf = static_cast<ConceptId>(l[attr]);
      std::vector<ConceptId> cover = def.ontology->GreedyLeafCover(within, leaf);
      // cover empty while the condition has other leaves means they are
      // unreachable without including l.A — then splitting on this
      // attribute only works by removing the rule when l.A is the sole leaf.
      if (cover.empty() && def.ontology->LeafCount(within) > 1) continue;
      for (ConceptId c : cover) sides.push_back(Condition::MakeCategorical(c));
    }
    splits.push_back(std::move(split));
  }

  // Every attribute's split is scored by one walk over the rule's capture.
  std::vector<SplitScore> scores = tracker.DeltaForSplit(rule_id, splits);
  for (size_t s = 0; s < splits.size(); ++s) {
    SplitProposal p;
    p.rule_id = rule_id;
    p.original = rule;
    p.attribute = splits[s].attr;
    p.excluded = l;
    p.excluded_row = row;
    p.delta = scores[s].delta;
    p.replacement_counts = std::move(scores[s].side_counts);
    p.benefit = options_.cost_model.Benefit(p.delta);
    p.replacements.reserve(splits[s].sides.size());
    for (const Condition& side : splits[s].sides) {
      Rule replacement = rule;
      replacement.set_condition(p.attribute, side);
      p.replacements.push_back(std::move(replacement));
    }
    proposals.push_back(std::move(p));
  }

  std::sort(proposals.begin(), proposals.end(),
            [](const SplitProposal& a, const SplitProposal& b) {
              return a.benefit > b.benefit ||
                     (a.benefit == b.benefit && a.attribute < b.attribute);
            });
  return proposals;
}

void SpecializationEngine::ApplySplit(CaptureTracker* tracker, EditLog* log,
                                      RuleId rule_id, size_t attribute,
                                      const std::vector<Rule>& replacements,
                                      EditSource source, SpecializeStats* stats) {
  const Schema& schema = relation_.schema();
  tracker->Remove(rule_id);
  for (const Rule& r : replacements) tracker->Add(r);
  Edit edit;
  edit.rule = rule_id;
  edit.attribute = attribute;
  edit.source = source;
  if (replacements.empty()) {
    edit.kind = EditKind::kRemoveRule;
    edit.cost = options_.cost_model.operations().remove_rule;
    edit.note = "remove rule (no remaining values)";
    ++stats->rules_removed;
  } else if (replacements.size() == 1) {
    // A one-sided "split" is really a condition narrowing: the rule is
    // replaced by a single tighter version of itself.
    edit.kind = EditKind::kModifyCondition;
    edit.cost = options_.cost_model.operations().modify_condition;
    edit.note = "narrow " + schema.attribute(attribute).name;
    ++stats->splits_applied;
  } else {
    edit.kind = EditKind::kSplitRule;
    edit.cost = options_.cost_model.operations().split_rule;
    edit.note = "split on " + schema.attribute(attribute).name;
    ++stats->splits_applied;
  }
  log->Record(std::move(edit));
}

SpecializeStats SpecializationEngine::Run(CaptureTracker* tracker, Expert* expert,
                                          EditLog* log) {
  RUDOLF_SPAN("session.specialize");
  SpecializeStats stats;
  const RuleSet& rules = tracker->rules();

  // Captured, visibly legitimate rows of the prefix (snapshot; coverage may
  // change as rules are split, so each is re-checked when reached).
  const size_t prefix = tracker->prefix_rows();
  std::vector<size_t> legit_rows;
  for (size_t r = 0; r < prefix; ++r) {
    if (relation_.VisibleLabel(r) == Label::kLegitimate && tracker->IsCovered(r) &&
        dismissed_rows_.count(r) == 0) {
      legit_rows.push_back(r);
    }
  }
  if (legit_rows.size() > options_.max_legit_tuples) {
    stats.truncated_tuples = legit_rows.size() - options_.max_legit_tuples;
    legit_rows.resize(options_.max_legit_tuples);
  }

  for (size_t row : legit_rows) {
    if (!tracker->IsCovered(row)) continue;  // already excluded along the way
    ++stats.tuples;
    // Ω_l: the rules capturing l.
    std::vector<RuleId> capturing;
    for (RuleId id : rules.LiveIds()) {
      if (tracker->RuleCapture(id).Test(row)) capturing.push_back(id);
    }
    bool any_rejected_entirely = false;
    for (RuleId rule_id : capturing) {
      if (!rules.IsLive(rule_id)) continue;
      if (!tracker->RuleCapture(rule_id).Test(row)) continue;
      std::vector<SplitProposal> proposals = RankSplits(*tracker, rule_id, row);
      bool applied = false;
      size_t shown = 0;
      for (SplitProposal& p : proposals) {
        if (shown >= options_.max_proposals_per_rule) break;
        ++shown;
        ++stats.proposals;
        SplitReview review = expert->ReviewSplit(p, relation_);
        stats.expert_seconds += review.seconds;
        switch (review.action) {
          case SplitReview::Action::kAccept:
            ApplySplit(tracker, log, rule_id, p.attribute, p.replacements,
                       EditSource::kSystem, &stats);
            ++stats.accepted;
            applied = true;
            break;
          case SplitReview::Action::kAcceptRevised:
            ApplySplit(tracker, log, rule_id, p.attribute, review.revised,
                       EditSource::kExpert, &stats);
            ++stats.revised;
            applied = true;
            break;
          case SplitReview::Action::kReject:
            ++stats.rejected;
            break;
        }
        if (applied) break;
      }
      if (!applied) any_rejected_entirely = true;
    }
    if (tracker->IsCovered(row) && any_rejected_entirely) {
      // The expert declined every split (e.g. knows the report is wrong, or
      // tolerates the inclusion); the tuple stays captured and is not
      // brought up again this session.
      ++stats.skipped_tuples;
      dismissed_rows_.insert(row);
    }
  }
  RUDOLF_COUNTER_ADD("specialize.proposals", stats.proposals);
  RUDOLF_COUNTER_ADD("specialize.accepted", stats.accepted + stats.revised);
  RUDOLF_COUNTER_ADD("specialize.rejected", stats.rejected);
  return stats;
}

}  // namespace rudolf
