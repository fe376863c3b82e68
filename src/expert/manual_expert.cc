#include "expert/manual_expert.h"

#include <algorithm>

#include "cluster/representative.h"
#include "rules/evaluator.h"

namespace rudolf {

ManualExpert::ManualExpert(const Dataset& dataset, ManualExpertOptions options)
    : dataset_(dataset),
      options_(options),
      time_model_(options.time, options.seed ^ 0xABCDULL),
      rng_(options.seed) {}

Rule ManualExpert::WorkingRuleFor(const AttackPattern* pattern) {
  const CreditCardSchemaLayout& lay = dataset_.cc.layout;
  Rule rule = RepresentativeOfRows(*dataset_.relation, seen_[pattern]);
  // Human rounding of the hull.
  Interval clock = rule.condition(lay.time).interval();
  clock.lo = std::max<int64_t>(0, clock.lo - 2);
  clock.hi = std::min<int64_t>(24 * 60 - 1, clock.hi + 2);
  rule.set_condition(lay.time, Condition::MakeNumeric(clock));
  Interval amount = rule.condition(lay.amount).interval();
  amount.lo = (amount.lo / 10) * 10;
  if (amount.hi - amount.lo >= 40) amount.hi = kPosInf;  // "that amount or more"
  rule.set_condition(lay.amount, Condition::MakeNumeric(amount));
  // No conditions on the score or the client segment when hand-writing.
  rule.set_condition(lay.risk_score, Condition::TrivialFor(dataset_.cc.schema
                                                               ->attribute(lay.risk_score)));
  rule.set_condition(lay.client_type, Condition::TrivialFor(dataset_.cc.schema
                                                                ->attribute(lay.client_type)));
  return rule;
}

const AttackPattern* ManualExpert::RecognizePattern(const Tuple& tuple) {
  if (!options_.per_pattern_recognition &&
      rng_.Bernoulli(options_.recognition_error)) {
    return nullptr;
  }
  const AttackPattern* best = nullptr;
  size_t best_specificity = 0;
  for (const AttackPattern& p : dataset_.patterns) {
    if (!p.Matches(dataset_.cc, tuple)) continue;
    size_t spec = p.ToRule(dataset_.cc).NumNonTrivial(*dataset_.cc.schema);
    if (best == nullptr || spec > best_specificity) {
      best = &p;
      best_specificity = spec;
    }
  }
  if (best != nullptr && options_.per_pattern_recognition) {
    // One draw per scheme: either this expert sees it or they never do.
    auto it = recognizes_.find(best);
    if (it == recognizes_.end()) {
      it = recognizes_.emplace(best, !rng_.Bernoulli(options_.recognition_error))
               .first;
    }
    if (!it->second) return nullptr;
  }
  return best;
}

void ManualExpert::UpsertPatternRule(RuleSet* rules, const Rule& target,
                                     EditLog* log) {
  const Schema& schema = *dataset_.cc.schema;
  // An existing rule of the same attack is one the target contains (stale
  // rules are tighter versions of the true signature).
  for (RuleId id : rules->LiveIds()) {
    const Rule& rule = rules->Get(id);
    if (rule == target) return;  // already right
    if (target.ContainsRule(schema, rule)) {
      std::vector<size_t> changed = rule.DiffAttributes(target);
      rules->Replace(id, target);
      uint64_t group = changed.size() > 1 ? log->NewGroup() : 0;
      for (size_t attr : changed) {
        Edit edit;
        edit.kind = EditKind::kModifyCondition;
        edit.source = EditSource::kExpert;
        edit.rule = id;
        edit.attribute = attr;
        edit.group = group;
        edit.note = "manual retarget of " + schema.attribute(attr).name;
        log->Record(std::move(edit));
      }
      return;
    }
  }
  RuleId id = rules->AddRule(target);
  Edit edit;
  edit.kind = EditKind::kAddRule;
  edit.source = EditSource::kExpert;
  edit.rule = id;
  edit.note = "manual new rule";
  log->Record(std::move(edit));
}

ManualRoundStats ManualExpert::RunRound(RuleSet* rules, size_t prefix_rows,
                                        EditLog* log) {
  ManualRoundStats stats;
  const Relation& relation = *dataset_.relation;
  const Schema& schema = *dataset_.cc.schema;
  size_t prefix = std::min(prefix_rows, relation.NumRows());

  // Snapshot of the problematic transactions at round start. Each rule is
  // evaluated once, so an index would not pay for its build: one scan union
  // over the prefix.
  RuleEvaluator evaluator(relation, prefix, EvalOptions{.use_index = false});
  Bitset covered(prefix);
  evaluator.EvalRuleSetRange(*rules, 0, prefix, &covered);
  std::vector<size_t> problematic;  // stream order: frauds missed, legits hit
  for (size_t r = 0; r < prefix; ++r) {
    Label l = relation.VisibleLabel(r);
    if ((l == Label::kFraud && !covered.Test(r)) ||
        (l == Label::kLegitimate && covered.Test(r))) {
      problematic.push_back(r);
    }
  }

  size_t budget = options_.max_fixes_per_round;
  for (size_t row : problematic) {
    if (budget == 0) {
      ++stats.capacity_exhausted;
      continue;
    }
    // The expert remembers transactions inspected in earlier rounds and
    // does not re-spend workday capacity on them.
    if (inspected_.count(row) > 0) {
      ++stats.skipped;
      continue;
    }
    Tuple tuple = relation.GetRow(row);
    Label label = relation.VisibleLabel(row);
    // Re-check against the *current* rules — an earlier fix may have
    // handled this transaction already (cheap glance, no time charged).
    bool covered_now = rules->CapturesRow(relation, row);
    if ((label == Label::kFraud && covered_now) ||
        (label == Label::kLegitimate && !covered_now)) {
      ++stats.skipped;
      continue;
    }
    inspected_.insert(row);
    --budget;
    ++stats.fixes;
    double seconds = options_.time_factor * time_model_.ManualFixSeconds();
    stats.seconds += seconds;
    total_seconds_ += seconds;

    if (label == Label::kFraud) {
      ++stats.fraud_examined;
      const AttackPattern* pattern = RecognizePattern(tuple);
      if (pattern != nullptr) {
        // Incremental hand-editing: the rule tracks the hull of the
        // instances inspected so far, so it is re-touched again and again
        // as the scheme's extent becomes clearer (the paper's rule-change
        // histories show ~10 modification rounds per rule).
        seen_[pattern].push_back(row);
        UpsertPatternRule(rules, WorkingRuleFor(pattern), log);
      } else if (relation.TrueLabel(row) == Label::kFraud ||
                 rng_.Bernoulli(options_.recognition_error)) {
        // No recognizable pattern: write a transaction-specific rule.
        RuleId id = rules->AddRule(Rule::Exactly(schema, tuple));
        Edit edit;
        edit.kind = EditKind::kAddRule;
        edit.source = EditSource::kExpert;
        edit.rule = id;
        edit.note = "manual transaction-specific rule";
        log->Record(std::move(edit));
      } else {
        ++stats.skipped;  // verified the report is noise; no rule change
      }
    } else {
      ++stats.legit_examined;
      if (relation.TrueLabel(row) == Label::kFraud &&
          !rng_.Bernoulli(options_.recognition_error)) {
        ++stats.skipped;  // report is wrong; keep capturing it
        continue;
      }
      // Narrow every capturing rule by hand. The expert either retargets
      // the rule to its true pattern (when that excludes the tuple) or
      // splits the amount interval around the offending value.
      for (RuleId id : rules->LiveIds()) {
        const Rule& rule = rules->Get(id);
        if (!rule.MatchesTuple(schema, tuple)) continue;
        const AttackPattern* home = nullptr;
        for (const AttackPattern& p : dataset_.patterns) {
          if (seen_.count(&p) == 0) continue;
          Rule working = WorkingRuleFor(&p);
          if (working.ContainsRule(schema, rule) &&
              !working.MatchesTuple(schema, tuple)) {
            home = &p;
            break;
          }
        }
        if (home != nullptr) {
          UpsertPatternRule(rules, WorkingRuleFor(home), log);
          continue;
        }
        // Hand split on the first numeric attribute with a non-point
        // interval (time, then amount, ...).
        bool split_done = false;
        for (size_t attr = 0; attr < schema.arity() && !split_done; ++attr) {
          if (schema.attribute(attr).kind != AttrKind::kNumeric) continue;
          const Interval& iv = rule.condition(attr).interval();
          int64_t v = tuple[attr];
          std::vector<Rule> replacements;
          if (iv.lo < v) {
            Rule r1 = rule;
            r1.set_condition(attr, Condition::MakeNumeric({iv.lo, v - 1}));
            replacements.push_back(std::move(r1));
          }
          if (iv.hi > v) {
            Rule r2 = rule;
            r2.set_condition(attr, Condition::MakeNumeric({v + 1, iv.hi}));
            replacements.push_back(std::move(r2));
          }
          if (replacements.empty()) continue;
          rules->RemoveRule(id);
          for (Rule& r : replacements) rules->AddRule(std::move(r));
          Edit edit;
          edit.kind = EditKind::kSplitRule;
          edit.source = EditSource::kExpert;
          edit.rule = id;
          edit.attribute = attr;
          edit.note = "manual split on " + schema.attribute(attr).name;
          log->Record(std::move(edit));
          split_done = true;
        }
        if (!split_done) {
          rules->RemoveRule(id);
          Edit edit;
          edit.kind = EditKind::kRemoveRule;
          edit.source = EditSource::kExpert;
          edit.rule = id;
          edit.note = "manual rule removal";
          log->Record(std::move(edit));
        }
      }
    }
  }
  return stats;
}

}  // namespace rudolf
