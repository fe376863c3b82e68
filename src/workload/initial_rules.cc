#include "workload/initial_rules.h"

#include <algorithm>

namespace rudolf {

RuleSet SynthesizeInitialRules(const Dataset& dataset,
                               const InitialRuleOptions& options) {
  const CreditCardSchema& cc = dataset.cc;
  const CreditCardSchemaLayout& lay = cc.layout;
  Rng rng(options.seed);
  RuleSet out;

  for (const AttackPattern& p : dataset.patterns) {
    if (p.start_frac > 0.0) continue;  // only the "yesterday" patterns
    Rule rule = p.ToRule(cc);

    // Stale amount threshold.
    Interval amt = rule.condition(lay.amount).interval();
    if (amt.lo != kNegInf) amt.lo += options.amount_slack;
    rule.set_condition(lay.amount, Condition::MakeNumeric(amt));

    // Clipped clock window.
    Interval clock = rule.condition(lay.time).interval();
    if (clock.hi - clock.lo > 2 * options.window_shrink + 1) {
      clock.lo += options.window_shrink;
      clock.hi -= options.window_shrink;
    }
    rule.set_condition(lay.time, Condition::MakeNumeric(clock));

    // Over-specific venue/type: replace a category with one of its leaves.
    for (size_t attr : {lay.location, lay.type}) {
      const Condition& cond = rule.condition(attr);
      const AttributeDef& def = cc.schema->attribute(attr);
      if (cond.concept_id() != def.ontology->top() &&
          !def.ontology->IsLeaf(cond.concept_id()) &&
          rng.Bernoulli(options.leaf_specialization_prob)) {
        rule.set_condition(attr, Condition::MakeCategorical(RandomLeafUnder(
                                     *def.ontology, cond.concept_id(), &rng)));
      }
    }
    out.AddRule(std::move(rule));
  }

  // Obsolete rules: plausible-looking conjunctions for attacks that no
  // longer exist.
  for (int i = 0; i < options.obsolete_rules; ++i) {
    Rule rule = Rule::Trivial(*cc.schema);
    int64_t start = rng.UniformInt(0, 23 * 60);
    rule.set_condition(lay.time,
                       Condition::MakeNumeric({start, start + rng.UniformInt(10, 40)}));
    rule.set_condition(lay.amount, Condition::MakeNumeric(Interval::AtLeast(
                                       rng.UniformInt(300, 600))));
    rule.set_condition(
        lay.location,
        Condition::MakeCategorical(RandomLeafUnder(
            *cc.location_ontology, cc.location_ontology->top(), &rng)));
    out.AddRule(std::move(rule));
  }
  return out;
}

}  // namespace rudolf
