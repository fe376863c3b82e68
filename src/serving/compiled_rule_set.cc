#include "serving/compiled_rule_set.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace rudolf {

namespace {

// One non-trivial compiled condition, pre-CSR.
struct NumericCond {
  Interval iv;
  uint32_t slot;
};
struct CategoricalCond {
  ConceptId concept_id;
  uint32_t slot;
};

}  // namespace

std::shared_ptr<const CompiledRuleSet> CompiledRuleSet::Compile(
    std::shared_ptr<const Schema> schema, const RuleSet& rules,
    uint64_t epoch) {
  RUDOLF_TIMED_SCOPE("serving.compile");
  assert(schema != nullptr);
  auto compiled = std::shared_ptr<CompiledRuleSet>(new CompiledRuleSet());
  CompiledRuleSet& c = *compiled;
  c.schema_ = std::move(schema);
  c.epoch_ = epoch;
  const Schema& s = *c.schema_;

  // Pass 1: assign saturation slots and bucket conditions per attribute.
  std::vector<std::vector<NumericCond>> numeric(s.arity());
  std::vector<std::vector<CategoricalCond>> categorical(s.arity());
  for (RuleId id : rules.LiveIds()) {
    const Rule& rule = rules.Get(id);
    assert(rule.arity() == s.arity());
    ++c.stats_.live_rules;
    if (rule.HasEmptyCondition()) {
      // An empty interval accepts nothing: the rule can never fire, so it
      // is not compiled at all (exactly the batch scan's behaviour).
      ++c.stats_.dead_rules;
      continue;
    }
    uint32_t non_trivial = 0;
    for (size_t i = 0; i < rule.arity(); ++i) {
      if (!rule.condition(i).IsTrivial(s.attribute(i))) ++non_trivial;
    }
    if (non_trivial == 0) {
      ++c.stats_.always_fire;
      c.always_fire_.push_back(id);
      continue;
    }
    uint32_t slot = static_cast<uint32_t>(c.required_.size());
    c.required_.push_back(non_trivial);
    c.slot_rule_.push_back(id);
    for (size_t i = 0; i < rule.arity(); ++i) {
      const Condition& cond = rule.condition(i);
      if (cond.IsTrivial(s.attribute(i))) continue;
      if (cond.kind() == AttrKind::kNumeric) {
        numeric[i].push_back({cond.interval(), slot});
      } else {
        categorical[i].push_back({cond.concept_id(), slot});
      }
    }
  }

  // Pass 2a: flatten each numeric attribute's intervals into elementary
  // segments. Critical points are every interval's lo and hi+1; within one
  // segment every interval's membership is uniform, so the stabbed set of a
  // value is its segment's slot list.
  for (size_t attr = 0; attr < s.arity(); ++attr) {
    if (numeric[attr].empty()) continue;
    NumericPlan plan;
    plan.attribute = static_cast<uint32_t>(attr);
    for (const NumericCond& nc : numeric[attr]) {
      plan.bounds.push_back(nc.iv.lo);
      if (nc.iv.hi != kPosInf) plan.bounds.push_back(nc.iv.hi + 1);
    }
    std::sort(plan.bounds.begin(), plan.bounds.end());
    plan.bounds.erase(std::unique(plan.bounds.begin(), plan.bounds.end()),
                      plan.bounds.end());
    plan.seg_begin.reserve(plan.bounds.size() + 1);
    plan.seg_begin.push_back(0);
    for (int64_t start : plan.bounds) {
      for (const NumericCond& nc : numeric[attr]) {
        if (nc.iv.lo <= start && start <= nc.iv.hi) {
          plan.seg_slots.push_back(nc.slot);
        }
      }
      plan.seg_begin.push_back(static_cast<uint32_t>(plan.seg_slots.size()));
    }
    c.stats_.numeric_segments += plan.bounds.size();
    c.stats_.segment_entries += plan.seg_slots.size();
    c.numeric_.push_back(std::move(plan));
  }

  // Pass 2b: dense categorical postings over each ontology's concept
  // universe. Containment is resolved here, once, so probes never touch the
  // ontology (its caches are warmed for the Contains queries below).
  for (size_t attr = 0; attr < s.arity(); ++attr) {
    if (categorical[attr].empty()) continue;
    const Ontology& ontology = *s.attribute(attr).ontology;
    ontology.WarmCaches();
    CategoricalPlan plan;
    plan.attribute = static_cast<uint32_t>(attr);
    plan.value_begin.reserve(ontology.size() + 1);
    plan.value_begin.push_back(0);
    for (ConceptId v = 0; v < ontology.size(); ++v) {
      for (const CategoricalCond& cc : categorical[attr]) {
        if (ontology.Contains(cc.concept_id, v)) {
          plan.value_slots.push_back(cc.slot);
        }
      }
      plan.value_begin.push_back(static_cast<uint32_t>(plan.value_slots.size()));
    }
    c.stats_.posting_entries += plan.value_slots.size();
    c.categorical_.push_back(std::move(plan));
  }

  return compiled;
}

std::shared_ptr<const CompiledRuleSet> CompiledRuleSet::Empty(
    std::shared_ptr<const Schema> schema) {
  RuleSet none;
  return Compile(std::move(schema), none, /*epoch=*/0);
}

void CompiledRuleSet::Decide(const Tuple& tuple, DecisionScratch* scratch,
                             Decision* out) const {
  assert(tuple.size() == schema_->arity());
  out->epoch = epoch_;
  out->fired.clear();
  scratch->Begin(required_.size());

  for (const NumericPlan& plan : numeric_) {
    int64_t v = tuple[plan.attribute];
    // Last critical point <= v names the elementary segment; values below
    // every interval's lo stab nothing.
    auto it = std::upper_bound(plan.bounds.begin(), plan.bounds.end(), v);
    if (it == plan.bounds.begin()) continue;
    size_t seg = static_cast<size_t>(it - plan.bounds.begin()) - 1;
    for (uint32_t k = plan.seg_begin[seg]; k < plan.seg_begin[seg + 1]; ++k) {
      uint32_t slot = plan.seg_slots[k];
      if (scratch->Bump(slot) == required_[slot]) {
        out->fired.push_back(slot_rule_[slot]);
      }
    }
  }
  for (const CategoricalPlan& plan : categorical_) {
    uint64_t v = static_cast<uint64_t>(tuple[plan.attribute]);
    // Values outside the compiled concept universe match no condition.
    if (v + 1 >= plan.value_begin.size()) continue;
    for (uint32_t k = plan.value_begin[v]; k < plan.value_begin[v + 1]; ++k) {
      uint32_t slot = plan.value_slots[k];
      if (scratch->Bump(slot) == required_[slot]) {
        out->fired.push_back(slot_rule_[slot]);
      }
    }
  }

  out->fired.insert(out->fired.end(), always_fire_.begin(), always_fire_.end());
  std::sort(out->fired.begin(), out->fired.end());
  out->flagged = !out->fired.empty();
}

}  // namespace rudolf
