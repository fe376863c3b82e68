#include "rules/simplify.h"

#include <cassert>

namespace rudolf {

namespace {

// True if a and b differ only on `attr`, whose intervals touch or overlap so
// their union is the single interval `*merged`.
bool CanMergeOn(const Schema& schema, const Rule& a, const Rule& b, size_t attr,
                Interval* merged) {
  if (schema.attribute(attr).kind != AttrKind::kNumeric) return false;
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (i == attr) continue;
    if (!(a.condition(i) == b.condition(i))) return false;
  }
  Interval ia = a.condition(attr).interval();
  Interval ib = b.condition(attr).interval();
  if (ia.Empty() || ib.Empty()) return false;
  if (ia.lo > ib.lo) std::swap(ia, ib);
  // Overlapping, or abutting over the discrete domain (hi + 1 == lo).
  bool touches = ib.lo <= ia.hi || (ia.hi != kPosInf && ia.hi + 1 == ib.lo);
  if (!touches) return false;
  *merged = {ia.lo, std::max(ia.hi, ib.hi)};
  return true;
}

void LogRemoval(EditLog* log, RuleId id, const char* why) {
  Edit edit;
  edit.kind = EditKind::kRemoveRule;
  edit.source = EditSource::kSystem;
  edit.rule = id;
  edit.cost = 0.0;  // maintenance: Φ(I) is unchanged
  edit.note = why;
  log->Record(std::move(edit));
}

}  // namespace

SimplifyStats SimplifyRuleSet(const Schema& schema, RuleSet* rules, EditLog* log) {
  SimplifyStats stats;

  // 1. Drop rules that cannot capture anything.
  for (RuleId id : rules->LiveIds()) {
    if (rules->Get(id).HasEmptyCondition()) {
      rules->RemoveRule(id);
      LogRemoval(log, id, "simplify: empty condition");
      ++stats.empty_removed;
    }
  }

  // 2. Duplicates: keep the first of each identical pair.
  std::vector<RuleId> live = rules->LiveIds();
  for (size_t i = 0; i < live.size(); ++i) {
    if (!rules->IsLive(live[i])) continue;
    for (size_t j = i + 1; j < live.size(); ++j) {
      if (!rules->IsLive(live[j])) continue;
      if (rules->Get(live[i]) == rules->Get(live[j])) {
        rules->RemoveRule(live[j]);
        LogRemoval(log, live[j], "simplify: duplicate rule");
        ++stats.duplicates_removed;
      }
    }
  }

  // 3. Merge abutting fragments until a fixpoint (a merge can enable
  // another).
  bool changed = true;
  while (changed) {
    changed = false;
    live = rules->LiveIds();
    for (size_t i = 0; i < live.size() && !changed; ++i) {
      if (!rules->IsLive(live[i])) continue;
      for (size_t j = i + 1; j < live.size() && !changed; ++j) {
        if (!rules->IsLive(live[j])) continue;
        for (size_t attr = 0; attr < schema.arity(); ++attr) {
          Interval merged;
          if (!CanMergeOn(schema, rules->Get(live[i]), rules->Get(live[j]),
                          attr, &merged)) {
            continue;
          }
          Rule fused = rules->Get(live[i]);
          fused.set_condition(attr, Condition::MakeNumeric(merged));
          rules->Replace(live[i], fused);
          rules->RemoveRule(live[j]);
          Edit edit;
          edit.kind = EditKind::kModifyCondition;
          edit.source = EditSource::kSystem;
          edit.rule = live[i];
          edit.attribute = attr;
          edit.cost = 0.0;
          edit.note = "simplify: merge adjacent fragments";
          log->Record(std::move(edit));
          ++stats.merged;
          changed = true;
          break;
        }
      }
    }
  }

  // 4. Subsumption: remove rules contained in another live rule.
  live = rules->LiveIds();
  for (RuleId narrow : live) {
    if (!rules->IsLive(narrow)) continue;
    for (RuleId wide : live) {
      if (wide == narrow || !rules->IsLive(wide) || !rules->IsLive(narrow)) {
        continue;
      }
      if (rules->Get(wide).ContainsRule(schema, rules->Get(narrow)) &&
          !(rules->Get(wide) == rules->Get(narrow))) {
        rules->RemoveRule(narrow);
        LogRemoval(log, narrow, "simplify: subsumed rule");
        ++stats.subsumed_removed;
        break;
      }
    }
  }

  return stats;
}

}  // namespace rudolf
