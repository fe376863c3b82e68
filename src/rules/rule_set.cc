#include "rules/rule_set.h"

#include <cassert>

namespace rudolf {

RuleId RuleSet::AddRule(Rule rule) {
  RuleId id = static_cast<RuleId>(slots_.size());
  slots_.push_back(Slot{std::move(rule), true});
  ++live_count_;
  return id;
}

bool RuleSet::RemoveRule(RuleId id) {
  if (id >= slots_.size() || !slots_[id].live) return false;
  slots_[id].live = false;
  --live_count_;
  return true;
}

bool RuleSet::IsLive(RuleId id) const {
  return id < slots_.size() && slots_[id].live;
}

const Rule& RuleSet::Get(RuleId id) const {
  assert(IsLive(id));
  return slots_[id].rule;
}

void RuleSet::Replace(RuleId id, Rule rule) {
  assert(IsLive(id));
  slots_[id].rule = std::move(rule);
}

std::vector<RuleId> RuleSet::LiveIds() const {
  std::vector<RuleId> out;
  out.reserve(live_count_);
  for (RuleId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].live) out.push_back(id);
  }
  return out;
}

bool RuleSet::Captures(const Schema& schema, const Tuple& tuple) const {
  for (const Slot& s : slots_) {
    if (s.live && s.rule.MatchesTuple(schema, tuple)) return true;
  }
  return false;
}

bool RuleSet::CapturesRow(const Relation& relation, size_t row) const {
  for (const Slot& s : slots_) {
    if (s.live && s.rule.MatchesRow(relation, row)) return true;
  }
  return false;
}

std::vector<RuleId> RuleSet::CapturingRules(const Schema& schema,
                                            const Tuple& tuple) const {
  std::vector<RuleId> out;
  for (RuleId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].live && slots_[id].rule.MatchesTuple(schema, tuple)) {
      out.push_back(id);
    }
  }
  return out;
}

std::string RuleSet::ToString(const Schema& schema) const {
  std::string out;
  for (RuleId id = 0; id < slots_.size(); ++id) {
    if (!slots_[id].live) continue;
    out += "[" + std::to_string(id) + "] " + slots_[id].rule.ToString(schema) + "\n";
  }
  return out;
}

}  // namespace rudolf
