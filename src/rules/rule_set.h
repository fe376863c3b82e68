// A RuleSet Φ: a disjunction of rules with stable ids. Φ(I) is the union of
// the individual rules' captures (Section 2).

#ifndef RUDOLF_RULES_RULE_SET_H_
#define RUDOLF_RULES_RULE_SET_H_

#include <optional>
#include <string>
#include <vector>

#include "rules/rule.h"

namespace rudolf {

/// \brief An ordered collection of rules with stable RuleIds.
///
/// Ids are never reused; removed rules leave a tombstone so edit logs stay
/// unambiguous. Iteration skips tombstones.
class RuleSet {
 public:
  RuleSet() = default;

  /// Adds a rule, returning its id.
  RuleId AddRule(Rule rule);

  /// Removes a rule. Returns false if the id is unknown or already removed.
  bool RemoveRule(RuleId id);

  /// True if the id names a live rule.
  bool IsLive(RuleId id) const;

  /// Access to a live rule. Requires IsLive(id).
  const Rule& Get(RuleId id) const;

  /// Replaces a live rule in place. Requires IsLive(id).
  void Replace(RuleId id, Rule rule);

  /// Number of live rules.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Ids of all live rules in insertion order.
  std::vector<RuleId> LiveIds() const;

  /// True if any live rule accepts the tuple.
  bool Captures(const Schema& schema, const Tuple& tuple) const;

  /// True if any live rule accepts row `row`.
  bool CapturesRow(const Relation& relation, size_t row) const;

  /// The live rule ids whose rule accepts the tuple (Ω_l in Algorithm 2).
  std::vector<RuleId> CapturingRules(const Schema& schema, const Tuple& tuple) const;

  /// One rule per line, prefixed by id.
  std::string ToString(const Schema& schema) const;

 private:
  struct Slot {
    Rule rule;
    bool live = true;
  };
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
};

}  // namespace rudolf

#endif  // RUDOLF_RULES_RULE_SET_H_
