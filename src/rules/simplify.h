// Rule-set maintenance. Sessions of splits and generalizations leave debris
// behind: rules subsumed by later generalizations, duplicate rules from
// repeated upserts, and split fragments that differ in a single numeric
// interval and abut each other (Algorithm 2's r11 [18:00,18:03] and r12
// [18:05,18:05] re-merge into [18:00,18:05] once the excluded value is
// generalized over). The NP-hardness proofs already observe that redundant
// rules "can only increase the cost"; this pass removes them.

#ifndef RUDOLF_RULES_SIMPLIFY_H_
#define RUDOLF_RULES_SIMPLIFY_H_

#include <cstddef>

#include "rules/edit.h"
#include "rules/rule_set.h"

namespace rudolf {

/// What a simplification pass did.
struct SimplifyStats {
  size_t duplicates_removed = 0;  ///< identical to an earlier rule
  size_t subsumed_removed = 0;    ///< contained in another live rule
  size_t merged = 0;              ///< abutting single-attribute fragments fused
  size_t empty_removed = 0;       ///< rules with an empty numeric condition

  size_t total() const {
    return duplicates_removed + subsumed_removed + merged + empty_removed;
  }
};

/// \brief Simplifies `rules` in place, logging every removal/merge to `log`
/// (kRemoveRule / kModifyCondition edits with zero cost — maintenance is
/// free in the paper's cost model since it never changes Φ(I)).
///
/// Four passes, in order: drop rules with an empty condition, drop
/// duplicates, fuse rules identical on all but one numeric attribute whose
/// intervals touch or overlap ([a,b] and [b+1,c] → [a,c]), and drop rules
/// contained in another live rule.
///
/// Capture-preserving: the simplified set captures exactly the same tuples
/// as the input on every relation.
SimplifyStats SimplifyRuleSet(const Schema& schema, RuleSet* rules, EditLog* log);

}  // namespace rudolf

#endif  // RUDOLF_RULES_SIMPLIFY_H_
