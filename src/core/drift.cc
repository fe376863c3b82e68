#include "core/drift.h"

#include <algorithm>

namespace rudolf {

std::vector<RetirementProposal> DetectObsoleteRules(const Relation& relation,
                                                    const CaptureTracker& tracker,
                                                    const DriftOptions& options) {
  std::vector<RetirementProposal> flagged;
  size_t prefix = tracker.prefix_rows();
  if (prefix == 0) return flagged;
  size_t window = static_cast<size_t>(static_cast<double>(prefix) *
                                      std::clamp(options.window_frac, 0.0, 1.0));
  size_t window_begin = prefix - window;

  const RuleSet& rules = tracker.rules();
  for (RuleId id : rules.LiveIds()) {
    const Bitset& capture = tracker.RuleCapture(id);
    RetirementProposal p;
    p.rule_id = id;
    p.rule = rules.Get(id);
    capture.ForEach([&](size_t row) {
      bool fraud = relation.VisibleLabel(row) == Label::kFraud;
      if (row < window_begin) {
        p.prior_fraud += fraud ? 1 : 0;
      } else {
        p.window_fraud += fraud ? 1 : 0;
        ++p.window_capture;
      }
    });
    if (p.prior_fraud >= options.min_prior_fraud && p.window_fraud == 0) {
      flagged.push_back(std::move(p));
    }
  }
  return flagged;
}

RetireStats RetireObsoleteRules(const Relation& relation, CaptureTracker* tracker,
                                Expert* expert, EditLog* log,
                                const DriftOptions& options) {
  RetireStats stats;
  std::vector<RetirementProposal> flagged =
      DetectObsoleteRules(relation, *tracker, options);
  stats.flagged = flagged.size();
  for (const RetirementProposal& p : flagged) {
    RetirementReview review = expert->ReviewRetirement(p.rule, relation);
    stats.expert_seconds += review.seconds;
    if (!review.retire) {
      ++stats.kept;
      continue;
    }
    tracker->Remove(p.rule_id);
    Edit edit;
    edit.kind = EditKind::kRemoveRule;
    edit.source = EditSource::kSystem;
    edit.rule = p.rule_id;
    edit.note = "retire obsolete rule (no recent fraud)";
    log->Record(std::move(edit));
    ++stats.retired;
  }
  return stats;
}

}  // namespace rudolf
