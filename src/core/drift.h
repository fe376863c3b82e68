// Concept-drift housekeeping: attacks fade (Section 1: rules must be
// "updated and refined to capture the evolving activity patterns"), leaving
// rules that once earned their keep but now only flag background traffic.
// This module detects such obsolete rules with a trailing-window statistic
// (in the spirit of the adaptive windows of Widmer & Kubat, which the paper
// cites) and retires them through the same expert-review protocol as every
// other modification. An extension beyond the paper's core algorithms;
// disabled by default in sessions.

#ifndef RUDOLF_CORE_DRIFT_H_
#define RUDOLF_CORE_DRIFT_H_

#include <vector>

#include "core/capture_tracker.h"
#include "expert/expert.h"
#include "rules/edit.h"

namespace rudolf {

/// Tuning of the obsolescence detector.
struct DriftOptions {
  /// Trailing fraction of the visible prefix that counts as "recent".
  double window_frac = 0.2;
  /// A rule must have captured at least this many reported frauds before
  /// the window to be considered "previously useful" (brand-new rules for
  /// not-yet-reported attacks are left alone).
  size_t min_prior_fraud = 3;
};

/// One rule flagged as obsolete, with the evidence shown to the expert.
struct RetirementProposal {
  RuleId rule_id = kInvalidRule;
  Rule rule;
  size_t prior_fraud = 0;    ///< reported frauds captured before the window
  size_t window_fraud = 0;   ///< reported frauds captured inside the window
  size_t window_capture = 0; ///< total rows captured inside the window
};

/// Outcome of a retirement pass.
struct RetireStats {
  size_t flagged = 0;
  size_t retired = 0;
  size_t kept = 0;
  double expert_seconds = 0.0;
};

/// \brief The tracker's rules whose fraud yield dried up in the trailing
/// window.
///
/// A rule is flagged when it captured >= min_prior_fraud reported frauds
/// before the window but none inside it. Uses visible labels only.
std::vector<RetirementProposal> DetectObsoleteRules(const Relation& relation,
                                                    const CaptureTracker& tracker,
                                                    const DriftOptions& options);

/// \brief Proposes each flagged rule's retirement to the expert and removes
/// the accepted ones from the tracker's rules (kRemoveRule edits).
RetireStats RetireObsoleteRules(const Relation& relation, CaptureTracker* tracker,
                                Expert* expert, EditLog* log,
                                const DriftOptions& options = {});

}  // namespace rudolf

#endif  // RUDOLF_CORE_DRIFT_H_
