// The outer interactive loop of Section 4: generalize to capture the
// fraudulent transactions, specialize to exclude the legitimate ones, and
// repeat until a fixpoint (or the round limit — the expert "exits when
// satisfied").

#ifndef RUDOLF_CORE_SESSION_H_
#define RUDOLF_CORE_SESSION_H_

#include <cstdint>
#include <memory>

#include "core/capture_tracker.h"
#include "core/drift.h"
#include "core/generalize.h"
#include "core/specialize.h"
#include "index/condition_cache.h"

namespace rudolf {

class ServingEngine;
class IngestPipeline;

/// Configuration of a refinement session.
struct SessionOptions {
  /// Evaluation parallelism for the session: every CaptureTracker is built
  /// at this width, and the engines evaluate through the tracker; a
  /// `generalize.clustering` width left at the serial default inherits it.
  /// The refinement outcome is identical at every thread count (see
  /// DESIGN.md "Parallel evaluation pipeline").
  EvalOptions eval;
  GeneralizeOptions generalize;
  SpecializeOptions specialize;
  /// Maximum generalize+specialize rounds per session (the paper reports
  /// ~10 modification rounds per rule-set update; each of our rounds makes
  /// many modifications, so a small number suffices).
  int max_rounds = 3;
  /// Propose retiring rules whose fraud yield dried up (core/drift.h) at
  /// the end of each session. An extension beyond the paper's algorithms;
  /// off by default.
  bool retire_obsolete = false;
  DriftOptions drift;
  /// Keep one CaptureTracker (and condition index) alive across rounds and
  /// Refine() calls, extending it as the visible prefix advances instead of
  /// rebuilding the world per round — per-round work becomes O(new rows),
  /// not O(prefix). Edits made outside the engines (the closing simplify
  /// pass, caller edits between Refine calls) reach the held tracker through
  /// CaptureTracker::Sync; only a shrunk prefix forces a rebuild. The
  /// refinement outcome is bit-identical to rebuild mode (false), which
  /// stays as the reference (see DESIGN.md "Incremental append path").
  bool persistent_tracker = true;
  /// Online serving hook: when set, every round that changed the rule set
  /// compiles and atomically publishes the new set here (and Refine
  /// publishes the final post-simplify set before returning), so serving
  /// threads answer against the freshest refined epoch while the session
  /// keeps running. Not owned; must outlive the session's Refine calls.
  ServingEngine* serving = nullptr;
  /// Streaming ingest hook: when set, the session is *pipelined* — every
  /// Refine(prefix_rows, ...) call advances an epoch on this pipeline
  /// instead of trusting the caller to have stopped appends. The call pins
  /// a frozen prefix (waiting until at least `prefix_rows` rows are
  /// applied; SIZE_MAX freezes at whatever has been applied), refines
  /// against that immutable prefix while ingest workers keep applying rows
  /// beyond it, and on return re-opens the gate, re-attaching the session's
  /// persistent tracker so workers extend it toward the live end between
  /// rounds. Not owned; the pointer must stay valid for the session's whole
  /// lifetime — the session's destructor detaches its tracker from the
  /// pipeline (workers may be mid-extension on it), so either teardown
  /// order is safe, as long as both outlive the relation.
  IngestPipeline* pipelined = nullptr;
};

/// Aggregate outcome of a session.
struct SessionStats {
  int rounds = 0;
  GeneralizeStats generalize;  ///< summed over rounds
  SpecializeStats specialize;  ///< summed over rounds
  double expert_seconds = 0.0;
  size_t edits = 0;  ///< edits appended to the log by this session
  // Incremental-tracker accounting (persistent_tracker mode; rebuild mode
  // reports every round as a rebuild with zero extends).
  size_t tracker_rebuilds = 0;   ///< trackers built from scratch this call
  size_t tracker_extends = 0;    ///< ExtendPrefix delta updates this call
  double rebuild_seconds = 0.0;  ///< wall time building trackers
  double extend_seconds = 0.0;   ///< wall time inside ExtendPrefix
  /// Condition-cache counters of the session's evaluator at return time
  /// (monotonic since that tracker's build; zeros when indexing is off).
  ConditionCacheStats cache;
  // Pipelined-mode accounting (zeros when SessionOptions::pipelined is
  // unset).
  size_t frozen_prefix = 0;  ///< prefix the epoch froze this call at
  uint64_t epoch = 0;        ///< pipeline epoch the call refined against
  double epoch_advance_seconds = 0.0;  ///< wall time inside PinEpoch
};

/// \brief One refinement session over the visible prefix of a relation.
///
/// The rule set and edit log live with the caller (the experiment runner
/// refines the same rule set session after session as new transactions
/// arrive). Inside Refine() the engines edit the session tracker's rules,
/// and the caller's set is refreshed from them at round boundaries.
class RefinementSession {
 public:
  /// A session may be reused as transactions arrive: each Refine() call
  /// names its own visible prefix, and the engines' expert memories
  /// (dismissed noise clusters / tolerated inclusions) persist across
  /// calls, as a human expert's would.
  RefinementSession(const Relation& relation, SessionOptions options);

  /// Backward-compatible constructor binding a default prefix for the
  /// prefix-less Refine() overload.
  RefinementSession(const Relation& relation, size_t prefix_rows,
                    SessionOptions options);

  /// Pipelined sessions detach their tracker from the pipeline before it is
  /// destroyed: an ingest worker may be extending it at this very moment,
  /// and the detach synchronizes with that through the pipeline's state
  /// mutex.
  ~RefinementSession();

  /// Runs generalize → specialize rounds over the first `prefix_rows` rows
  /// with the expert until neither pass changes anything or max_rounds is
  /// hit, then a capture-preserving maintenance pass (SimplifyRuleSet:
  /// duplicate/subsumed-rule removal, fragment re-merge). The pass is free
  /// in the cost model — Φ(I) does not change. `rules` is copied from the
  /// tracker after each round's engines (before that round's publish) and
  /// after retirement; in between it keeps the last round's result.
  SessionStats Refine(size_t prefix_rows, RuleSet* rules, Expert* expert,
                      EditLog* log);

  /// Refine() over the constructor's prefix.
  SessionStats Refine(RuleSet* rules, Expert* expert, EditLog* log);

  /// Persistent-mode label fixup: a caller that changes the visible label
  /// of a row *inside* the last refined prefix between Refine() calls must
  /// forward the change here so the held tracker's label counts stay
  /// current. Rows at or beyond the held prefix need no notification (the
  /// next extension reads them), and the call is a no-op when no tracker is
  /// held (rebuild mode, or before the first Refine).
  void NotifyVisibleLabelChanged(size_t row, Label old_label, Label new_label);

  /// Approximate heap bytes held by the session's persistent tracker
  /// (capture bitmaps + condition index + caches); 0 when no tracker is
  /// held. Fleet memory accounting — call only between Refine() calls, and
  /// only on non-pipelined sessions (a pipelined session's tracker may be
  /// under concurrent extension by ingest workers; reported as 0).
  size_t HeldMemoryBytes() const;

  /// Tier-1 fleet eviction: drops the held tracker's cached condition
  /// bitmaps (captures and cover counts stay); later rounds scan again on
  /// demand, bit-identically. No-op when no tracker is
  /// held or the session is pipelined.
  void ReleaseCachedBitmaps();

  /// Tier-2 fleet eviction: discards the persistent tracker entirely — the
  /// next Refine() rebuilds it from scratch, which is bit-identical to
  /// having extended it (DESIGN.md "Incremental append path"), just slower.
  /// No-op when the session is pipelined (ingest workers may hold the
  /// attached tracker).
  void ReleaseTracker();

 private:
  // Returns a tracker over `prefix` rows that is consistent with `rules`:
  // in persistent mode the held tracker is synced to `rules` and extended
  // over the new rows; when the prefix shrank, or in non-persistent mode, a
  // fresh tracker is built. Updates `stats`'s rebuild/extend accounting.
  CaptureTracker* AcquireTracker(size_t prefix, const RuleSet& rules,
                                 SessionStats* stats);

  const Relation& relation_;
  size_t default_prefix_;
  SessionOptions options_;
  GeneralizationEngine generalizer_;
  SpecializationEngine specializer_;
  // The tracker of the latest round; persistent_tracker mode reuses it.
  std::unique_ptr<CaptureTracker> tracker_;
};

}  // namespace rudolf

#endif  // RUDOLF_CORE_SESSION_H_
