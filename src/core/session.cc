#include "core/session.h"

#include <algorithm>
#include <chrono>

#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/ingest_pipeline.h"
#include "rules/simplify.h"
#include "serving/serving_engine.h"

namespace rudolf {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void Accumulate(GeneralizeStats* into, const GeneralizeStats& from) {
  into->clusters += from.clusters;
  into->proposals += from.proposals;
  into->accepted += from.accepted;
  into->revised += from.revised;
  into->rejected += from.rejected;
  into->new_rules += from.new_rules;
  into->skipped_clusters += from.skipped_clusters;
  into->expert_seconds += from.expert_seconds;
}

void Accumulate(SpecializeStats* into, const SpecializeStats& from) {
  into->tuples += from.tuples;
  into->proposals += from.proposals;
  into->accepted += from.accepted;
  into->revised += from.revised;
  into->rejected += from.rejected;
  into->splits_applied += from.splits_applied;
  into->rules_removed += from.rules_removed;
  into->skipped_tuples += from.skipped_tuples;
  into->truncated_tuples += from.truncated_tuples;
  into->expert_seconds += from.expert_seconds;
}

// A clustering width still at the serial default inherits the session-level
// parallelism (rule evaluation runs on the tracker, built at that width).
SessionOptions InheritEval(SessionOptions options) {
  if (options.generalize.clustering.num_threads <= 1) {
    options.generalize.clustering.num_threads = options.eval.num_threads;
  }
  return options;
}

}  // namespace

RefinementSession::RefinementSession(const Relation& relation,
                                     SessionOptions options)
    : RefinementSession(relation, relation.NumRows(), std::move(options)) {}

RefinementSession::RefinementSession(const Relation& relation, size_t prefix_rows,
                                     SessionOptions options)
    : relation_(relation),
      default_prefix_(std::min(prefix_rows, relation.NumRows())),
      options_(InheritEval(std::move(options))),
      generalizer_(relation, options_.generalize),
      specializer_(relation, options_.specialize) {}

RefinementSession::~RefinementSession() {
  // The last ReleaseEpoch may have attached tracker_ to the pipeline, and a
  // worker can be inside ExtendPrefix on it right now. Detach first: the
  // release takes the pipeline's state mutex, so it returns only once no
  // worker can touch the tracker again.
  if (options_.pipelined != nullptr) {
    options_.pipelined->ReleaseEpoch(nullptr);
  }
}

SessionStats RefinementSession::Refine(RuleSet* rules, Expert* expert,
                                       EditLog* log) {
  return Refine(default_prefix_, rules, expert, log);
}

SessionStats RefinementSession::Refine(size_t prefix_rows, RuleSet* rules,
                                       Expert* expert, EditLog* log) {
  RUDOLF_SPAN("session.refine");
  SessionStats stats;
  size_t prefix;
  if (options_.pipelined != nullptr) {
    // Epoch advance: freeze the prefix this whole Refine() call (all inner
    // rounds) runs against. Workers keep applying rows beyond it but stop
    // touching the tracker/index until the release below.
    auto start = std::chrono::steady_clock::now();
    prefix = options_.pipelined->PinEpoch(prefix_rows);
    stats.epoch_advance_seconds = SecondsSince(start);
    stats.epoch = options_.pipelined->epoch();
    obs::MetricsRegistry::Default()
        .GetHistogram("pipeline.epoch.advance.seconds")
        ->Record(stats.epoch_advance_seconds);
  } else {
    prefix = std::min(prefix_rows, relation_.NumRows());
  }
  stats.frozen_prefix = prefix;
  size_t edits_before = log->size();
  size_t edits_at_last_publish = edits_before;

  for (int round = 0; round < options_.max_rounds; ++round) {
    RUDOLF_SPAN("session.round");
    RUDOLF_COUNTER_INC("session.rounds");
    CaptureTracker* tracker = AcquireTracker(prefix, *rules, &stats);
    size_t edits_at_round_start = log->size();

    GeneralizeStats g = generalizer_.Run(tracker, expert, log);
    Accumulate(&stats.generalize, g);
    SpecializeStats s = specializer_.Run(tracker, expert, log);
    Accumulate(&stats.specialize, s);
    // The engines edited the tracker's rules. The caller's set catches up
    // here, once per round and before the round's publish, so it (and
    // serving) only ever holds a whole round's result.
    *rules = tracker->rules();

    // Round boundary = deployment boundary: the accepted edits go live on
    // the serving path while later rounds keep refining.
    if (options_.serving != nullptr && log->size() != edits_at_round_start) {
      options_.serving->Publish(*rules);
      edits_at_last_publish = log->size();
    }

    ++stats.rounds;
    if (log->size() == edits_at_round_start) break;  // fixpoint
  }
  if (options_.retire_obsolete) {
    CaptureTracker* tracker = AcquireTracker(prefix, *rules, &stats);
    RetireStats retired =
        RetireObsoleteRules(relation_, tracker, expert, log, options_.drift);
    *rules = tracker->rules();
    // Folded into the generalize bucket; stats.expert_seconds sums both
    // buckets below.
    stats.generalize.expert_seconds += retired.expert_seconds;
  }
  // SimplifyRuleSet edits `rules` without the tracker; Sync carries its
  // removals and merges over, so the held tracker stays reusable.
  SimplifyRuleSet(relation_.schema(), rules, log);
  if (options_.persistent_tracker && tracker_ != nullptr) {
    tracker_->Sync(*rules);
  }
  // Retirement/simplify edits landed after the last round publish; ship the
  // final rule set so serving never answers against a superseded epoch.
  if (options_.serving != nullptr && log->size() != edits_at_last_publish) {
    options_.serving->Publish(*rules);
  }
  if (tracker_ != nullptr) stats.cache = tracker_->evaluator().cache_stats();
  stats.expert_seconds =
      stats.generalize.expert_seconds + stats.specialize.expert_seconds;
  stats.edits = log->size() - edits_before;
  if (options_.pipelined != nullptr) {
    // Re-open the gate; workers keep the persistent tracker extended toward
    // the live end until the next pin.
    options_.pipelined->ReleaseEpoch(
        options_.persistent_tracker ? tracker_.get() : nullptr);
  }
  return stats;
}

void RefinementSession::NotifyVisibleLabelChanged(size_t row, Label old_label,
                                                  Label new_label) {
  if (tracker_ == nullptr) return;
  if (options_.pipelined != nullptr) {
    // The tracker may be attached to the pipeline right now, with ingest
    // workers extending it — serialize the fixup through the same lock.
    std::lock_guard<std::mutex> g(options_.pipelined->state_mutex());
    tracker_->OnVisibleLabelChanged(row, old_label, new_label);
    return;
  }
  tracker_->OnVisibleLabelChanged(row, old_label, new_label);
}

CaptureTracker* RefinementSession::AcquireTracker(size_t prefix,
                                                  const RuleSet& rules,
                                                  SessionStats* stats) {
  // SessionStats stays locally accounted (registry totals are process-wide
  // and would cross-contaminate concurrent sessions); the registry gets a
  // mirror of the same events for dashboards and bench sidecars.
  if (options_.persistent_tracker && tracker_ != nullptr &&
      tracker_->prefix_rows() <= prefix) {
    tracker_->Sync(rules);
    if (tracker_->prefix_rows() < prefix) {
      auto start = std::chrono::steady_clock::now();
      tracker_->ExtendPrefix(prefix);
      double seconds = SecondsSince(start);
      stats->extend_seconds += seconds;
      ++stats->tracker_extends;
      RUDOLF_COUNTER_INC("session.tracker.extends");
      obs::MetricsRegistry::Default()
          .GetHistogram("session.tracker.extend.seconds")
          ->Record(seconds);
    }
    return tracker_.get();
  }
  auto start = std::chrono::steady_clock::now();
  tracker_ = std::make_unique<CaptureTracker>(relation_, rules, prefix,
                                              options_.eval);
  double seconds = SecondsSince(start);
  stats->rebuild_seconds += seconds;
  ++stats->tracker_rebuilds;
  RUDOLF_COUNTER_INC("session.tracker.rebuilds");
  obs::MetricsRegistry::Default()
      .GetHistogram("session.tracker.rebuild.seconds")
      ->Record(seconds);
  return tracker_.get();
}

size_t RefinementSession::HeldMemoryBytes() const {
  if (tracker_ == nullptr || options_.pipelined != nullptr) return 0;
  return tracker_->ApproxMemoryBytes();
}

void RefinementSession::ReleaseCachedBitmaps() {
  if (tracker_ == nullptr || options_.pipelined != nullptr) return;
  tracker_->ReleaseCachedBitmaps();
}

void RefinementSession::ReleaseTracker() {
  if (options_.pipelined != nullptr) return;
  tracker_.reset();
}

}  // namespace rudolf
