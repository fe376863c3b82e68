// Streaming ingestion pipeline: decouples transaction arrival from rule
// refinement (ROADMAP item 2, the OpenSync producer/worker split).
//
//   producers ──Append(RowBatch)──► ThreadSafeQueue (bounded, back-pressure)
//                                        │
//                        N worker threads pop batches:
//                          (1) validate against the schema  — parallel
//                          (2) apply to the Relation        — sequenced
//                          (3) extend attached tracker       — gate open only
//
// Epoch scheme (mirrors the ServingEngine hot-swap idiom, inverted for the
// read side): a refinement episode calls PinEpoch(), which freezes the
// published prefix at the applied row count (epoch k) and closes the gate;
// while the gate is closed, workers keep draining the queue into the
// Relation BEYOND the frozen prefix (epoch k+1's rows) but never touch the
// attached CaptureTracker or its evaluator's condition cache and never
// reallocate columns — so every structure the round reads is immutable for
// the round's lifetime. ReleaseEpoch() re-opens the gate and re-attaches
// the session's persistent tracker, and workers resume extending it toward
// the live end after each apply (CaptureTracker::ExtendPrefix →
// RuleEvaluator::ExtendPrefix, which only moves the prefix), keeping the
// next epoch-advance O(rows since the last extension).
//
// Drift-freedom: batch application is sequenced in Append order, so the
// relation's row order is identical to the serial schedule's; rounds run
// against a frozen prefix that is never mutated concurrently; and the
// worker extension path is CaptureTracker::ExtendPrefix, which is
// bit-identical to a rebuild (DESIGN.md §10). Hence a pipelined round over
// prefix P produces bit-identical output to a serial round over the same P
// — the gate bench/pipeline_throughput and the PipelineEquivalence suite
// enforce.
//
// Threading contract: any number of producer threads may call Append;
// exactly one refiner thread drives PinEpoch/ReleaseEpoch (the
// RefinementSession wiring via SessionOptions::pipelined); Shutdown/Flush
// may be called from any thread.

#ifndef RUDOLF_PIPELINE_INGEST_PIPELINE_H_
#define RUDOLF_PIPELINE_INGEST_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/capture_tracker.h"
#include "pipeline/row_batch.h"
#include "pipeline/thread_safe_queue.h"
#include "relation/relation.h"

namespace rudolf {

namespace obs {
class Counter;
}  // namespace obs

/// Pipeline sizing knobs.
struct IngestPipelineOptions {
  /// Bounded queue capacity in batches — the back-pressure depth. The
  /// `RUDOLF_PIPELINE_QUEUE` environment variable overrides it.
  size_t queue_capacity = 64;
  /// Ingest worker threads (validation parallelizes; application is
  /// sequenced). Clamped below at 1; `RUDOLF_PIPELINE_WORKERS` overrides.
  int num_workers = 2;
  /// Rows to pre-reserve in the relation (on top of its current capacity)
  /// so steady-state appends never reallocate. 0 keeps the current
  /// capacity; growth beyond it is handled safely but must wait for an
  /// open gate.
  size_t reserve_rows = 0;
  /// Tenant label stamped on this pipeline's per-tenant series
  /// (`pipeline.ingest.rows{tenant="N"}`). Worker threads run outside any
  /// TenantScope, so the label is a pipeline property, not thread state.
  /// 0 (default) keeps the pipeline unlabeled — aggregate series only.
  uint32_t tenant = 0;
};

/// \brief Producer-facing streaming ingest with frozen refinement epochs.
class IngestPipeline {
 public:
  /// Spawns the workers. `relation` must outlive the pipeline, and while
  /// the pipeline lives, all appends to it must go through Append().
  IngestPipeline(Relation* relation, IngestPipelineOptions options = {});

  /// Force-opens the gate, shuts down, and joins the workers. Queued
  /// batches are still applied (drain semantics).
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Enqueues a batch for ingestion. Blocks while the queue is full
  /// (back-pressure — counted as `pipeline.backpressure.waits`). Returns
  /// false (batch not ingested) after Shutdown. Empty batches are accepted
  /// and ignored.
  bool Append(RowBatch batch);

  /// Rows applied to the relation so far (acquire; monotonic).
  size_t AppliedRows() const {
    return applied_rows_.load(std::memory_order_acquire);
  }

  /// Rows accepted by Append so far (applied + in flight).
  size_t EnqueuedRows() const {
    return enqueued_rows_.load(std::memory_order_acquire);
  }

  /// Blocks until at least `rows` rows are applied. Returns the applied
  /// count, which may be smaller than `rows` if the pipeline shut down and
  /// drained first — the only way the wait can end early.
  size_t WaitForApplied(size_t rows);

  /// Blocks until everything accepted so far is applied.
  void Flush();

  /// Epoch advance, step 1: waits until at least `target_rows` rows are
  /// applied (SIZE_MAX = no wait, freeze at whatever is applied), then
  /// closes the gate, detaches the incremental state, and publishes
  /// min(target_rows, applied) as the frozen prefix of the new epoch.
  /// Returns the frozen prefix. While the gate is closed, workers still
  /// apply batches to the relation but defer state extension and column
  /// reallocation — the refiner may freely read rows below the frozen
  /// prefix and every attached structure. One refiner thread; pinning an
  /// already-pinned pipeline just re-freezes at the current applied count.
  size_t PinEpoch(size_t target_rows = static_cast<size_t>(-1));

  /// Epoch advance, step 2: re-opens the gate and (optionally) attaches
  /// the tracker the workers should keep extended while no round runs.
  /// `tracker` extends its own copy of the rules; it must outlive the
  /// attachment (detach by the next PinEpoch, a ReleaseEpoch(nullptr), or
  /// destruction) and may not be mutated elsewhere while attached.
  void ReleaseEpoch(CaptureTracker* tracker = nullptr);

  /// Epochs pinned so far.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Frozen prefix of the current epoch (0 before the first pin).
  size_t frozen_prefix() const {
    return frozen_prefix_.load(std::memory_order_acquire);
  }

  /// True while the gate is closed (a refinement episode is running).
  bool gate_closed() const;

  /// Stops accepting appends; queued batches still drain into the
  /// relation, then workers exit. Idempotent; unblocks Flush/WaitForApplied
  /// waiters once drained.
  void Shutdown();

  /// The mutex guarding the attached incremental state. Exposed for rare
  /// out-of-band maintenance that must not race worker extensions (e.g.
  /// RefinementSession::NotifyVisibleLabelChanged forwarding a label fixup
  /// into an attached tracker between rounds).
  std::mutex& state_mutex() { return state_mu_; }

 private:
  struct SeqBatch {
    uint64_t seq = 0;
    RowBatch batch;
  };

  void WorkerLoop();
  // Applies one validated batch in sequence order; grows capacity (gate
  // permitting) when needed.
  void ApplyInOrder(SeqBatch* item);
  // Extends the attached tracker to the applied row count if the gate is
  // open. Best-effort: skipped entirely while a round holds the gate.
  void MaybeExtendState();

  Relation* relation_;
  IngestPipelineOptions options_;
  ThreadSafeQueue<SeqBatch> queue_;

  // Highest sequence number handed out plus one — the drain target the
  // Flush/WaitForApplied predicates compare against next_apply_seq_.
  uint64_t next_seq_enqueued() const {
    return next_seq_.load(std::memory_order_acquire);
  }

  // Producer side: sequence assignment must match queue FIFO order, so the
  // (seq, push) pair is atomic under this mutex. next_seq_ is only written
  // under producer_mu_ but read lock-free by the drain predicates.
  std::mutex producer_mu_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<size_t> enqueued_rows_{0};
  std::atomic<size_t> queue_depth_hwm_{0};

  // Apply side: workers validate in parallel, then apply strictly in
  // sequence order under apply_mu_; applied_rows_ is the release-published
  // progress watermark.
  std::mutex apply_mu_;
  std::condition_variable apply_cv_;    // "it's your turn" for the sequencer
  std::condition_variable applied_cv_;  // progress for Flush/WaitForApplied
  uint64_t next_apply_seq_ = 0;
  std::atomic<size_t> applied_rows_{0};

  // Epoch gate + attached incremental state. Lock order: apply_mu_ before
  // state_mu_ (the capacity-growth path); never the reverse.
  mutable std::mutex state_mu_;
  std::condition_variable gate_cv_;
  bool gate_closed_ = false;
  CaptureTracker* tracker_ = nullptr;
  std::atomic<size_t> frozen_prefix_{0};
  std::atomic<uint64_t> epoch_{0};

  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;

  // Resolved once at construction (registry lookups are mutex-guarded, so
  // per-batch resolution would serialize workers on the registry).
  obs::Counter* tenant_rows_counter_ = nullptr;  // set iff options_.tenant != 0
};

}  // namespace rudolf

#endif  // RUDOLF_PIPELINE_INGEST_PIPELINE_H_
