#include "pipeline/ingest_pipeline.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rudolf {

namespace {

constexpr size_t kNoTarget = static_cast<size_t>(-1);

IngestPipelineOptions ResolveOptions(IngestPipelineOptions options) {
  if (std::optional<int64_t> v = IntFromEnv("RUDOLF_PIPELINE_WORKERS", 1)) {
    options.num_workers = static_cast<int>(std::min<int64_t>(*v, 1024));
  }
  if (std::optional<int64_t> v = IntFromEnv("RUDOLF_PIPELINE_QUEUE", 1)) {
    options.queue_capacity = static_cast<size_t>(*v);
  }
  if (options.num_workers < 1) options.num_workers = 1;
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  return options;
}

}  // namespace

IngestPipeline::IngestPipeline(Relation* relation, IngestPipelineOptions options)
    : relation_(relation),
      options_(ResolveOptions(options)),
      queue_(options_.queue_capacity) {
  // Pre-pipeline rows count as both enqueued and applied, so Flush and
  // WaitForApplied speak absolute row counts.
  applied_rows_.store(relation_->NumRows(), std::memory_order_relaxed);
  enqueued_rows_.store(relation_->NumRows(), std::memory_order_relaxed);
  if (options_.reserve_rows > 0) {
    relation_->Reserve(relation_->NumRows() + options_.reserve_rows);
  }
  if (options_.tenant != 0) {
    tenant_rows_counter_ = obs::MetricsRegistry::Default().GetTenantCounter(
        "pipeline.ingest.rows", options_.tenant);
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IngestPipeline::~IngestPipeline() {
  // Force-open the gate first: a caller that destroys the pipeline while an
  // epoch is pinned must not deadlock an applier stuck waiting to grow
  // capacity.
  ReleaseEpoch(nullptr);
  Shutdown();
  for (std::thread& t : workers_) t.join();
}

bool IngestPipeline::Append(RowBatch batch) {
  if (batch.empty()) return !shutdown_.load(std::memory_order_acquire);
  size_t n = batch.rows();
  // Sequence assignment and the push must agree with queue FIFO order, so
  // both happen under one producer lock. Holding it across the blocking
  // fallback just serializes producers, which the bounded queue does anyway.
  std::lock_guard<std::mutex> g(producer_mu_);
  if (shutdown_.load(std::memory_order_acquire)) return false;
  SeqBatch item;
  // The seq is claimed BEFORE the push so the drain predicates already
  // count a batch that is mid-push (blocked on a full queue); a failed
  // push rolls the claim back — safe, since only producers (serialized
  // here) ever write next_seq_.
  item.seq = next_seq_.load(std::memory_order_relaxed);
  next_seq_.store(item.seq + 1, std::memory_order_release);
  item.batch = std::move(batch);
  if (!queue_.TryPush(&item)) {
    RUDOLF_COUNTER_INC("pipeline.backpressure.waits");
    RUDOLF_SCOPED_LATENCY("pipeline.backpressure.wait.seconds");
    if (!queue_.Push(std::move(item))) {
      next_seq_.store(item.seq, std::memory_order_release);
      return false;
    }
  }
  enqueued_rows_.fetch_add(n, std::memory_order_release);
  RUDOLF_COUNTER_INC("pipeline.ingest.batches");
  // `pipeline.queue.depth` is a high-water mark: the registry counter's
  // value equals the deepest queue observed (counters are monotonic, so
  // the gauge is published as the sum of high-water increments).
  size_t depth = queue_.size();
  // `pipeline.queue.length` is the live depth for scrapes; racy Set calls
  // from producers/workers just mean a slightly stale level, which is all a
  // gauge ever promises.
  static obs::Gauge* queue_length =
      obs::MetricsRegistry::Default().GetGauge("pipeline.queue.length");
  queue_length->Set(static_cast<int64_t>(depth));
  size_t prev = queue_depth_hwm_.load(std::memory_order_relaxed);
  while (depth > prev) {
    if (queue_depth_hwm_.compare_exchange_weak(prev, depth,
                                               std::memory_order_relaxed)) {
      RUDOLF_COUNTER_ADD("pipeline.queue.depth", depth - prev);
      break;
    }
  }
  return true;
}

void IngestPipeline::WorkerLoop() {
  SeqBatch item;
  while (queue_.Pop(&item)) {
    // (1) Validation runs out of order — the parallel share of the work.
    Status status = relation_->ValidateBatch(
        item.batch.columns, item.batch.true_labels, item.batch.visible_labels,
        item.batch.scores);
    if (!status.ok()) {
      RUDOLF_COUNTER_INC("pipeline.ingest.rejected_batches");
      RUDOLF_LOG(Warning) << "ingest batch " << item.seq
                          << " rejected: " << status.message();
      // The slot in the sequence must still be consumed or every later
      // batch deadlocks behind it.
      item.batch = RowBatch{};
    }
    // (2) Application is sequenced in Append order — row order, and with it
    // every downstream bitmap, is identical to the serial schedule's.
    ApplyInOrder(&item);
    // (3) Keep the attached tracker hot when no round holds the gate.
    MaybeExtendState();
  }
  // Last signals out: a waiter in Flush/WaitForApplied may be waiting for
  // the drained state this worker's exit completes.
  {
    std::lock_guard<std::mutex> lock(apply_mu_);
  }
  applied_cv_.notify_all();
}

void IngestPipeline::ApplyInOrder(SeqBatch* item) {
  size_t n = item->batch.rows();
  std::unique_lock<std::mutex> lock(apply_mu_);
  apply_cv_.wait(lock, [&] { return next_apply_seq_ == item->seq; });
  if (n > 0) {
    size_t needed = relation_->NumRows() + n;
    if (needed > relation_->CapacityRows()) {
      // Reallocation would move the columns out from under concurrent
      // prefix-bound readers; it may only happen with the gate open (no
      // round in flight) and state extensions excluded. Lock order:
      // apply_mu_ then state_mu_.
      RUDOLF_SCOPED_LATENCY("pipeline.relation.regrow.seconds");
      std::unique_lock<std::mutex> state(state_mu_);
      gate_cv_.wait(state, [&] { return !gate_closed_; });
      relation_->Reserve(std::max(needed, relation_->CapacityRows() * 2));
      RUDOLF_COUNTER_INC("pipeline.relation.regrows");
    }
    relation_->AppendBatchUnchecked(item->batch.columns, item->batch.true_labels,
                                    item->batch.visible_labels,
                                    item->batch.scores);
    applied_rows_.store(relation_->NumRows(), std::memory_order_release);
    RUDOLF_COUNTER_ADD("pipeline.ingest.rows", n);
    if (tenant_rows_counter_ != nullptr) tenant_rows_counter_->Inc(n);
    static obs::Gauge* queue_length =
        obs::MetricsRegistry::Default().GetGauge("pipeline.queue.length");
    queue_length->Set(static_cast<int64_t>(queue_.size()));
  }
  ++next_apply_seq_;
  apply_cv_.notify_all();
  applied_cv_.notify_all();
}

void IngestPipeline::MaybeExtendState() {
  // try_to_lock: if another worker is already extending (or a pin/release
  // is in progress), this batch's extension piggybacks on the next one —
  // the extension target is always read fresh under the lock.
  std::unique_lock<std::mutex> state(state_mu_, std::try_to_lock);
  if (!state.owns_lock()) return;
  if (gate_closed_ || tracker_ == nullptr) return;
  size_t target = applied_rows_.load(std::memory_order_acquire);
  if (target <= tracker_->prefix_rows()) return;
  RUDOLF_TIMED_SCOPE("pipeline.state.extend");
  RUDOLF_COUNTER_INC("pipeline.state.extends");
  tracker_->ExtendPrefix(target);
}

size_t IngestPipeline::WaitForApplied(size_t rows) {
  std::unique_lock<std::mutex> lock(apply_mu_);
  applied_cv_.wait(lock, [&] {
    if (applied_rows_.load(std::memory_order_acquire) >= rows) return true;
    // Drained shutdown is the only early exit: nothing more will ever apply.
    return shutdown_.load(std::memory_order_acquire) &&
           next_apply_seq_ == next_seq_enqueued();
  });
  return applied_rows_.load(std::memory_order_acquire);
}

void IngestPipeline::Flush() {
  std::unique_lock<std::mutex> lock(apply_mu_);
  // Sequence drain, NOT row counts: a rejected batch's rows are enqueued
  // but never applied, and must not wedge Flush forever.
  applied_cv_.wait(lock,
                   [&] { return next_apply_seq_ == next_seq_enqueued(); });
}

size_t IngestPipeline::PinEpoch(size_t target_rows) {
  RUDOLF_SPAN("pipeline.epoch.pin");
  if (target_rows != kNoTarget) WaitForApplied(target_rows);
  std::lock_guard<std::mutex> state(state_mu_);
  gate_closed_ = true;
  tracker_ = nullptr;
  size_t frozen =
      std::min(target_rows, applied_rows_.load(std::memory_order_acquire));
  frozen_prefix_.store(frozen, std::memory_order_release);
  uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  RUDOLF_COUNTER_INC("pipeline.epochs");
  obs::MetricsRegistry::Default()
      .GetGauge("pipeline.epoch")
      ->Set(static_cast<int64_t>(epoch));
  return frozen;
}

void IngestPipeline::ReleaseEpoch(CaptureTracker* tracker) {
  {
    std::lock_guard<std::mutex> state(state_mu_);
    gate_closed_ = false;
    tracker_ = tracker;
  }
  gate_cv_.notify_all();
}

bool IngestPipeline::gate_closed() const {
  std::lock_guard<std::mutex> state(state_mu_);
  return gate_closed_;
}

void IngestPipeline::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  queue_.Shutdown();
  // Wake Flush/WaitForApplied waiters so they re-check the drained state
  // (idle workers exit via Pop() returning false and notify again).
  applied_cv_.notify_all();
}

}  // namespace rudolf
