// The streaming ingest pipeline against the serial schedule: batches
// streamed through IngestPipeline at 1, 4 and 8 workers must reproduce the
// source relation bit-identically; refinement sessions pinned to frozen
// epochs while ingest continues must produce the same rules, edits and
// round counts as the serial advance-then-refine schedule; back-pressure
// must block producers (not drop rows) when a pinned epoch stalls the
// apply path; and shutdown with a non-empty queue must drain, never drop.
//
// Alongside ParallelEquivalence and the queue tests, this binary is a TSan
// target (run it under RUDOLF_SANITIZE=thread with RUDOLF_THREADS=8).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/session.h"
#include "expert/oracle_expert.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "pipeline/row_batch.h"
#include "rules/edit.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// Streams rows [begin, end) of `source` through `pipe` in random-size
// batches (1..max_batch rows).
void StreamSlice(const Relation& source, IngestPipeline* pipe, size_t begin,
                 size_t end, size_t max_batch, Rng* rng) {
  size_t at = begin;
  while (at < end) {
    size_t n = std::min(
        end - at, static_cast<size_t>(rng->UniformInt(
                      1, static_cast<int64_t>(max_batch))));
    ASSERT_TRUE(pipe->Append(RowBatch::FromRelationSlice(source, at, at + n)));
    at += n;
  }
}

// Cell-for-cell, label-for-label equality of the first `rows` rows.
void ExpectSameContent(const Relation& a, const Relation& b, size_t rows) {
  ASSERT_GE(a.NumRows(), rows);
  ASSERT_GE(b.NumRows(), rows);
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(a.Get(r, c), b.Get(r, c)) << "row " << r << " col " << c;
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(a.TrueLabel(r), b.TrueLabel(r)) << r;
    ASSERT_EQ(a.VisibleLabel(r), b.VisibleLabel(r)) << r;
    ASSERT_EQ(a.Score(r), b.Score(r)) << r;
  }
}

class PipelineIngest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Workers, PipelineIngest, ::testing::Values(1, 4, 8));

TEST_P(PipelineIngest, StreamedRelationMatchesSourceBitForBit) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 5000;
  Dataset ds = GenerateDataset(s.options);
  Rng label_rng(7);
  RevealLabels(ds.relation.get(), 0, ds.relation->NumRows(), 0.9, 0.08, 0.004,
               &label_rng);

  Relation live(ds.relation->shared_schema());
  IngestPipelineOptions opts;
  opts.num_workers = GetParam();
  opts.queue_capacity = 4;
  opts.reserve_rows = 0;  // force the capacity-growth path too
  {
    IngestPipeline pipe(&live, opts);
    Rng rng(GetParam() * 1000 + 1);
    StreamSlice(*ds.relation, &pipe, 0, ds.relation->NumRows(), 97, &rng);
    pipe.Flush();
    EXPECT_EQ(pipe.AppliedRows(), ds.relation->NumRows());
    EXPECT_EQ(pipe.EnqueuedRows(), ds.relation->NumRows());
  }
  ASSERT_EQ(live.NumRows(), ds.relation->NumRows());
  ExpectSameContent(live, *ds.relation, live.NumRows());
  // The O(1) per-label counts were maintained through the batch path.
  for (Label label : {Label::kUnlabeled, Label::kFraud, Label::kLegitimate}) {
    EXPECT_EQ(live.CountVisible(label), ds.relation->CountVisible(label));
  }
}

TEST(PipelineIngestErrors, MalformedBatchIsCountedSkippedAndNonBlocking) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 300;
  Dataset ds = GenerateDataset(s.options);
  Relation live(ds.relation->shared_schema());
  IngestPipeline pipe(&live, IngestPipelineOptions{4, 2, 0});

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(pipe.Append(RowBatch::FromRelationSlice(*ds.relation, 0, 100)));
  RowBatch bad = RowBatch::FromRelationSlice(*ds.relation, 100, 200);
  bad.columns.pop_back();  // wrong arity: fails validation
  ASSERT_TRUE(pipe.Append(std::move(bad)));  // accepted into the queue...
  ASSERT_TRUE(pipe.Append(RowBatch::FromRelationSlice(*ds.relation, 200, 300)));
  pipe.Flush();

  // ...but skipped at apply time, without wedging the batches sequenced
  // behind it: rows 200..300 landed right after rows 0..100.
  EXPECT_EQ(live.NumRows(), 200u);
  ExpectSameContent(live, *ds.relation, 100);
  for (size_t r = 100; r < 200; ++r) {
    EXPECT_EQ(live.TrueLabel(r), ds.relation->TrueLabel(r + 100)) << r;
  }
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  const obs::CounterSample* rejected =
      delta.FindCounter("pipeline.ingest.rejected_batches");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value, 1u);
}

TEST(PipelineBackpressure, PinnedEpochStallsProducerUntilRelease) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 400;
  Dataset ds = GenerateDataset(s.options);
  Relation live(ds.relation->shared_schema());
  live.Reserve(100);  // appliers stall at the capacity wall while pinned

  IngestPipelineOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 1;  // so the stall reaches the producer quickly
  IngestPipeline pipe(&live, opts);
  ASSERT_EQ(pipe.PinEpoch(), 0u);  // freeze at 0: gate closed from the start

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    for (size_t at = 0; at < 400; at += 10) {
      EXPECT_TRUE(
          pipe.Append(RowBatch::FromRelationSlice(*ds.relation, at, at + 10)));
    }
    producer_done.store(true, std::memory_order_release);
  });

  // With the gate closed, applies stop at the 100-row capacity; the bounded
  // queue then pushes back on the producer, which cannot finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(producer_done.load(std::memory_order_acquire));
  // Reserve(100) may round up, but the capacity wall must hold well short
  // of the full stream.
  EXPECT_LE(pipe.AppliedRows(), live.CapacityRows());
  EXPECT_LT(pipe.AppliedRows(), 400u);
  // While the epoch is pinned, the frozen prefix is untouched by the
  // ongoing applies — that is the whole point of the gate.
  EXPECT_TRUE(pipe.gate_closed());
  EXPECT_EQ(pipe.frozen_prefix(), 0u);

  pipe.ReleaseEpoch();  // round over: capacity may grow, everything drains
  producer.join();
  pipe.Flush();
  EXPECT_TRUE(producer_done.load());
  EXPECT_EQ(pipe.AppliedRows(), 400u);
  ExpectSameContent(live, *ds.relation, 400);

  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  const obs::CounterSample* waits =
      delta.FindCounter("pipeline.backpressure.waits");
  ASSERT_NE(waits, nullptr);
  EXPECT_GT(waits->value, 0u);
  const obs::CounterSample* regrows =
      delta.FindCounter("pipeline.relation.regrows");
  ASSERT_NE(regrows, nullptr);
  EXPECT_GT(regrows->value, 0u);
}

TEST(PipelineShutdown, NonEmptyQueueDrainsOnDestruction) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 2000;
  Dataset ds = GenerateDataset(s.options);
  Relation live(ds.relation->shared_schema());
  {
    IngestPipelineOptions opts;
    opts.num_workers = 4;
    opts.queue_capacity = 8;
    IngestPipeline pipe(&live, opts);
    Rng rng(55);
    StreamSlice(*ds.relation, &pipe, 0, 2000, 64, &rng);
    // Destroyed immediately: whatever is still queued must drain, not drop.
  }
  ASSERT_EQ(live.NumRows(), 2000u);
  ExpectSameContent(live, *ds.relation, 2000);
}

TEST(PipelineShutdown, AppendAfterShutdownIsRefused) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 100;
  Dataset ds = GenerateDataset(s.options);
  Relation live(ds.relation->shared_schema());
  IngestPipeline pipe(&live);
  ASSERT_TRUE(pipe.Append(RowBatch::FromRelationSlice(*ds.relation, 0, 50)));
  pipe.Shutdown();
  EXPECT_FALSE(pipe.Append(RowBatch::FromRelationSlice(*ds.relation, 50, 100)));
  pipe.Flush();
  EXPECT_EQ(live.NumRows(), 50u);  // pre-shutdown rows drained, no more
}

// The drift-freedom gate: a full interleaved append/refine schedule at
// several worker counts must be indistinguishable — rules, edit log, round
// counts, relation content — from the serial advance-then-refine schedule.
class PipelineEquivalence : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Workers, PipelineEquivalence, ::testing::Values(1, 4, 8));

TEST_P(PipelineEquivalence, InterleavedRefinementMatchesSerialSchedule) {
  const int workers = GetParam();
  Scenario s = TinyScenario();
  s.options.num_transactions = 2400;
  // Two identical worlds (the generator is deterministic in its options).
  Dataset pipelined_ds = GenerateDataset(s.options);
  Dataset serial_ds = GenerateDataset(s.options);
  {
    Rng a(7), b(7);
    RevealLabels(pipelined_ds.relation.get(), 0, 2400, 0.9, 0.08, 0.004, &a);
    RevealLabels(serial_ds.relation.get(), 0, 2400, 0.9, 0.08, 0.004, &b);
  }
  const std::vector<size_t> refine_at = {900, 1600, 2400};

  SessionOptions base;
  const Schema& schema = *pipelined_ds.cc.schema;

  // Serial schedule: the stream is "already there"; refine at each prefix.
  RuleSet serial_rules = SynthesizeInitialRules(serial_ds);
  EditLog serial_log;
  auto serial_expert = MakeDomainExpert(serial_ds, 42);
  RefinementSession serial_session(*serial_ds.relation, base);
  std::vector<SessionStats> serial_stats;
  for (size_t prefix : refine_at) {
    serial_stats.push_back(serial_session.Refine(prefix, &serial_rules,
                                                 serial_expert.get(),
                                                 &serial_log));
  }

  // Pipelined schedule: batches stream through the pipeline, each refine
  // pins a frozen epoch at the same prefix while ingest continues.
  Relation live(pipelined_ds.relation->shared_schema());
  IngestPipelineOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = 4;
  IngestPipeline pipe(&live, opts);

  SessionOptions popts = base;
  popts.pipelined = &pipe;
  RefinementSession pipelined_session(live, popts);
  RuleSet pipelined_rules = SynthesizeInitialRules(pipelined_ds);
  EditLog pipelined_log;
  auto pipelined_expert = MakeDomainExpert(pipelined_ds, 42);

  Rng rng(workers * 31 + 5);
  size_t streamed = 0;
  std::vector<SessionStats> pipelined_stats;
  for (size_t i = 0; i < refine_at.size(); ++i) {
    size_t target = refine_at[i];
    StreamSlice(*pipelined_ds.relation, &pipe, streamed, target, 73, &rng);
    streamed = target;
    // Refine(target) pins the epoch: it waits for the target to be applied,
    // then freezes — the appends of the NEXT slice (issued on the next loop
    // iteration) would keep running concurrently; the frozen prefix shields
    // the round either way.
    pipelined_stats.push_back(pipelined_session.Refine(
        target, &pipelined_rules, pipelined_expert.get(), &pipelined_log));
    EXPECT_EQ(pipelined_stats.back().frozen_prefix, target);
    EXPECT_EQ(pipelined_stats.back().epoch, i + 1);
  }
  pipe.Flush();

  // Bit-identity, layer by layer.
  ASSERT_EQ(live.NumRows(), serial_ds.relation->NumRows());
  ExpectSameContent(live, *serial_ds.relation, live.NumRows());
  EXPECT_EQ(pipelined_rules.ToString(schema), serial_rules.ToString(schema));
  EXPECT_EQ(pipelined_log.size(), serial_log.size());
  ASSERT_EQ(pipelined_stats.size(), serial_stats.size());
  size_t late_rebuilds = 0;
  for (size_t i = 0; i < serial_stats.size(); ++i) {
    EXPECT_EQ(pipelined_stats[i].rounds, serial_stats[i].rounds) << i;
    EXPECT_EQ(pipelined_stats[i].edits, serial_stats[i].edits) << i;
    if (i > 0) late_rebuilds += pipelined_stats[i].tracker_rebuilds;
  }
  // The attached tracker survived across epochs: with aligned stream/refine
  // boundaries and no out-of-band rule edits, only the first call builds.
  EXPECT_EQ(late_rebuilds, 0u);
}

// Concurrent producer: appends racing the refinement episodes themselves
// (not just between them). The frozen prefix must still yield the serial
// answer; this is the TSan-relevant interleaving.
TEST_P(PipelineEquivalence, RefinesWhileProducerKeepsAppending) {
  const int workers = GetParam();
  Scenario s = TinyScenario();
  s.options.num_transactions = 3000;
  Dataset pipelined_ds = GenerateDataset(s.options);
  Dataset serial_ds = GenerateDataset(s.options);
  {
    Rng a(9), b(9);
    RevealLabels(pipelined_ds.relation.get(), 0, 3000, 0.9, 0.08, 0.004, &a);
    RevealLabels(serial_ds.relation.get(), 0, 3000, 0.9, 0.08, 0.004, &b);
  }
  SessionOptions base;

  RuleSet serial_rules = SynthesizeInitialRules(serial_ds);
  EditLog serial_log;
  auto serial_expert = MakeDomainExpert(serial_ds, 42);
  RefinementSession serial_session(*serial_ds.relation, base);
  SessionStats serial_stats =
      serial_session.Refine(1000, &serial_rules, serial_expert.get(),
                            &serial_log);

  Relation live(pipelined_ds.relation->shared_schema());
  IngestPipelineOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = 2;  // tiny: the round WILL overlap live appends
  IngestPipeline pipe(&live, opts);
  SessionOptions popts = base;
  popts.pipelined = &pipe;
  RefinementSession pipelined_session(live, popts);
  RuleSet pipelined_rules = SynthesizeInitialRules(pipelined_ds);
  EditLog pipelined_log;
  auto pipelined_expert = MakeDomainExpert(pipelined_ds, 42);

  std::thread producer([&] {
    Rng rng(77);
    size_t at = 0;
    while (at < 3000) {
      size_t n = std::min<size_t>(3000 - at,
                                  static_cast<size_t>(rng.UniformInt(1, 50)));
      EXPECT_TRUE(pipe.Append(
          RowBatch::FromRelationSlice(*pipelined_ds.relation, at, at + n)));
      at += n;
    }
  });
  // Pin at 1000 while the producer races on toward 3000.
  SessionStats pipelined_stats = pipelined_session.Refine(
      1000, &pipelined_rules, pipelined_expert.get(), &pipelined_log);
  producer.join();
  pipe.Flush();

  EXPECT_EQ(pipelined_stats.frozen_prefix, 1000u);
  EXPECT_EQ(pipelined_stats.rounds, serial_stats.rounds);
  EXPECT_EQ(pipelined_rules.ToString(*pipelined_ds.cc.schema),
            serial_rules.ToString(*serial_ds.cc.schema));
  EXPECT_EQ(pipelined_log.size(), serial_log.size());
  ASSERT_EQ(live.NumRows(), 3000u);
  ExpectSameContent(live, *serial_ds.relation, 3000);
}

}  // namespace
}  // namespace rudolf
