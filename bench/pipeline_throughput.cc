// Streaming ingest pipeline: sustained append throughput while refinement
// rounds run against frozen epochs — the decoupled append/evaluate regime
// (ROADMAP item 2). A producer thread streams the dataset through
// IngestPipeline in fixed-size batches as fast as it can; concurrently, the
// main thread runs pipelined RefinementSession::Refine calls pinned at
// fixed prefixes. Afterwards the run is replayed on the serial schedule
// (same prefixes, stream "already there") and the two worlds must be
// BIT-IDENTICAL: relation content, final rules, edit-log size, round
// counts. A divergence is FATAL (exit 1) — that is the drift-freedom gate.
// The ≥1M rows/s throughput target is a shape check: it reflects the
// acceptance hardware; small containers may undershoot without failing.
//
//   RUDOLF_BENCH_N=...               rows (default 400,000)
//   RUDOLF_PIPELINE_WORKERS / RUDOLF_PIPELINE_QUEUE  pipeline sizing
//   RUDOLF_THREADS / RUDOLF_INDEX    eval config of the refinement rounds
//   RUDOLF_BENCH_JSON_DIR=..         where BENCH_pipeline_throughput.json lands

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/session.h"
#include "expert/oracle_expert.h"
#include "pipeline/ingest_pipeline.h"
#include "pipeline/row_batch.h"
#include "rules/edit.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"

namespace rudolf {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool SameContent(const Relation& a, const Relation& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t c = 0; c < a.NumColumns(); ++c) {
    const std::vector<CellValue>& ca = a.Column(c);
    const std::vector<CellValue>& cb = b.Column(c);
    for (size_t r = 0; r < a.NumRows(); ++r) {
      if (ca[r] != cb[r]) return false;
    }
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    if (a.TrueLabel(r) != b.TrueLabel(r) ||
        a.VisibleLabel(r) != b.VisibleLabel(r) || a.Score(r) != b.Score(r)) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  // Optional live scrape endpoint for the duration of the run
  // (RUDOLF_METRICS_PORT) — queue depth and epoch gauges move while the
  // streamed world ingests.
  bench::LiveMetricsScope live_metrics;

  const size_t rows = bench::BenchRows(400000);
  const size_t batch = rows >= 100000 ? 4096 : (rows / 50 > 0 ? rows / 50 : 1);
  bench::Banner(
      "pipeline throughput (decoupled append/evaluate)",
      "ingest must not pause for refinement — rounds pin a frozen epoch "
      "while appends stream on, with zero round-output drift");

  // Two identical worlds: one streamed through the pipeline, one static for
  // the serial replay.
  Scenario scenario = DefaultScenario(rows);
  Dataset streamed_ds = GenerateDataset(scenario.options);
  Dataset serial_ds = GenerateDataset(scenario.options);
  {
    Rng a(17), b(17);
    RevealLabels(streamed_ds.relation.get(), 0, rows, 0.9, 0.08, 0.004, &a);
    RevealLabels(serial_ds.relation.get(), 0, rows, 0.9, 0.08, 0.004, &b);
  }
  const std::vector<size_t> refine_at = {rows / 4, rows / 2, (rows * 3) / 4,
                                         rows};
  std::printf("stream: %zu rows in %zu-row batches; refines pinned at "
              "%zu / %zu / %zu / %zu\n\n",
              rows, batch, refine_at[0], refine_at[1], refine_at[2],
              refine_at[3]);

  SessionOptions session_base;

  // ---- Pipelined run: producer races the refiner. -------------------------
  Relation live(streamed_ds.relation->shared_schema());
  IngestPipelineOptions popts;  // RUDOLF_PIPELINE_* env overrides apply
  popts.reserve_rows = rows;    // steady state: no reallocation stalls
  IngestPipeline pipe(&live, popts);

  SessionOptions pipelined_opts = session_base;
  pipelined_opts.pipelined = &pipe;
  RefinementSession pipelined_session(live, pipelined_opts);
  RuleSet pipelined_rules = SynthesizeInitialRules(streamed_ds);
  EditLog pipelined_log;
  auto pipelined_expert = MakeDomainExpert(streamed_ds, 42);

  std::atomic<double> ingest_seconds{0.0};
  std::thread producer([&] {
    auto start = Clock::now();
    for (size_t at = 0; at < rows; at += batch) {
      size_t end = std::min(at + batch, rows);
      if (!pipe.Append(
              RowBatch::FromRelationSlice(*streamed_ds.relation, at, end))) {
        std::fprintf(stderr, "FATAL: Append refused mid-stream\n");
        std::abort();
      }
    }
    pipe.Flush();
    ingest_seconds.store(Seconds(start, Clock::now()),
                         std::memory_order_release);
  });

  auto refine_start = Clock::now();
  std::vector<SessionStats> pipelined_stats;
  for (size_t target : refine_at) {
    pipelined_stats.push_back(pipelined_session.Refine(
        target, &pipelined_rules, pipelined_expert.get(), &pipelined_log));
    if (pipelined_stats.back().frozen_prefix != target) {
      std::printf("FATAL: pinned epoch froze at %zu, wanted %zu\n",
                  pipelined_stats.back().frozen_prefix, target);
      return 1;
    }
  }
  double refine_seconds = Seconds(refine_start, Clock::now());
  producer.join();
  pipe.Flush();

  double ingest_s = ingest_seconds.load(std::memory_order_acquire);
  double rows_per_sec = ingest_s > 0.0 ? static_cast<double>(rows) / ingest_s : 0.0;

  // ---- Serial replay: same prefixes, stream already materialized. ---------
  RuleSet serial_rules = SynthesizeInitialRules(serial_ds);
  EditLog serial_log;
  auto serial_expert = MakeDomainExpert(serial_ds, 42);
  RefinementSession serial_session(*serial_ds.relation, session_base);
  auto serial_start = Clock::now();
  std::vector<SessionStats> serial_stats;
  for (size_t target : refine_at) {
    serial_stats.push_back(serial_session.Refine(
        target, &serial_rules, serial_expert.get(), &serial_log));
  }
  double serial_seconds = Seconds(serial_start, Clock::now());

  // ---- Bit-identity gate. -------------------------------------------------
  const Schema& schema = *streamed_ds.cc.schema;
  if (!SameContent(live, *serial_ds.relation)) {
    std::printf("FATAL: streamed relation diverges from the source\n");
    return 1;
  }
  if (pipelined_rules.ToString(schema) != serial_rules.ToString(schema)) {
    std::printf("FATAL: pipelined rules diverge from the serial schedule\n");
    return 1;
  }
  if (pipelined_log.size() != serial_log.size()) {
    std::printf("FATAL: edit-log drift: pipelined %zu vs serial %zu\n",
                pipelined_log.size(), serial_log.size());
    return 1;
  }
  for (size_t i = 0; i < refine_at.size(); ++i) {
    if (pipelined_stats[i].rounds != serial_stats[i].rounds ||
        pipelined_stats[i].edits != serial_stats[i].edits) {
      std::printf("FATAL: round drift at refine %zu (rounds %d vs %d, edits "
                  "%zu vs %zu)\n",
                  i, pipelined_stats[i].rounds, serial_stats[i].rounds,
                  pipelined_stats[i].edits, serial_stats[i].edits);
      return 1;
    }
  }

  std::printf("ingest:   %zu rows in %.3f s  (%.2fM rows/s), %zu epochs\n",
              rows, ingest_s, rows_per_sec / 1e6,
              static_cast<size_t>(pipe.epoch()));
  std::printf("refines:  %zu pinned rounds in %.3f s (concurrent with "
              "ingest)\n",
              refine_at.size(), refine_seconds);
  std::printf("serial:   same schedule, static stream: %.3f s\n\n",
              serial_seconds);

  bench::ShapeCheck("zero round-output drift vs the serial schedule", true);
  bench::ShapeCheck("sustained ingest >= 1M rows/s while rounds run",
                    rows_per_sec >= 1e6);

  bench::BenchJson json("pipeline_throughput", rows);
  json.Metric("batch_rows", static_cast<double>(batch));
  json.Metric("refines", static_cast<double>(refine_at.size()));
  json.Metric("ingest_s", ingest_s);
  json.Metric("rows_per_sec", rows_per_sec);
  json.Metric("refine_concurrent_s", refine_seconds);
  json.Metric("serial_refine_s", serial_seconds);
  json.Metric("epochs", static_cast<double>(pipe.epoch()));
  json.Write();
  return 0;
}
