#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fleet/fleet_manager.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "pipeline/row_batch.h"
#include "rules/evaluator.h"
#include "serving/serving_engine.h"
#include "spans.h"
#include "util/random.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace perfbench {

using rudolf::Dataset;
using rudolf::Decision;
using rudolf::EditLog;
using rudolf::Relation;
using rudolf::RuleSet;
using rudolf::ServingEngine;
using rudolf::SessionOptions;
using rudolf::SessionStats;
using rudolf::Tuple;

// ---------------------------------------------------------------------------
// TimedExpert

Clock::time_point TimedExpert::Enter() {
  Clock::time_point start = Clock::now();
  if (have_last_) waits_s_.push_back(Seconds(last_end_, start));
  return start;
}

void TimedExpert::Leave(Clock::time_point start) {
  last_end_ = Clock::now();
  have_last_ = true;
  self_s_ += Seconds(start, last_end_);
  ++reviews_;
}

rudolf::GeneralizationReview TimedExpert::ReviewGeneralization(
    const rudolf::GeneralizationProposal& proposal,
    const rudolf::Relation& relation) {
  Clock::time_point start = Enter();
  rudolf::GeneralizationReview review;
  {
    ScopedSpan span("expert.review");
    review = inner_->ReviewGeneralization(proposal, relation);
  }
  Leave(start);
  ++gen_reviews_;
  using Action = rudolf::GeneralizationReview::Action;
  if (review.action == Action::kAccept || review.action == Action::kAcceptRevised) {
    ++gen_accepted_;
  }
  return review;
}

rudolf::SplitReview TimedExpert::ReviewSplit(const rudolf::SplitProposal& proposal,
                                             const rudolf::Relation& relation) {
  Clock::time_point start = Enter();
  rudolf::SplitReview review;
  {
    ScopedSpan span("expert.review");
    review = inner_->ReviewSplit(proposal, relation);
  }
  Leave(start);
  ++split_reviews_;
  if (review.action != rudolf::SplitReview::Action::kReject) ++split_accepted_;
  return review;
}

rudolf::RetirementReview TimedExpert::ReviewRetirement(
    const rudolf::Rule& rule, const rudolf::Relation& relation) {
  Clock::time_point start = Enter();
  rudolf::RetirementReview review;
  {
    ScopedSpan span("expert.review");
    review = inner_->ReviewRetirement(rule, relation);
  }
  Leave(start);
  return review;
}

// ---------------------------------------------------------------------------
// Figure3Protocol

size_t ProtocolPrefix(size_t rows, int hop) {
  double frac = 0.4 + 0.08 * hop;
  frac = std::min(frac, 1.0);
  return static_cast<size_t>(frac * static_cast<double>(rows));
}

namespace {

void Reveal(Dataset* dataset, size_t begin, size_t end, rudolf::Rng* rng) {
  rudolf::RevealLabels(dataset->relation.get(), begin, end,
                       dataset->options.label_coverage,
                       dataset->options.mislabel_fraction,
                       dataset->options.false_fraud_fraction, rng);
}

void ResetVisibleLabels(Relation* relation) {
  for (size_t r = 0; r < relation->NumRows(); ++r) {
    relation->SetVisibleLabel(r, rudolf::Label::kUnlabeled);
  }
}

constexpr uint64_t kRevealSalt = 0xA11CEULL;  // as the ExperimentRunner

}  // namespace

Figure3Protocol::Figure3Protocol(Dataset* dataset, const ProtocolConfig& config)
    : dataset_(dataset), config_(config) {
  Relation* relation = dataset_->relation.get();
  ResetVisibleLabels(relation);
  rudolf::Rng rng(config_.seed);
  Reveal(dataset_, 0, ProtocolPrefix(relation->NumRows(), 0), &rng);
  rules_ = rudolf::SynthesizeInitialRules(*dataset_, rudolf::InitialRuleOptions{});
  oracle_ = rudolf::MakeDomainExpert(*dataset_, config_.seed);
  timed_ = std::make_unique<TimedExpert>(oracle_.get());
  SessionOptions options;
  options.eval.num_threads = config_.eval_threads;
  session_ = std::make_unique<rudolf::RefinementSession>(*relation, options);
}

void Figure3Protocol::RunHops() {
  Relation* relation = dataset_->relation.get();
  const size_t n = relation->NumRows();
  rudolf::Rng reveal_rng(config_.seed ^ kRevealSalt);
  for (int hop = 1; hop <= kProtocolHops; ++hop) {
    Hop record;
    record.prefix = ProtocolPrefix(n, hop);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("protocol.reveal");
      Reveal(dataset_, ProtocolPrefix(n, hop - 1), record.prefix,
             &reveal_rng);
    }
    Clock::time_point t1 = Clock::now();
    timed_->BeginRefine();
    {
      ScopedSpan span("session.refine");
      record.stats = session_->Refine(record.prefix, &rules_, timed_.get(), &log_);
    }
    Clock::time_point t2 = Clock::now();
    {
      ScopedSpan span("quality.evaluate");
      record.future = rudolf::EvaluateOnRange(*relation, rules_, record.prefix, n);
    }
    Clock::time_point t3 = Clock::now();
    record.reveal_s = Seconds(t0, t1);
    record.refine_s = Seconds(t1, t2);
    record.evaluate_s = Seconds(t2, t3);
    hops_.push_back(record);
  }
}

// ---------------------------------------------------------------------------
// Shared measurement pieces

namespace {

// Refinement is one fixed protocol per institute: a fixed transaction
// stream (the library's default scenario seed; one fixed scenario per fleet
// tenant), label history and domain expert. Seeded randomness in labels or
// expert sends refinement down paths whose cost spreads by 12-46% (quartile
// distance over median) from seed to seed, which no useful bound survives. --seed draws the
// traffic around refinement instead: the transactions served after the
// protocol (protocol_1m), the arrival times (stream_serve) and the order in
// which tenants join the fleet (fleet_64).
constexpr uint64_t kScenarioSeed = 7;
constexpr uint64_t kProtocolSeed = 2024;  // the ExperimentRunner's default

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

rudolf::obs::MetricsSnapshot Snap() {
  return rudolf::obs::MetricsRegistry::Default().Snapshot();
}

/// Reads of a registry delta; absent series read as zero.
struct Registry {
  const rudolf::obs::MetricsSnapshot& delta;

  double Count(const char* name) const {
    const auto* c = delta.FindCounter(name);
    return c != nullptr ? static_cast<double>(c->value) : 0.0;
  }
  double Sum(const char* name) const {
    const auto* h = delta.FindHistogram(name);
    return h != nullptr ? h->sum_seconds : 0.0;
  }
  double At(const char* name, double q) const {
    const auto* h = delta.FindHistogram(name);
    return h != nullptr ? h->ValueAtQuantile(q) : 0.0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything the per-layer metrics are computed from. Zero where a layer
/// does not take part in the workload.
struct LayerInputs {
  double generate_s = 0;
  double refine_s = 0;  // Refine wall time, pipeline epoch wait excluded
  double expert_self_s = 0;
  double inner_rounds = 0;
  double tracker_builds = 0, tracker_extends = 0;
  double tracker_build_s = 0, tracker_extend_s = 0;
  double evaluate_s = 0;
  double decide_busy_s = 0;
  double append_block_s = 0, epoch_wait_s = 0;
  double late_p50_us = 0, late_p99_us = 0;
  double decide_p99_whole_us = 0;  // whole-stream open-loop p99
  double wave_p50_s = 0, first_wave_s = 0;
  double cpu_s = 0, wall_s = 0;  // over the measured phases
  double gen_reviews = 0, gen_accepted = 0;
  double split_reviews = 0, split_accepted = 0;
  double untraced_wall_s = 0, traced_wall_s = 0;
  rudolf::obs::MetricsSnapshot registry;  // delta over the measured phases
};

void AddExpert(const TimedExpert& e, LayerInputs* in) {
  in->expert_self_s += e.self_seconds();
  in->gen_reviews += static_cast<double>(e.generalize_reviews());
  in->gen_accepted += static_cast<double>(e.generalize_accepted());
  in->split_reviews += static_cast<double>(e.split_reviews());
  in->split_accepted += static_cast<double>(e.split_accepted());
}

void AddSession(const SessionStats& s, LayerInputs* in) {
  in->inner_rounds += s.rounds;
  in->tracker_builds += static_cast<double>(s.tracker_rebuilds);
  in->tracker_extends += static_cast<double>(s.tracker_extends);
  in->tracker_build_s += s.rebuild_seconds;
  in->tracker_extend_s += s.extend_seconds;
}

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  Registry reg{in.registry};
  double hits = reg.Count("index.cache.hits");
  double misses = reg.Count("index.cache.misses");
  return {
      {"workload.generate_s", in.generate_s, "s"},
      {"session.refine_self_s", in.refine_s - in.expert_self_s, "s"},
      {"session.inner_rounds", in.inner_rounds, "count"},
      {"expert.self_s", in.expert_self_s, "s"},
      {"tracker.builds", in.tracker_builds, "count"},
      {"tracker.extends", in.tracker_extends, "count"},
      {"tracker.reuse_ratio",
       Ratio(in.tracker_extends, in.tracker_builds + in.tracker_extends),
       "ratio"},
      {"tracker.build_s", in.tracker_build_s, "s"},
      {"tracker.extend_s", in.tracker_extend_s, "s"},
      {"index.numeric.builds", reg.Count("index.numeric.builds"), "count"},
      {"index.categorical.builds", reg.Count("index.categorical.builds"),
       "count"},
      {"index.build_s",
       reg.Sum("index.numeric.build.seconds") +
           reg.Sum("index.categorical.build.seconds"),
       "s"},
      {"index.cache.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"index.cache.evictions", reg.Count("index.cache.evictions"), "count"},
      {"generalize.rank_s", reg.Sum("generalize.rank.seconds"), "s"},
      {"generalize.cluster_s", reg.Sum("generalize.cluster.seconds"), "s"},
      {"generalize.accept_ratio", Ratio(in.gen_accepted, in.gen_reviews),
       "ratio"},
      {"specialize.rank_s", reg.Sum("specialize.rank_splits.seconds"), "s"},
      {"specialize.accept_ratio", Ratio(in.split_accepted, in.split_reviews),
       "ratio"},
      {"quality.evaluate_s", in.evaluate_s, "s"},
      {"serving.decide_busy_s", in.decide_busy_s, "s"},
      {"serving.publishes", reg.Count("serving.publishes"), "count"},
      {"serving.compile_s", reg.Sum("serving.compile.seconds"), "s"},
      {"pipeline.append_block_s", in.append_block_s, "s"},
      {"pipeline.epoch_wait_s", in.epoch_wait_s, "s"},
      {"pipeline.backpressure_waits", reg.Count("pipeline.backpressure.waits"),
       "count"},
      {"pipeline.worker_extend_s", reg.Sum("pipeline.state.extend.seconds"),
       "s"},
      {"serving.decide_p99_whole_us", in.decide_p99_whole_us, "us"},
      {"generator.late_p50_us", in.late_p50_us, "us"},
      {"generator.late_p99_us", in.late_p99_us, "us"},
      {"fleet.wave_p50_s", in.wave_p50_s, "s"},
      {"fleet.first_wave_s", in.first_wave_s, "s"},
      {"scheduler.episodes", reg.Count("scheduler.episodes"), "count"},
      {"scheduler.steals", reg.Count("scheduler.steals"), "count"},
      {"scheduler.inline", reg.Count("scheduler.inline"), "count"},
      {"process.cpu_per_wall", Ratio(in.cpu_s, in.wall_s), "ratio"},
      {"trace.overhead_pct",
       100.0 * Ratio(in.traced_wall_s - in.untraced_wall_s, in.untraced_wall_s),
       "%"},
  };
}

/// The user-facing numbers every workload measures in its untraced pass
/// (setup and memory are added by the caller).
struct EndToEnd {
  double protocol_s = 0;
  double refine_s = 0;
  double rounds_per_s = 0;
  // Reported with every run but not bounded: their spread from run to run
  // on a shared host is too wide for a useful bound (see README.md).
  double proposal_wait_p99_ms = 0;
  double future_error_pct = 0;
  double deploy_lag_p50_ms = 0;
  double decide_p50_us = 0, decide_p99_us = 0;
  double decide_capacity_per_s = 0;
  double round_p50_ms = 0, round_p95_ms = 0;
};

/// The bounded end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> EndToEndMetrics(double setup_s, double peak_rss_mb,
                                    const EndToEnd& e) {
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"protocol_s", e.protocol_s, "s"},
      {"refine_s", e.refine_s, "s"},
      {"rounds_per_s", e.rounds_per_s, "1/s"},
  };
}

/// The unbounded end-to-end numbers, under the names the per-layer list
/// carries them (each under the layer that produces it).
std::vector<Metric> ReportedMetrics(const EndToEnd& e) {
  return {
      {"session.round_p50_ms", e.round_p50_ms, "ms"},
      {"session.round_p95_ms", e.round_p95_ms, "ms"},
      {"session.proposal_wait_p99_ms", e.proposal_wait_p99_ms, "ms"},
      {"quality.future_error_pct", e.future_error_pct, "%"},
      {"serving.deploy_lag_p50_ms", e.deploy_lag_p50_ms, "ms"},
      {"serving.decide_p50_us", e.decide_p50_us, "us"},
      {"serving.decide_p99_us", e.decide_p99_us, "us"},
      {"serving.decide_capacity_per_s", e.decide_capacity_per_s, "1/s"},
  };
}

/// One measured pass of a workload.
struct Pass {
  EndToEnd e2e;
  LayerInputs layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  std::vector<std::string> report;
};

/// Median of one EndToEnd field over repetitions.
template <typename Rep>
double MedianOf(const std::vector<Rep>& reps, double EndToEnd::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.e2e.*field);
  return Median(v);
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Transactions stored row-major in one flat array, in arrival order. Load
/// copies one into a reused tuple: sequential reads and no allocation, as
/// for a transaction that has just arrived, instead of a pointer chase to a
/// cold heap block per transaction.
struct Transactions {
  size_t arity = 0;
  std::vector<rudolf::CellValue> cells;

  size_t size() const { return arity == 0 ? 0 : cells.size() / arity; }
  void Load(size_t i, Tuple* out) const {
    auto first = cells.begin() + static_cast<ptrdiff_t>(i * arity);
    out->assign(first, first + static_cast<ptrdiff_t>(arity));
  }
};

Transactions Rows(const Relation& relation, const std::vector<size_t>& rows) {
  Transactions t;
  t.arity = relation.NumColumns();
  t.cells.reserve(rows.size() * t.arity);
  for (size_t r : rows) {
    for (size_t c = 0; c < t.arity; ++c) t.cells.push_back(relation.Get(r, c));
  }
  return t;
}

std::vector<size_t> Range(size_t begin, size_t end) {
  std::vector<size_t> rows;
  for (size_t r = begin; r < end; ++r) rows.push_back(r);
  return rows;
}

Transactions Rows(const Relation& relation, size_t begin, size_t end) {
  return Rows(relation, Range(begin, end));
}

/// Decides `txns` back to back, timing each call; returns the busy time.
double DecideTimed(const ServingEngine& engine, const Transactions& txns,
                   std::vector<double>* latency_s) {
  Decision d;
  Tuple t;
  double busy = 0;
  for (size_t i = 0; i < txns.size(); ++i) {
    txns.Load(i, &t);
    ScopedSpan span("serving.decide");
    Clock::time_point a = Clock::now();
    engine.Decide(t, &d);
    double s = Seconds(a, Clock::now());
    latency_s->push_back(s);
    busy += s;
  }
  return busy;
}

/// Back-to-back decisions per second on one thread against the current
/// artifact. Cycles over `tuples` in chunks of at most 4096 decisions for
/// about `seconds` (at least 16 chunks) and reports the 90th percentile of
/// the chunk rates: the capacity the thread reaches when the host leaves it
/// alone, which a brief burst of interference on a shared host does not move.
double DecideCapacity(const ServingEngine& engine, const Transactions& txns,
                      double seconds = 0.5) {
  const size_t chunk = std::min<size_t>(4096, txns.size());
  std::vector<double> rates;
  Decision d;
  Tuple t;
  size_t at = 0;
  Clock::time_point start = Clock::now();
  while (rates.size() < 16 || Seconds(start, Clock::now()) < seconds) {
    Clock::time_point a = Clock::now();
    for (size_t k = 0; k < chunk; ++k) {
      txns.Load(at, &t);
      engine.Decide(t, &d);
      at = at + 1 == txns.size() ? 0 : at + 1;
    }
    rates.push_back(static_cast<double>(chunk) / Seconds(a, Clock::now()));
  }
  return Quantile(rates, 0.9);
}

/// Rows of `sample` whose serving decision on the engine's current epoch
/// differs from the batch RuleEvaluator captures of `rules` over the first
/// `rows` rows of `relation`.
size_t ServingMismatches(const ServingEngine& engine, const Relation& relation,
                         size_t rows, const RuleSet& rules,
                         const std::vector<size_t>& sample) {
  const std::vector<rudolf::RuleId> ids = rules.LiveIds();
  rudolf::RuleEvaluator scan(relation, rows, rudolf::EvalOptions{1, false});
  std::vector<rudolf::Bitset> bitmaps = scan.EvalRules(rules, ids);
  Decision d;
  size_t bad = 0;
  for (size_t r : sample) {
    std::vector<rudolf::RuleId> expected;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (bitmaps[k].Test(r)) expected.push_back(ids[k]);
    }
    engine.Decide(relation.GetRow(r), &d);
    if (d.fired != expected || d.flagged != !expected.empty()) ++bad;
  }
  return bad;
}

std::vector<size_t> EveryNth(size_t begin, size_t end, size_t step) {
  std::vector<size_t> rows;
  for (size_t r = begin; r < end; r += step) rows.push_back(r);
  return rows;
}

/// Runs `setup` `reps` times, keeping the last result; returns the median
/// wall time of a setup.
template <typename T>
double RepeatSetup(int reps, const std::function<std::unique_ptr<T>()>& setup,
                   std::unique_ptr<T>* out) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    out->reset();
    Clock::time_point a = Clock::now();
    *out = setup();
    times.push_back(Seconds(a, Clock::now()));
  }
  return Median(times);
}

/// Layer report of a traced pass: the benchmark's spans (self time and
/// share of the measured wall), the inclusive registry timings, and every
/// ratio with its base.
std::vector<std::string> LayerReport(const LayerInputs& in,
                                     const std::vector<SpanEvent>& spans) {
  std::vector<std::string> out;
  out.push_back(Format("[layers] measured wall %.3f s (timed window + decide pass)",
                       in.wall_s));
  out.push_back(Format("[layers] %-22s %9s %10s %10s %7s", "span", "count",
                       "self_s", "incl_s", "share"));
  for (const auto& [name, t] : AggregateByName(spans)) {
    out.push_back(Format("[layers] %-22s %9zu %10.4f %10.4f %6.1f%%", name.c_str(),
                         t.count, t.self_s, t.inclusive_s,
                         100.0 * Ratio(t.self_s, in.wall_s)));
  }
  Registry reg{in.registry};
  out.push_back("[layers] registry timings inside Refine are INCLUSIVE (each "
                "contains its callees; shares do not add up):");
  for (const char* name :
       {"index.numeric.build.seconds", "index.categorical.build.seconds",
        "generalize.rank.seconds", "generalize.cluster.seconds",
        "specialize.rank_splits.seconds", "serving.compile.seconds",
        "pipeline.state.extend.seconds", "fleet.round.seconds"}) {
    const auto* h = in.registry.FindHistogram(name);
    if (h == nullptr || h->count == 0) continue;
    out.push_back(Format("[layers]   %-32s count %8llu  incl %9.4f s  %6.1f%% of wall",
                         name, static_cast<unsigned long long>(h->count),
                         h->sum_seconds, 100.0 * Ratio(h->sum_seconds, in.wall_s)));
  }
  double hits = reg.Count("index.cache.hits"), misses = reg.Count("index.cache.misses");
  out.push_back(Format("[layers] tracker.reuse_ratio = extends / (builds + extends) "
                       "= %.0f / %.0f", in.tracker_extends,
                       in.tracker_builds + in.tracker_extends));
  out.push_back(Format("[layers] index.cache.hit_ratio = hits / (hits + misses) = "
                       "%.0f / %.0f", hits, hits + misses));
  out.push_back(Format("[layers] generalize.accept_ratio = accepted / reviewed = "
                       "%.0f / %.0f", in.gen_accepted, in.gen_reviews));
  out.push_back(Format("[layers] specialize.accept_ratio = accepted / reviewed = "
                       "%.0f / %.0f", in.split_accepted, in.split_reviews));
  out.push_back(Format("[layers] process.cpu_per_wall = %.3f s CPU / %.3f s wall",
                       in.cpu_s, in.wall_s));
  out.push_back(Format("[layers] scheduler: %.0f episodes, %.0f steals, %.0f inline",
                       reg.Count("scheduler.episodes"), reg.Count("scheduler.steals"),
                       reg.Count("scheduler.inline")));
  out.push_back(Format("[trace] overhead: traced pass %.3f s vs untraced pass %.3f s "
                       "(%+.1f%%)", in.traced_wall_s, in.untraced_wall_s,
                       100.0 * Ratio(in.traced_wall_s - in.untraced_wall_s,
                                     in.untraced_wall_s)));
  return out;
}

/// Runs `pass(traced)` once untraced and, in trace runs, once more traced;
/// assembles the result from the untraced pass (end to end) and the traced
/// pass (layers).
WorkloadResult Assemble(const Args& args, double setup_s, double generate_s,
                        const std::function<Pass(bool traced)>& pass) {
  WorkloadResult result;
  SpanRecorder::Get().SetEnabled(false);
  SpanRecorder::Get().Clear();
  Pass plain = pass(false);
  double peak = PeakRssMb();
  result.attempted = plain.attempted;
  result.failed = plain.failed;
  result.digest = plain.digest;
  result.report = plain.report;
  result.end_to_end = EndToEndMetrics(setup_s, peak, plain.e2e);
  result.reported = ReportedMetrics(plain.e2e);
  if (!args.trace) return result;

  SpanRecorder::Get().Clear();
  SpanRecorder::Get().SetEnabled(true);
  Pass traced = pass(true);
  SpanRecorder::Get().SetEnabled(false);
  std::vector<SpanEvent> spans = SpanRecorder::Get().Collect();
  traced.layers.generate_s = generate_s;
  traced.layers.untraced_wall_s = plain.layers.wall_s;
  traced.layers.traced_wall_s = traced.layers.wall_s;
  result.attempted += traced.attempted;
  result.failed += traced.failed;
  if (traced.digest != plain.digest) {
    ++result.failed;
    result.report.push_back("[check] FAIL traced pass digest differs from untraced");
  }
  for (const std::string& line : traced.report) result.report.push_back("[traced]" + line);
  result.layers = LayerMetrics(traced.layers);
  // Timings that users see come from the untraced pass.
  result.layers.insert(result.layers.end(), result.reported.begin(),
                       result.reported.end());
  for (std::string& line : LayerReport(traced.layers, spans)) {
    result.report.push_back(std::move(line));
  }
  return result;
}

// ---------------------------------------------------------------------------
// protocol_1m: the Figure-3 protocol at one million rows.

constexpr size_t kProtocolRows = 1000000;
constexpr size_t kServedTransactions = 200000;

struct ProtocolData {
  Dataset dataset;
  std::unique_ptr<Figure3Protocol> protocol;  // the first pass's, built in set-up
};

WorkloadResult RunProtocol1m(const Args& args) {
  ProtocolConfig config;
  config.seed = kProtocolSeed;
  config.eval_threads = static_cast<int>(std::min(4u, Nproc()));

  std::unique_ptr<ProtocolData> data;
  std::vector<double> generate_times;
  double setup_s = RepeatSetup<ProtocolData>(
      5,
      [&] {
        auto d = std::make_unique<ProtocolData>();
        Clock::time_point a = Clock::now();
        d->dataset = rudolf::GenerateDataset(
            rudolf::DefaultScenario(kProtocolRows, kScenarioSeed).options);
        generate_times.push_back(Seconds(a, Clock::now()));
        d->protocol = std::make_unique<Figure3Protocol>(&d->dataset, config);
        return d;
      },
      &data);

  Dataset* dataset = &data->dataset;
  auto pass = [&](bool) {
    Pass p;
    std::unique_ptr<Figure3Protocol> owned = std::move(data->protocol);
    if (owned == nullptr) owned = std::make_unique<Figure3Protocol>(dataset, config);
    Figure3Protocol& protocol = *owned;
    const Relation& relation = *dataset->relation;
    const size_t n = relation.NumRows();
    const size_t suffix = ProtocolPrefix(n, kProtocolHops);
    // The served traffic: kServedTransactions draws from the unseen suffix.
    rudolf::Rng traffic(args.seed);
    std::vector<size_t> served;
    for (size_t k = 0; k < kServedTransactions; ++k) {
      served.push_back(static_cast<size_t>(traffic.UniformInt(
          static_cast<int64_t>(suffix), static_cast<int64_t>(n) - 1)));
    }
    Transactions tuples = Rows(relation, served);
    std::vector<double> latency;
    latency.reserve(tuples.size());

    rudolf::obs::MetricsSnapshot before = Snap();
    double cpu0 = ProcessCpuSeconds();
    Clock::time_point w0 = Clock::now();
    protocol.RunHops();
    Clock::time_point w1 = Clock::now();
    ServingEngine engine(relation.shared_schema());
    {
      ScopedSpan span("serving.publish");
      engine.Publish(protocol.rules());
    }
    p.layers.decide_busy_s = DecideTimed(engine, tuples, &latency);
    Clock::time_point w2 = Clock::now();
    p.layers.cpu_s = ProcessCpuSeconds() - cpu0;
    p.layers.registry = Snap().DeltaSince(before);
    p.layers.wall_s = Seconds(w0, w2);

    std::vector<double> refine, lag;
    for (const Figure3Protocol::Hop& hop : protocol.hops()) {
      refine.push_back(hop.refine_s);
      lag.push_back(hop.reveal_s + hop.refine_s);
      p.e2e.refine_s += hop.refine_s;
      p.layers.evaluate_s += hop.evaluate_s;
      AddSession(hop.stats, &p.layers);
    }
    p.layers.refine_s = p.e2e.refine_s;
    AddExpert(protocol.expert(), &p.layers);

    p.e2e.protocol_s = Seconds(w0, w1);
    p.e2e.proposal_wait_p99_ms = SmoothQuantile(protocol.expert().waits(), 0.99) * 1e3;
    p.e2e.future_error_pct = protocol.hops().back().future.BalancedErrorPct();
    p.e2e.deploy_lag_p50_ms = Median(lag) * 1e3;
    p.e2e.decide_p50_us = SmoothQuantile(latency, 0.5) * 1e6;
    p.e2e.decide_p99_us = SmoothQuantile(latency, 0.99) * 1e6;
    p.e2e.decide_capacity_per_s = DecideCapacity(engine, tuples);
    p.e2e.rounds_per_s = kProtocolHops / p.e2e.protocol_s;
    p.e2e.round_p50_ms = Quantile(refine, 0.5) * 1e3;
    p.e2e.round_p95_ms = Quantile(refine, 0.95) * 1e3;

    // Checks: serving equals batch captures on sampled decided rows.
    std::vector<size_t> sample;
    for (size_t k = 0; k < served.size(); k += 100) sample.push_back(served[k]);
    size_t bad = ServingMismatches(engine, relation, n, protocol.rules(), sample);
    p.attempted = static_cast<uint64_t>(2 * protocol.hops().size() + tuples.size() +
                                        sample.size());
    p.failed = bad;
    p.report.push_back(Format("[check] serving vs batch captures: %zu/%zu sampled "
                              "rows differ", bad, sample.size()));
    p.digest = Digest(relation.schema(), protocol.rules(), protocol.log());
    p.report.push_back(Format("[protocol] %d hops, %zu expert reviews, %zu edits, "
                              "%zu rules; %zu decisions on the unseen suffix",
                              kProtocolHops, protocol.expert().reviews(),
                              protocol.log().size(), protocol.rules().size(),
                              tuples.size()));
    return p;
  };
  return Assemble(args, setup_s, Median(generate_times), pass);
}

// ---------------------------------------------------------------------------
// stream_serve: open-loop serving and ingest beside pipelined refinement.

constexpr size_t kStreamRows = 260000;
constexpr size_t kStreamPreload = 104000;  // 40%
constexpr size_t kStreamBatch = 1000;
constexpr size_t kStreamHop = 4000;
constexpr int64_t kStreamIntervalNs = 50000;  // mean: 20k transactions/s
// Untraced passes run the stream this often, each time in a fresh world.
// Refinement does the same work in every repetition, so each hop's Refine
// time is taken from its fastest repetition: the host's speed swings by
// a fifth over seconds, and a hop measured in three places of the run is
// rarely slow in all three.
constexpr int kStreamReps = 3;
// The stream's refinement side is one fixed protocol (labels and expert);
// --seed draws the arrival times, the input an open-loop load generator
// owns.
constexpr uint64_t kStreamProtocolSeed = kProtocolSeed;

struct StreamWorld;

struct StreamData {
  Dataset source;  // the kStreamRows-row stream
  Transactions tuples;  // the streamed rows after the preload
  std::vector<int64_t> due_ns;  // arrival offsets of `tuples` (Poisson)
  std::unique_ptr<StreamWorld> world;  // the first repetition's, built in set-up
  ~StreamData();
};

/// One repetition of the stream: its own numbers, plus what is combined
/// across repetitions hop by hop and review by review.
struct StreamRep : Pass {
  std::vector<double> refine;  // per hop: Refine wall time minus epoch wait
  std::vector<double> waits;   // the expert's waits, in review order
};

std::vector<rudolf::RowBatch> StreamBatches(const Relation& source) {
  std::vector<rudolf::RowBatch> batches;
  for (size_t at = kStreamPreload; at < kStreamRows; at += kStreamBatch) {
    batches.push_back(rudolf::RowBatch::FromRelationSlice(source, at, at + kStreamBatch));
  }
  return batches;
}

/// One repetition's live world: pipeline, serving engine and pipelined session
/// over an initially preloaded and refined relation. Members are declared
/// in dependency order, so destruction detaches the session first.
struct StreamWorld {
  Relation live;
  std::unique_ptr<rudolf::IngestPipeline> pipe;
  ServingEngine engine;
  RuleSet rules;
  EditLog log;
  std::unique_ptr<rudolf::OracleExpert> oracle;
  std::unique_ptr<TimedExpert> timed;
  std::unique_ptr<rudolf::RefinementSession> session;
  std::vector<rudolf::RowBatch> batches;

  StreamWorld(Dataset* source, uint64_t seed)
      : live(source->relation->shared_schema()),
        engine(source->relation->shared_schema()) {
    rudolf::IngestPipelineOptions popts;
    popts.num_workers = 1;
    popts.reserve_rows = kStreamRows;
    pipe = std::make_unique<rudolf::IngestPipeline>(&live, popts);
    rules = rudolf::SynthesizeInitialRules(*source, rudolf::InitialRuleOptions{});
    oracle = rudolf::MakeDomainExpert(*source, seed);
    timed = std::make_unique<TimedExpert>(oracle.get());
    SessionOptions options;
    options.eval.num_threads = 1;
    options.serving = &engine;
    options.pipelined = pipe.get();
    session = std::make_unique<rudolf::RefinementSession>(live, options);
    batches = StreamBatches(*source->relation);
    if (!pipe->Append(rudolf::RowBatch::FromRelationSlice(*source->relation, 0,
                                                          kStreamPreload))) {
      throw std::runtime_error("preload append refused");
    }
    pipe->Flush();
    timed->BeginRefine();
    session->Refine(kStreamPreload, &rules, timed.get(), &log);
  }
};

StreamData::~StreamData() = default;

/// The serial schedule: the same rows already stored, refined at the same
/// prefixes without pipeline or serving. Returns the digest.
std::string StreamSerialReplay(Dataset* source, uint64_t seed) {
  Relation replay(source->relation->shared_schema());
  rudolf::RowBatch all = rudolf::RowBatch::FromRelationSlice(*source->relation, 0,
                                                             kStreamRows);
  if (!replay.AppendBatch(all.columns, all.true_labels, all.visible_labels, all.scores)
           .ok()) {
    return "replay-append-failed";
  }
  RuleSet rules = rudolf::SynthesizeInitialRules(*source, rudolf::InitialRuleOptions{});
  EditLog log;
  auto oracle = rudolf::MakeDomainExpert(*source, seed);
  SessionOptions options;
  options.eval.num_threads = 1;
  rudolf::RefinementSession session(replay, options);
  for (size_t prefix = kStreamPreload; prefix <= kStreamRows; prefix += kStreamHop) {
    session.Refine(prefix, &rules, oracle.get(), &log);
  }
  return Digest(replay.schema(), rules, log);
}

WorkloadResult RunStreamServe(const Args& args) {
  std::unique_ptr<StreamData> data;
  std::vector<double> generate_times;
  double setup_s = RepeatSetup<StreamData>(
      5,
      [&] {
        auto d = std::make_unique<StreamData>();
        Clock::time_point a = Clock::now();
        d->source = rudolf::GenerateDataset(
            rudolf::DefaultScenario(kStreamRows, kScenarioSeed).options);
        generate_times.push_back(Seconds(a, Clock::now()));
        // Streamed transactions carry their reported labels.
        rudolf::Rng rng(kStreamProtocolSeed);
        Reveal(&d->source, 0, kStreamRows, &rng);
        d->tuples = Rows(*d->source.relation, kStreamPreload, kStreamRows);
        rudolf::Rng arrivals(args.seed);
        double at_ns = 0;
        for (size_t i = 0; i < d->tuples.size(); ++i) {
          d->due_ns.push_back(static_cast<int64_t>(at_ns));
          at_ns += -std::log(1.0 - arrivals.UniformDouble()) *
                   static_cast<double>(kStreamIntervalNs);
        }
        d->world = std::make_unique<StreamWorld>(&d->source, kStreamProtocolSeed);
        return d;
      },
      &data);

  auto repetition = [&](std::unique_ptr<StreamWorld> world) {
    StreamRep p;
    const Transactions& tuples = data->tuples;
    const size_t stream_rows = tuples.size();
    const int hops = static_cast<int>((kStreamRows - kStreamPreload) / kStreamHop);
    // Pre-touched latency buffers: the generator only stores into them.
    std::vector<double> latency(stream_rows, 0.0), late(stream_rows, 0.0);
    std::vector<uint8_t> flagged(stream_rows, 0);
    std::vector<double> refine(hops, 0.0), lag(hops, 0.0);
    std::atomic<size_t> append_failures{0};
    double decide_busy = 0, append_block = 0;

    rudolf::obs::MetricsSnapshot before = Snap();
    double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    auto due = [&](size_t i) {
      return t0 + std::chrono::nanoseconds(data->due_ns[i]);
    };
    auto Generate = [&] {
      Decision d;
      d.fired.reserve(64);
      Tuple tuple;
      for (size_t i = 0; i < stream_rows; ++i) {
        const Clock::time_point when = due(i);
        Clock::time_point now = Clock::now();
        // Spin: a sleep overshoots by up to milliseconds on a virtual
        // machine's timer, and the generator's lateness would swamp the
        // latencies it measures. Only implausibly long gaps sleep.
        while (now < when) {
          if (when - now > std::chrono::milliseconds(5)) {
            std::this_thread::sleep_for(when - now - std::chrono::milliseconds(2));
          }
          now = Clock::now();
        }
        late[i] = Seconds(when, now);
        {
          ScopedSpan span("serving.decide");
          tuples.Load(i, &tuple);
          world->engine.Decide(tuple, &d);
        }
        Clock::time_point done = Clock::now();
        latency[i] = Seconds(when, done);
        flagged[i] = d.flagged ? 1 : 0;
        decide_busy += Seconds(now, done);
        if ((i + 1) % kStreamBatch == 0) {
          ScopedSpan span("pipeline.append");
          bool ok = world->pipe->Append(std::move(world->batches[i / kStreamBatch]));
          if (!ok) append_failures.fetch_add(1);
          append_block += Seconds(done, Clock::now());
        }
      }
    };
    std::atomic<bool> generator_failed{false};
    std::thread generator([&] {
      try {
        Generate();
      } catch (...) {
        generator_failed.store(true);
      }
    });
    // Joins the generator on every path out of this scope, exceptions too.
    struct Joiner {
      std::thread* t;
      ~Joiner() {
        if (t->joinable()) t->join();
      }
    } joiner{&generator};

    size_t prefix_mismatches = 0;
    for (int h = 1; h <= hops; ++h) {
      const size_t target = kStreamPreload + static_cast<size_t>(h) * kStreamHop;
      world->timed->BeginRefine();
      Clock::time_point a = Clock::now();
      SessionStats s;
      {
        ScopedSpan span("session.refine");
        s = world->session->Refine(target, &world->rules, world->timed.get(),
                                   &world->log);
      }
      Clock::time_point b = Clock::now();
      refine[h - 1] = Seconds(a, b) - s.epoch_advance_seconds;
      lag[h - 1] = Seconds(due(target - 1 - kStreamPreload), b);
      p.layers.epoch_wait_s += s.epoch_advance_seconds;
      if (s.frozen_prefix != target) ++prefix_mismatches;
      AddSession(s, &p.layers);
    }
    generator.join();
    world->pipe->Flush();
    Clock::time_point w1 = Clock::now();
    p.layers.cpu_s = ProcessCpuSeconds() - cpu0;
    p.layers.registry = Snap().DeltaSince(before);
    p.layers.wall_s = Seconds(t0, w1);
    p.layers.decide_busy_s = decide_busy;
    p.layers.append_block_s = append_block;
    p.layers.late_p50_us = SmoothQuantile(late, 0.5) * 1e6;
    p.layers.late_p99_us = SmoothQuantile(late, 0.99) * 1e6;
    for (double r : refine) p.e2e.refine_s += r;
    p.layers.refine_s = p.e2e.refine_s;
    AddExpert(*world->timed, &p.layers);
    p.refine = refine;
    p.waits = world->timed->waits();

    // Outside the timed window: capacity, quality and the checks.
    p.e2e.decide_capacity_per_s = DecideCapacity(world->engine, tuples);
    // Every streamed transaction was decided before its label reached the
    // rules, so the live decisions are the stream's future-error sample.
    rudolf::PredictionQuality future;
    for (size_t i = 0; i < stream_rows; ++i) {
      bool fraud = data->source.relation->TrueLabel(kStreamPreload + i) ==
                   rudolf::Label::kFraud;
      ++future.rows;
      if (fraud) {
        ++future.true_fraud;
        ++(flagged[i] ? future.fraud_captured : future.fraud_missed);
      } else {
        ++future.true_legit;
        if (flagged[i]) ++future.legit_captured;
      }
    }

    p.e2e.protocol_s = Seconds(t0, w1);
    p.e2e.proposal_wait_p99_ms = SmoothQuantile(world->timed->waits(), 0.99) * 1e3;
    p.e2e.future_error_pct = future.BalancedErrorPct();
    p.e2e.deploy_lag_p50_ms = Median(lag) * 1e3;
    // Per-second windows: a host stall that delays the generator for a few
    // milliseconds moves one window's p99, not the median over windows.
    const size_t window = static_cast<size_t>(1e9 / kStreamIntervalNs);
    p.e2e.decide_p50_us = MedianOfWindows(latency, window, 0.5) * 1e6;
    p.e2e.decide_p99_us = MedianOfWindows(latency, window, 0.99) * 1e6;
    p.layers.decide_p99_whole_us = SmoothQuantile(latency, 0.99) * 1e6;
    p.e2e.rounds_per_s = hops / p.e2e.protocol_s;
    p.e2e.round_p50_ms = Quantile(refine, 0.5) * 1e3;
    p.e2e.round_p95_ms = Quantile(refine, 0.95) * 1e3;

    std::vector<size_t> sample = EveryNth(kStreamPreload, kStreamRows, 100);
    size_t serving_bad = ServingMismatches(world->engine, world->live, kStreamRows,
                                           world->rules, sample);
    p.digest = Digest(world->live.schema(), world->rules, world->log);
    bool rows_ok = world->live.NumRows() == kStreamRows;
    p.attempted = stream_rows + stream_rows / kStreamBatch + hops + sample.size() + 1;
    p.failed = append_failures.load() + prefix_mismatches + serving_bad +
               (generator_failed.load() ? 1 : 0) + (rows_ok ? 0 : 1);
    p.report.push_back(Format("[check] serving vs batch captures on the final epoch: "
                              "%zu/%zu sampled rows differ", serving_bad, sample.size()));
    p.report.push_back(Format("[check] frozen prefixes off target: %zu; refused "
                              "appends: %zu; live rows %zu", prefix_mismatches,
                              append_failures.load(), world->live.NumRows()));
    p.report.push_back(Format("[stream] %zu Poisson arrivals at %.0f/s, %d pipelined "
                              "refines in %.3f s (tracker %.0f builds, %.0f extends); "
                              "whole-stream decide p99 %.1f us; "
                              "generator late p99 %.1f us, max %.1f us",
                              stream_rows, 1e9 / kStreamIntervalNs, hops, p.e2e.refine_s,
                              p.layers.tracker_builds, p.layers.tracker_extends,
                              p.layers.decide_p99_whole_us, p.layers.late_p99_us,
                              Quantile(late, 1.0) * 1e6));
    return p;
  };

  auto pass = [&](bool traced) {
    // One repetition in a traced pass, which only needs the layer split.
    std::vector<StreamRep> reps;
    for (int r = 0; r < (traced ? 1 : kStreamReps); ++r) {
      std::unique_ptr<StreamWorld> world = std::move(data->world);
      if (world == nullptr) {
        world = std::make_unique<StreamWorld>(&data->source, kStreamProtocolSeed);
      }
      reps.push_back(repetition(std::move(world)));
      // Hand what the repetition freed back to the system, so the peak
      // resident set is that of one repetition, not of what the allocator
      // kept from each.
      ReleaseFreedMemory();
    }
    Pass p;
    for (double EndToEnd::*field :
         {&EndToEnd::protocol_s, &EndToEnd::future_error_pct,
          &EndToEnd::deploy_lag_p50_ms, &EndToEnd::decide_p50_us,
          &EndToEnd::decide_p99_us, &EndToEnd::decide_capacity_per_s,
          &EndToEnd::rounds_per_s, &EndToEnd::round_p50_ms, &EndToEnd::round_p95_ms}) {
      p.e2e.*field = MedianOf(reps, field);
    }
    // Refinement is the same in every repetition (the digests agree), so
    // hop k and review k are the same work each time: keep the fastest.
    std::vector<double> refine = reps.front().refine, waits = reps.front().waits;
    size_t rep_bad = 0;
    std::vector<double> walls;
    std::string sums;
    for (StreamRep& r : reps) {
      if (r.digest != reps.front().digest || r.waits.size() != waits.size()) {
        ++rep_bad;
      } else {
        for (size_t k = 0; k < refine.size(); ++k) refine[k] = std::min(refine[k], r.refine[k]);
        for (size_t k = 0; k < waits.size(); ++k) waits[k] = std::min(waits[k], r.waits[k]);
      }
      p.attempted += r.attempted;
      p.failed += r.failed;
      walls.push_back(r.layers.wall_s);
      sums += Format(" %.3f", r.e2e.refine_s);
      for (std::string& line : r.report) p.report.push_back(std::move(line));
    }
    for (double r : refine) p.e2e.refine_s += r;
    p.e2e.proposal_wait_p99_ms = SmoothQuantile(waits, 0.99) * 1e3;
    p.layers = reps.front().layers;
    p.layers.wall_s = Median(walls);
    p.digest = reps.front().digest;
    std::string replay = StreamSerialReplay(&data->source, kStreamProtocolSeed);
    bool replay_ok = replay == p.digest;
    p.attempted += reps.size() + 1;
    p.failed += rep_bad + (replay_ok ? 0 : 1);
    p.report.push_back(Format("[check] serial replay at the same prefixes: %s",
                              replay_ok ? "identical" : "DIFFERS"));
    p.report.push_back(Format("[check] repetitions disagreeing with the first: %zu/%zu",
                              rep_bad, reps.size()));
    p.report.push_back(Format("[stream] %zu repetitions; Refine s per repetition:%s; "
                              "fastest per hop, summed: %.3f s", reps.size(),
                              sums.c_str(), p.e2e.refine_s));
    return p;
  };
  return Assemble(args, setup_s, Median(generate_times), pass);
}

// ---------------------------------------------------------------------------
// fleet_64: 64 tenants refined in RefineAll waves on the shared scheduler.

constexpr size_t kTenants = 64;
constexpr size_t kTenantRows = 40000;
constexpr size_t kTenantHoldout = 10000;  // 20% of the dataset, never refined
constexpr int kWaves = 10;
// Untraced passes repeat the waves at least this often (and until the
// measuring time is spent) and report medians over repetitions.
constexpr size_t kMinFleetReps = 3;

size_t WavePrefix(int wave) {  // 40% of the stream, then 6% per wave
  return kTenantRows * 40 / 100 + static_cast<size_t>(wave) * kTenantRows * 6 / 100;
}

struct Tenant {
  uint64_t seed = 0;  // protocol seed: label reveal and expert
  Dataset dataset;
  Transactions suffix;  // the never-refined holdout rows
  // Mutable per repetition.
  RuleSet rules;
  EditLog log;
  std::unique_ptr<rudolf::OracleExpert> oracle;
  std::unique_ptr<TimedExpert> timed;
  rudolf::Rng reveal_rng{0};

  /// Back to the protocol's start: initial labels, rules and expert.
  void Reset() {
    ResetVisibleLabels(dataset.relation.get());
    rudolf::Rng rng(seed);
    Reveal(&dataset, 0, WavePrefix(0), &rng);
    rules = rudolf::SynthesizeInitialRules(dataset, rudolf::InitialRuleOptions{});
    log = EditLog();
    oracle = rudolf::MakeDomainExpert(dataset, seed);
    timed = std::make_unique<TimedExpert>(oracle.get());
    reveal_rng = rudolf::Rng(seed ^ kRevealSalt);
  }

  void RevealWave(int wave) {
    Reveal(&dataset, WavePrefix(wave - 1), WavePrefix(wave), &reveal_rng);
  }
};

struct FleetData {
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<size_t> join_order;  // the order tenants join the fleet
};

SessionOptions FleetSession() {
  SessionOptions options;
  options.eval.num_threads = static_cast<int>(Nproc());
  return options;
}

/// One tenant at a time through the same waves. Returns per-tenant digests.
std::vector<std::string> FleetSerialReplay(FleetData* data) {
  std::vector<std::string> digests;
  for (auto& t : data->tenants) {
    t->Reset();
    rudolf::RefinementSession session(*t->dataset.relation, FleetSession());
    for (int wave = 1; wave <= kWaves; ++wave) {
      t->RevealWave(wave);
      session.Refine(WavePrefix(wave), &t->rules, t->oracle.get(), &t->log);
    }
    digests.push_back(Digest(t->dataset.relation->schema(), t->rules, t->log));
  }
  return digests;
}

/// One repetition of the 10-wave protocol over every tenant.
struct FleetRep {
  EndToEnd e2e;
  LayerInputs layers;
  std::vector<std::string> digests;
  size_t serving_bad = 0, serving_checked = 0, decisions = 0;
};

FleetRep FleetRepetition(FleetData* data) {
  FleetRep rep;
  for (auto& t : data->tenants) t->Reset();
  rudolf::FleetOptions options;
  options.session = FleetSession();
  options.memory_budget_bytes = 0;
  rudolf::FleetManager fleet(options);
  for (size_t i : data->join_order) {
    Tenant& t = *data->tenants[i];
    fleet.AddTenant("tenant", t.dataset.relation.get(), &t.rules, &t.log,
                    t.timed.get());
  }
  std::vector<double> wave_s, lag_s, latency;
  latency.reserve(kTenants * kTenantHoldout);

  rudolf::obs::MetricsSnapshot before = Snap();
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point w0 = Clock::now();
  for (int wave = 1; wave <= kWaves; ++wave) {
    Clock::time_point a = Clock::now();
    {
      ScopedSpan span("fleet.reveal");
      for (auto& t : data->tenants) {
        t->RevealWave(wave);
        t->timed->BeginRefine();
      }
    }
    Clock::time_point b = Clock::now();
    {
      ScopedSpan span("fleet.wave");
      fleet.RefineAll(WavePrefix(wave));
    }
    Clock::time_point c = Clock::now();
    wave_s.push_back(Seconds(b, c));
    lag_s.push_back(Seconds(a, c));
  }
  Clock::time_point w1 = Clock::now();
  std::vector<std::unique_ptr<ServingEngine>> engines;
  double busy = 0;
  for (auto& t : data->tenants) {
    engines.push_back(std::make_unique<ServingEngine>(t->dataset.relation->shared_schema()));
    {
      ScopedSpan span("serving.publish");
      engines.back()->Publish(t->rules);
    }
    busy += DecideTimed(*engines.back(), t->suffix, &latency);
  }
  Clock::time_point w2 = Clock::now();
  rep.layers.cpu_s = ProcessCpuSeconds() - cpu0;
  rep.layers.registry = Snap().DeltaSince(before);
  rep.layers.wall_s = Seconds(w0, w2);
  rep.layers.decide_busy_s = busy;

  Registry reg{rep.layers.registry};
  double total_wave = 0;
  for (double w : wave_s) total_wave += w;
  rep.layers.wave_p50_s = Median(wave_s);
  rep.layers.first_wave_s = wave_s.front();
  rep.layers.refine_s = reg.Sum("fleet.round.seconds");
  rep.layers.inner_rounds = reg.Count("session.rounds");
  rep.layers.tracker_builds = reg.Count("session.tracker.rebuilds");
  rep.layers.tracker_extends = reg.Count("session.tracker.extends");
  rep.layers.tracker_build_s = reg.Sum("session.tracker.rebuild.seconds");
  rep.layers.tracker_extend_s = reg.Sum("session.tracker.extend.seconds");
  std::vector<double> waits;
  double error_sum = 0;
  for (size_t i = 0; i < data->tenants.size(); ++i) {
    Tenant& t = *data->tenants[i];
    AddExpert(*t.timed, &rep.layers);
    waits.insert(waits.end(), t.timed->waits().begin(), t.timed->waits().end());
    Clock::time_point e0 = Clock::now();
    error_sum += rudolf::EvaluateOnRange(*t.dataset.relation, t.rules, kTenantRows,
                                         kTenantRows + kTenantHoldout)
                     .BalancedErrorPct();
    rep.layers.evaluate_s += Seconds(e0, Clock::now());
    rep.digests.push_back(Digest(t.dataset.relation->schema(), t.rules, t.log));
  }

  rep.e2e.protocol_s = Seconds(w0, w1);
  rep.e2e.refine_s = rep.layers.refine_s;
  rep.e2e.proposal_wait_p99_ms = SmoothQuantile(waits, 0.99) * 1e3;
  rep.e2e.future_error_pct = error_sum / static_cast<double>(data->tenants.size());
  rep.e2e.deploy_lag_p50_ms = Median(lag_s) * 1e3;
  rep.e2e.decide_p50_us = SmoothQuantile(latency, 0.5) * 1e6;
  rep.e2e.decide_p99_us = SmoothQuantile(latency, 0.99) * 1e6;
  rep.decisions = latency.size();
  rep.e2e.rounds_per_s =
      static_cast<double>(kTenants * kWaves) / total_wave;
  rep.e2e.round_p50_ms = reg.At("fleet.round.seconds", 0.5) * 1e3;
  rep.e2e.round_p95_ms = reg.At("fleet.round.seconds", 0.95) * 1e3;

  // Capacity and serving checks on the final artifacts (untimed).
  std::vector<double> rates;
  for (size_t i = 0; i < data->tenants.size(); ++i) {
    Tenant& t = *data->tenants[i];
    rates.push_back(DecideCapacity(*engines[i], t.suffix, /*seconds=*/0.01));
    std::vector<size_t> sample = EveryNth(kTenantRows, kTenantRows + kTenantHoldout, 100);
    rep.serving_bad += ServingMismatches(*engines[i], *t.dataset.relation,
                                         kTenantRows + kTenantHoldout, t.rules, sample);
    rep.serving_checked += sample.size();
  }
  rep.e2e.decide_capacity_per_s = Median(rates);
  return rep;
}

WorkloadResult RunFleet64(const Args& args) {
  std::unique_ptr<FleetData> data;
  std::vector<double> generate_times;
  double setup_s = RepeatSetup<FleetData>(
      3,
      [&] {
        auto d = std::make_unique<FleetData>();
        Clock::time_point a = Clock::now();
        for (size_t i = 0; i < kTenants; ++i) {
          auto t = std::make_unique<Tenant>();
          t->seed = kProtocolSeed + i;
          t->dataset = rudolf::GenerateDataset(
              rudolf::DefaultScenario(kTenantRows + kTenantHoldout, 3 + 2 * i).options);
          d->tenants.push_back(std::move(t));
        }
        generate_times.push_back(Seconds(a, Clock::now()));
        for (auto& t : d->tenants) {
          t->suffix = Rows(*t->dataset.relation, kTenantRows,
                           kTenantRows + kTenantHoldout);
          t->Reset();
        }
        d->join_order = Range(0, kTenants);
        rudolf::Rng order(args.seed);
        order.Shuffle(&d->join_order);
        return d;
      },
      &data);

  auto pass = [&](bool traced) {
    Pass p;
    // Repetitions until the measuring time is spent (one in a traced pass,
    // which only needs the layer split).
    std::vector<FleetRep> reps;
    Clock::time_point start = Clock::now();
    do {
      reps.push_back(FleetRepetition(data.get()));
    } while (!traced && (reps.size() < kMinFleetReps ||
                         Seconds(start, Clock::now()) < args.seconds));

    for (double EndToEnd::*field :
         {&EndToEnd::protocol_s, &EndToEnd::refine_s, &EndToEnd::proposal_wait_p99_ms,
          &EndToEnd::future_error_pct, &EndToEnd::deploy_lag_p50_ms,
          &EndToEnd::decide_p50_us, &EndToEnd::decide_p99_us,
          &EndToEnd::decide_capacity_per_s, &EndToEnd::rounds_per_s,
          &EndToEnd::round_p50_ms, &EndToEnd::round_p95_ms}) {
      p.e2e.*field = MedianOf(reps, field);
    }
    p.layers = reps.front().layers;
    // The traced pass runs one repetition; compare it with the median one.
    std::vector<double> walls;
    for (const FleetRep& r : reps) walls.push_back(r.layers.wall_s);
    p.layers.wall_s = Median(walls);
    std::vector<std::string> replay = FleetSerialReplay(data.get());
    size_t replay_bad = 0, rep_bad = 0;
    for (size_t i = 0; i < kTenants; ++i) {
      if (replay[i] != reps.front().digests[i]) ++replay_bad;
    }
    std::string waves;
    for (const FleetRep& r : reps) {
      if (r.digests != reps.front().digests) ++rep_bad;
      p.failed += r.serving_bad;
      p.attempted += kTenants * kWaves + r.decisions + r.serving_checked;
      waves += Format(" %.3f", r.layers.first_wave_s);
    }
    p.attempted += kTenants + reps.size();
    p.failed += replay_bad + rep_bad;
    p.digest = CombineDigests(reps.front().digests);
    p.report.push_back(Format("[check] one-tenant-at-a-time replay: %zu/%zu tenants "
                              "differ", replay_bad, kTenants));
    p.report.push_back(Format("[check] repetitions disagreeing with the first: %zu/%zu",
                              rep_bad, reps.size()));
    p.report.push_back(Format("[fleet] %zu tenants x %d waves, %zu repetitions, "
                              "scheduler width %d; first wave s per repetition:%s",
                              kTenants, kWaves, reps.size(),
                              rudolf::TaskScheduler::Shared()->num_threads(),
                              waves.c_str()));
    return p;
  };
  return Assemble(args, setup_s, Median(generate_times), pass);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"protocol_1m", "stream_serve",
                                                 "fleet_64"};
  return names;
}

WorkloadResult RunWorkload(const Args& args) {
  if (args.workload == "protocol_1m") return RunProtocol1m(args);
  if (args.workload == "stream_serve") return RunStreamServe(args);
  if (args.workload == "fleet_64") return RunFleet64(args);
  throw std::invalid_argument("unknown workload " + args.workload);
}

}  // namespace perfbench
