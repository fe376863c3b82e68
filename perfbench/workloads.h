// The benchmark's workloads. Each drives only public library entry points
// (dataset generation, RefinementSession::Refine with a wrapped Expert,
// EvaluateOnRange, ServingEngine, IngestPipeline, FleetManager) and times
// those calls from outside; layers that Refine runs internally are read
// from the SessionStats it returns and from deltas of the process-wide
// metrics registry.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_config.h"
#include "core/session.h"
#include "expert/expert.h"
#include "expert/oracle_expert.h"
#include "metrics/quality.h"
#include "rules/edit.h"
#include "stats.h"
#include "workload/generator.h"

namespace perfbench {

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports.
struct WorkloadResult {
  std::vector<Metric> end_to_end;   ///< bounded, from the untraced pass
  std::vector<Metric> reported;     ///< unbounded, from the untraced pass
  std::vector<Metric> layers;       ///< per layer (trace runs only)
  std::vector<std::string> report;  ///< human-readable lines
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;  ///< final rules and edit log
};

/// \brief Transparent expert wrapper that times every review from outside.
///
/// Records the time spent inside the wrapped expert (its self time), the
/// system time the expert waits between consecutive reviews of one Refine
/// call, and how many proposals of each kind it accepted. Not thread-safe:
/// one wrapper per session (calls of one session are serial).
class TimedExpert : public rudolf::Expert {
 public:
  explicit TimedExpert(rudolf::Expert* inner) : inner_(inner) {}

  /// Marks the start of a Refine call: the next review has no predecessor.
  void BeginRefine() { have_last_ = false; }

  rudolf::GeneralizationReview ReviewGeneralization(
      const rudolf::GeneralizationProposal& proposal,
      const rudolf::Relation& relation) override;
  rudolf::SplitReview ReviewSplit(const rudolf::SplitProposal& proposal,
                                  const rudolf::Relation& relation) override;
  rudolf::RetirementReview ReviewRetirement(
      const rudolf::Rule& rule, const rudolf::Relation& relation) override;
  std::string name() const override { return inner_->name(); }

  double self_seconds() const { return self_s_; }
  const std::vector<double>& waits() const { return waits_s_; }
  size_t reviews() const { return reviews_; }
  size_t generalize_reviews() const { return gen_reviews_; }
  size_t generalize_accepted() const { return gen_accepted_; }
  size_t split_reviews() const { return split_reviews_; }
  size_t split_accepted() const { return split_accepted_; }

 private:
  Clock::time_point Enter();
  void Leave(Clock::time_point start);

  rudolf::Expert* inner_;
  bool have_last_ = false;
  Clock::time_point last_end_{};
  double self_s_ = 0.0;
  std::vector<double> waits_s_;
  size_t reviews_ = 0;
  size_t gen_reviews_ = 0, gen_accepted_ = 0;
  size_t split_reviews_ = 0, split_accepted_ = 0;
};

/// The Figure-3 protocol's shape, as the ExperimentRunner's defaults: a 40%
/// initial prefix, then kProtocolHops hops of 8% each.
constexpr int kProtocolHops = 5;

/// Settings of a Figure-3 protocol run.
struct ProtocolConfig {
  int eval_threads = 1;
  uint64_t seed = 2024;  ///< label reveal and expert, as ExperimentRunner's
};

/// Rows visible after `hop` hops (hop 0 = the initial prefix), computed
/// exactly as ExperimentRunner::PrefixAtRound does.
size_t ProtocolPrefix(size_t rows, int hop);

/// \brief The Figure-3 protocol for the RUDOLF method over one dataset.
///
/// Construction resets the dataset's visible labels, reveals the initial
/// prefix, synthesizes the initial rules and creates the domain expert and
/// the session; RunHops then reveals, refines and evaluates hop by hop. The
/// outcome equals ExperimentRunner::Run(Method::kRudolf) with the same seed
/// and session options.
class Figure3Protocol {
 public:
  struct Hop {
    size_t prefix = 0;
    double reveal_s = 0.0;
    double refine_s = 0.0;
    double evaluate_s = 0.0;
    rudolf::SessionStats stats;
    rudolf::PredictionQuality future;
  };

  Figure3Protocol(rudolf::Dataset* dataset, const ProtocolConfig& config);

  void RunHops();

  const std::vector<Hop>& hops() const { return hops_; }
  const rudolf::RuleSet& rules() const { return rules_; }
  const rudolf::EditLog& log() const { return log_; }
  const TimedExpert& expert() const { return *timed_; }

 private:
  rudolf::Dataset* dataset_;
  ProtocolConfig config_;
  rudolf::RuleSet rules_;
  rudolf::EditLog log_;
  std::unique_ptr<rudolf::OracleExpert> oracle_;
  std::unique_ptr<TimedExpert> timed_;
  std::unique_ptr<rudolf::RefinementSession> session_;
  std::vector<Hop> hops_;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload (the name must be in WorkloadNames()).
WorkloadResult RunWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
