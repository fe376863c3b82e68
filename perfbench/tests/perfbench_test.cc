// Tests of the benchmark's own arithmetic and protocol code:
//   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <thread>

#include "experiments/runner.h"
#include "spans.h"
#include "stats.h"
#include "workload/scenarios.h"
#include "workloads.h"

namespace perfbench {
namespace {

SpanEvent Event(const char* name, uint64_t id, uint64_t parent, uint32_t thread,
                int64_t start, int64_t end) {
  return SpanEvent{name, id, parent, thread, start, end};
}

TEST(SelfSeconds, ParentMinusUnionOfItsChildrenOnTheSameThread) {
  std::vector<SpanEvent> events = {
      Event("parent", 1, 0, 0, 0, 100),
      Event("child", 2, 1, 0, 10, 30),
      Event("child", 3, 1, 0, 20, 50),     // overlaps the first child
      Event("child", 4, 1, 0, 60, 200),    // runs past the parent's end
      Event("other", 5, 1, 1, 0, 100),     // another thread: not a child
      Event("grandchild", 6, 2, 0, 12, 18),
  };
  std::vector<double> self = SelfSeconds(events);
  // Children cover [10, 50) and [60, 100) of the parent: 80 of 100 ns.
  EXPECT_NEAR(self[0], 20e-9, 1e-15);
  EXPECT_NEAR(self[1], 14e-9, 1e-15);  // 20 ns minus its 6 ns grandchild
  EXPECT_NEAR(self[2], 30e-9, 1e-15);
  EXPECT_NEAR(self[3], 140e-9, 1e-15);
  EXPECT_NEAR(self[4], 100e-9, 1e-15);
  EXPECT_NEAR(self[5], 6e-9, 1e-15);

  std::map<std::string, LayerTotals> totals = AggregateByName(events);
  EXPECT_EQ(totals["child"].count, 3u);
  EXPECT_NEAR(totals["child"].inclusive_s, 190e-9, 1e-15);
  EXPECT_NEAR(totals["child"].self_s, 184e-9, 1e-15);
}

TEST(SelfSeconds, SelfTimesOfOneThreadAddUpToItsRootSpans) {
  std::vector<SpanEvent> events = {
      Event("root", 1, 0, 0, 0, 1000),
      Event("a", 2, 1, 0, 100, 400),
      Event("b", 3, 2, 0, 150, 250),
      Event("c", 4, 1, 0, 500, 900),
  };
  double sum = 0;
  for (double s : SelfSeconds(events)) sum += s;
  EXPECT_NEAR(sum, 1000e-9, 1e-15);
}

TEST(ScopedSpan, RecordsParentOnTheSameThreadOnlyWhenEnabled) {
  SpanRecorder& recorder = SpanRecorder::Get();
  recorder.Clear();
  recorder.SetEnabled(false);
  { ScopedSpan ignored("ignored"); }
  EXPECT_TRUE(recorder.Collect().empty());

  recorder.SetEnabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    std::thread([] { ScopedSpan elsewhere("elsewhere"); }).join();
  }
  recorder.SetEnabled(false);
  std::vector<SpanEvent> events = recorder.Collect();
  recorder.Clear();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, SpanEvent> by_name;
  for (const SpanEvent& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name["inner"].parent, by_name["outer"].id);
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["elsewhere"].parent, 0u);
  EXPECT_NE(by_name["elsewhere"].thread, by_name["outer"].thread);
  EXPECT_LE(by_name["outer"].start_ns, by_name["inner"].start_ns);
  EXPECT_GE(by_name["outer"].end_ns, by_name["inner"].end_ns);
}

TEST(Stats, Quantiles) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  std::vector<double> ramp;
  for (int i = 0; i < 1001; ++i) ramp.push_back(i);
  EXPECT_NEAR(SmoothQuantile(ramp, 0.5), 500.0, 1e-9);
  // Four windows of 250; one holds a stall that the median ignores.
  std::vector<double> windows(1000, 1.0);
  for (int i = 0; i < 100; ++i) windows[i] = 1000.0;
  EXPECT_NEAR(MedianOfWindows(windows, 250, 0.99), 1.0, 1e-9);
  EXPECT_GT(SmoothQuantile(windows, 0.99), 100.0);
}

TEST(Figure3Protocol, MatchesExperimentRunnerAtSmallScale) {
  const uint64_t seed = 5;
  rudolf::Dataset dataset =
      rudolf::GenerateDataset(rudolf::DefaultScenario(20000, seed).options);
  ProtocolConfig config;
  config.seed = seed;
  config.eval_threads = 2;
  Figure3Protocol protocol(&dataset, config);
  protocol.RunHops();
  const rudolf::Schema& schema = dataset.relation->schema();
  std::string protocol_rules = protocol.rules().ToString(schema);
  std::string protocol_digest = Digest(schema, protocol.rules(), protocol.log());
  std::vector<double> protocol_errors;
  for (const Figure3Protocol::Hop& hop : protocol.hops()) {
    protocol_errors.push_back(hop.future.BalancedErrorPct());
  }
  EXPECT_GT(protocol.expert().reviews(), 0u);
  EXPECT_EQ(protocol.hops().size(), 5u);

  rudolf::RunnerOptions options;
  options.seed = seed;
  options.session.eval.num_threads = 1;
  rudolf::ExperimentRunner runner(&dataset, options);
  rudolf::RunResult reference = runner.Run(rudolf::Method::kRudolf);

  EXPECT_EQ(protocol_rules, reference.final_rules.ToString(schema));
  EXPECT_EQ(protocol_digest, Digest(schema, reference.final_rules, reference.log));
  ASSERT_EQ(reference.rounds.size(), protocol_errors.size());
  for (size_t i = 0; i < protocol_errors.size(); ++i) {
    EXPECT_EQ(reference.rounds[i].prefix, protocol.hops()[i].prefix);
    EXPECT_DOUBLE_EQ(reference.rounds[i].future.BalancedErrorPct(), protocol_errors[i]);
  }
}

TEST(Figure3Protocol, PrefixesFollowTheRunner) {
  EXPECT_EQ(ProtocolPrefix(1000000, 0), 400000u);
  EXPECT_EQ(ProtocolPrefix(1000, 20), 1000u);
}

}  // namespace
}  // namespace perfbench
