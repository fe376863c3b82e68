// Property-based tests: randomized sweeps (parameterized on seeds) over the
// core invariants — parser/printer round-trips, representative minimality,
// minimal-generalization properties, split soundness, capture-tracker delta
// consistency, and bitset algebra against a reference implementation.

#include <gtest/gtest.h>

#include "cluster/representative.h"
#include "core/capture_tracker.h"
#include "core/generalize.h"
#include "core/specialize.h"
#include "io/csv.h"
#include "metrics/quality.h"
#include "obs/metrics.h"
#include "ontology/serialization.h"
#include "rules/parser.h"
#include "simd/column_scan.h"
#include "util/random.h"
#include "util/task_scheduler.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// Shared tiny dataset (expensive to regenerate per test).
const Dataset& SharedDataset() {
  static const Dataset* ds = [] {
    Scenario s = TinyScenario();
    s.options.num_transactions = 1200;
    auto* d = new Dataset(GenerateDataset(s.options));
    Rng rng(11);
    RevealLabels(d->relation.get(), 0, 1200, 0.9, 0.08, 0.004, &rng);
    return d;
  }();
  return *ds;
}

// A dataset above the evaluator's fan-out threshold: more than 65,536 rows
// (two RuleEvaluator::kChunkRows chunks), so trackers built at more than one
// thread score on the scheduler, and scans at more than one thread split
// into row blocks that fan out.
const Dataset& LargeDataset() {
  static const Dataset* ds = [] {
    Scenario s = TinyScenario();
    s.options.num_transactions = 70000;
    auto* d = new Dataset(GenerateDataset(s.options));
    Rng rng(13);
    RevealLabels(d->relation.get(), 0, 70000, 0.9, 0.08, 0.004, &rng);
    return d;
  }();
  return *ds;
}

// Trackers at 1, 4 and 8 threads score every proposal alike.
const int kTrackerThreads[] = {1, 4, 8};

// The `scheduler.episodes` counter: moves when an evaluator fans out.
uint64_t SchedulerEpisodes() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  const obs::CounterSample* c = snap.FindCounter("scheduler.episodes");
  return c == nullptr ? 0 : c->value;
}

// Draws a random syntactically valid rule over the credit-card schema.
Rule RandomRule(const Dataset& ds, Rng* rng) {
  const Schema& schema = *ds.cc.schema;
  Rule rule = Rule::Trivial(schema);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rng->Bernoulli(0.45)) continue;  // leave trivial
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      // Clock attributes render as HH:MM, so keep their endpoints inside
      // one day (the printable domain).
      bool clock = def.display == NumericDisplay::kClock;
      int64_t a = rng->UniformInt(0, clock ? 1000 : 1200);
      int64_t b = a + rng->UniformInt(0, clock ? 1439 - a : 400);
      switch (rng->UniformInt(0, 3)) {
        case 0:
          rule.set_condition(i, Condition::MakeNumeric({a, b}));
          break;
        case 1:
          rule.set_condition(i, Condition::MakeNumeric(Interval::AtLeast(a)));
          break;
        case 2:
          rule.set_condition(i, Condition::MakeNumeric(Interval::AtMost(b)));
          break;
        default:
          rule.set_condition(i, Condition::MakeNumeric(Interval::Point(a)));
      }
    } else {
      ConceptId c = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1));
      rule.set_condition(i, Condition::MakeCategorical(c));
    }
  }
  return rule;
}

// A row in [lo, hi) that is not on a 64-row word boundary.
size_t OffWordRow(size_t lo, size_t hi, Rng* rng) {
  for (;;) {
    auto row = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(lo), static_cast<int64_t>(hi) - 1));
    if (row % 64 != 0) return row;
  }
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST_P(SeededProperty, RuleParsePrintRoundTrip) {
  const Dataset& ds = SharedDataset();
  Rng rng(GetParam());
  for (int i = 0; i < 20; ++i) {
    Rule rule = RandomRule(ds, &rng);
    auto reparsed = ParseRule(*ds.cc.schema, rule.ToString(*ds.cc.schema));
    ASSERT_TRUE(reparsed.ok()) << rule.ToString(*ds.cc.schema) << " — "
                               << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, rule) << rule.ToString(*ds.cc.schema);
  }
}

// The cached and the scan evaluator must capture exactly the rows
// Rule::MatchesRow accepts, at every row. Then EvalRuleRange, the one
// conjunction scan, over windows of the large input that start and end off
// a 64-row word (so off a simd::kStripRows strip too): random rules, a
// broad conjunction whose ragged heads match every row, and a conjunction
// that is empty in a strip before a strip where it matches. The output is
// pre-seeded with background bits that must survive outside the window.
TEST_P(SeededProperty, EvaluatorAgreesWithRowByRowMatching) {
  auto matching = [](const Relation& rel, const Rule& rule, size_t lo,
                     size_t hi, Bitset out) {
    for (size_t r = lo; r < hi; ++r) {
      if (rule.MatchesRow(rel, r)) out.Set(r);
    }
    return out;
  };
  {
    const Dataset& ds = SharedDataset();
    const Relation& rel = *ds.relation;
    Rng rng(GetParam() ^ 0xE0E0);
    RuleEvaluator cached(rel);
    RuleEvaluator scan(rel, static_cast<size_t>(-1),
                       EvalOptions{1, /*use_index=*/false});
    for (int i = 0; i < 5; ++i) {
      Rule rule = RandomRule(ds, &rng);
      const Bitset want =
          matching(rel, rule, 0, rel.NumRows(), Bitset(rel.NumRows()));
      EXPECT_EQ(cached.EvalRule(rule), want) << rule.ToString(*ds.cc.schema);
      EXPECT_EQ(scan.EvalRule(rule), want) << rule.ToString(*ds.cc.schema);
    }
  }
  const Dataset& ds = LargeDataset();
  const Relation& rel = *ds.relation;
  const Schema& schema = *ds.cc.schema;
  const size_t n = rel.NumRows();
  const size_t strip = simd::kStripRows;
  Rng rng(GetParam() ^ 0xE0E1);
  RuleEvaluator scan(rel, n, EvalOptions{1, /*use_index=*/false});
  Bitset background(n);
  for (size_t r = 0; r < n; r += 1 + static_cast<size_t>(rng.UniformInt(0, 96))) {
    background.Set(r);
  }
  // Windows over several strips, inside one strip, and across row 65,536.
  const size_t within = strip * static_cast<size_t>(rng.UniformInt(8, 60));
  const std::pair<size_t, size_t> windows[] = {
      {OffWordRow(1, strip, &rng), OffWordRow(5 * strip + 1, 6 * strip, &rng)},
      {OffWordRow(within + 1, within + 400, &rng),
       OffWordRow(within + 600, within + strip, &rng)},
      {OffWordRow(RuleEvaluator::kChunkRows - 3 * strip, RuleEvaluator::kChunkRows,
                  &rng),
       OffWordRow(RuleEvaluator::kChunkRows + 1, n, &rng)},
  };
  std::vector<Rule> rules;
  for (int i = 0; i < 4; ++i) rules.push_back(RandomRule(ds, &rng));
  // Every numeric cell above the int64 floor: a broad conjunction.
  Rule broad = Rule::Trivial(schema);
  for (size_t a = 0; a < schema.arity(); ++a) {
    if (schema.attribute(a).kind == AttrKind::kNumeric) {
      broad.set_condition(a, Condition::MakeNumeric(Interval::AtLeast(kNegInf + 1)));
    }
  }
  ASSERT_GT(broad.NumNonTrivial(schema), 1u);
  rules.push_back(broad);
  // Every cell of one row in the first window's last strips: a conjunction
  // that matches few rows besides it.
  const size_t target = static_cast<size_t>(rng.UniformInt(
      static_cast<int64_t>(4 * strip), static_cast<int64_t>(windows[0].second) - 1));
  Rule rare = Rule::Trivial(schema);
  for (size_t a = 0; a < schema.arity(); ++a) {
    const CellValue v = rel.Get(target, a);
    rare.set_condition(a, schema.attribute(a).kind == AttrKind::kNumeric
                              ? Condition::MakeNumeric(Interval::Point(v))
                              : Condition::MakeCategorical(static_cast<ConceptId>(v)));
  }
  rules.push_back(rare);

  bool empty_then_match = false;
  for (const auto& [lo, hi] : windows) {
    for (const Rule& rule : rules) {
      const Bitset hits = matching(rel, rule, lo, hi, Bitset(n));
      const Bitset want = hits | background;
      Bitset got = background;
      scan.EvalRuleRange(rule, lo, hi, &got);
      ASSERT_EQ(got, want) << rule.ToString(schema) << " over rows [" << lo
                           << ", " << hi << ")";
      // A strip of the window where the rule matches nothing, before one
      // where it matches.
      bool empty_strip = false;
      for (size_t s = lo; s < hi; s = (s / strip + 1) * strip) {
        const size_t end = std::min(hi, (s / strip + 1) * strip);
        const bool matched = hits.CountRange(s, end) > 0;
        empty_then_match = empty_then_match || (empty_strip && matched);
        empty_strip = empty_strip || !matched;
      }
    }
  }
  EXPECT_TRUE(empty_then_match);
}

TEST_P(SeededProperty, RepresentativeIsMinimalHull) {
  const Dataset& ds = SharedDataset();
  Rng rng(GetParam() ^ 0xBEEF);
  // Random subsets of rows.
  std::vector<size_t> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back(static_cast<size_t>(rng.UniformInt(0, 1199)));
  }
  Rule rep = RepresentativeOfRows(*ds.relation, rows);
  const Schema& schema = *ds.cc.schema;
  // Contains every member.
  for (size_t r : rows) {
    EXPECT_TRUE(rep.MatchesRow(*ds.relation, r));
  }
  // Numeric conditions are tight: both endpoints realized by some member.
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (schema.attribute(i).kind != AttrKind::kNumeric) continue;
    const Interval& iv = rep.condition(i).interval();
    bool lo_hit = false;
    bool hi_hit = false;
    for (size_t r : rows) {
      if (ds.relation->Get(r, i) == iv.lo) lo_hit = true;
      if (ds.relation->Get(r, i) == iv.hi) hi_hit = true;
    }
    EXPECT_TRUE(lo_hit && hi_hit);
  }
  // Categorical conditions: no strictly smaller concept contains all
  // members.
  for (size_t i = 0; i < schema.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (def.kind != AttrKind::kCategorical) continue;
    ConceptId chosen = rep.condition(i).concept_id();
    size_t chosen_leaves = def.ontology->LeafCount(chosen);
    for (ConceptId c = 0; c < def.ontology->size(); ++c) {
      if (def.ontology->LeafCount(c) >= chosen_leaves) continue;
      bool contains_all = true;
      for (size_t r : rows) {
        if (!def.ontology->Contains(c, static_cast<ConceptId>(
                                           ds.relation->Get(r, i)))) {
          contains_all = false;
          break;
        }
      }
      EXPECT_FALSE(contains_all)
          << "smaller concept " << def.ontology->NameOf(c) << " beats "
          << def.ontology->NameOf(chosen);
    }
  }
}

TEST_P(SeededProperty, SmallestGeneralizationIsSoundAndTight) {
  const Dataset& ds = SharedDataset();
  const Schema& schema = *ds.cc.schema;
  Rng rng(GetParam() ^ 0xCAFE);
  for (int i = 0; i < 10; ++i) {
    Rule rule = RandomRule(ds, &rng);
    if (rule.HasEmptyCondition()) continue;
    // Target: the representative of a few random rows.
    std::vector<size_t> rows;
    for (int j = 0; j < 4; ++j) {
      rows.push_back(static_cast<size_t>(rng.UniformInt(0, 1199)));
    }
    Rule target = RepresentativeOfRows(*ds.relation, rows);
    Rule g = rule.SmallestGeneralizationFor(schema, target);
    // Soundness: the generalization contains both the target and the rule.
    EXPECT_TRUE(g.ContainsRule(schema, target));
    EXPECT_TRUE(g.ContainsRule(schema, rule));
    // Numeric tightness: each endpoint comes from the rule or the target.
    for (size_t a = 0; a < schema.arity(); ++a) {
      if (schema.attribute(a).kind != AttrKind::kNumeric) continue;
      const Interval& gi = g.condition(a).interval();
      const Interval& ri = rule.condition(a).interval();
      const Interval& ti = target.condition(a).interval();
      EXPECT_TRUE(gi.lo == ri.lo || gi.lo == ti.lo);
      EXPECT_TRUE(gi.hi == ri.hi || gi.hi == ti.hi);
    }
  }
}

TEST_P(SeededProperty, SplitsExcludeTheTupleAndNothingOutsideTheRule) {
  const Dataset& ds = SharedDataset();
  const Schema& schema = *ds.cc.schema;
  Rng rng(GetParam() ^ 0x50117);
  SpecializationEngine engine(*ds.relation, SpecializeOptions{});
  for (int i = 0; i < 6; ++i) {
    Rule rule = RandomRule(ds, &rng);
    // Find a row the rule captures.
    size_t row = static_cast<size_t>(-1);
    for (size_t r = 0; r < ds.relation->NumRows(); ++r) {
      if (rule.MatchesRow(*ds.relation, r)) {
        row = r;
        break;
      }
    }
    if (row == static_cast<size_t>(-1)) continue;
    RuleSet rules;
    RuleId id = rules.AddRule(rule);
    CaptureTracker tracker(*ds.relation, rules);
    Tuple l = ds.relation->GetRow(row);
    for (const SplitProposal& p : engine.RankSplits(tracker, id, row)) {
      for (const Rule& replacement : p.replacements) {
        // Excludes l.
        EXPECT_FALSE(replacement.MatchesTuple(schema, l));
        // Never captures anything the original did not.
        EXPECT_TRUE(rule.ContainsRule(schema, replacement));
      }
      // Union of replacements = original minus rows sharing l's value
      // (numeric) / l's excluded leaves (categorical) on that attribute.
      for (size_t r = 0; r < ds.relation->NumRows(); r += 13) {
        if (!rule.MatchesRow(*ds.relation, r)) continue;
        bool in_union = false;
        for (const Rule& replacement : p.replacements) {
          if (replacement.MatchesRow(*ds.relation, r)) in_union = true;
        }
        if (schema.attribute(p.attribute).kind == AttrKind::kNumeric) {
          bool same_value =
              ds.relation->Get(r, p.attribute) == l[p.attribute];
          EXPECT_EQ(in_union, !same_value) << "row " << r;
        } else if (!in_union) {
          // Categorical: anything dropped must share an excluded leaf's
          // fate — at minimum, l itself is dropped; other drops are
          // possible only if no cover concept contains them, which means
          // they sit under the excluded concept.
          EXPECT_TRUE(true);
        }
      }
    }
  }
}

TEST_P(SeededProperty, TrackerDeltasMatchBruteForce) {
  const Dataset& ds = SharedDataset();
  Rng rng(GetParam() ^ 0x7777);
  RuleSet rules;
  for (int i = 0; i < 4; ++i) rules.AddRule(RandomRule(ds, &rng));
  CaptureTracker tracker(*ds.relation, rules);
  RuleEvaluator eval(*ds.relation);

  Rule replacement = RandomRule(ds, &rng);
  RuleId target = rules.LiveIds()[static_cast<size_t>(rng.UniformInt(0, 3))];
  BenefitDelta fast =
      tracker.DeltaForReplace(target, tracker.Eval(replacement));

  // Brute force: evaluate the union before and after.
  LabelCounts before = eval.CountsVisible(eval.EvalRuleSet(rules));
  auto brute = [&](const RuleSet& modified) {
    return DeltaFromCounts(before,
                           eval.CountsVisible(eval.EvalRuleSet(modified)));
  };
  RuleSet modified = rules;
  modified.Replace(target, replacement);
  EXPECT_EQ(fast, brute(modified));

  // Add, remove (an empty capture), and a replacement by two rules that
  // need not lie inside the target (the union of their captures).
  Rule extra = RandomRule(ds, &rng);
  RuleSet added = rules;
  added.AddRule(extra);
  EXPECT_EQ(tracker.DeltaForAdd(tracker.Eval(extra)), brute(added));
  RuleSet removed = rules;
  removed.RemoveRule(target);
  EXPECT_EQ(tracker.DeltaForReplace(target, Bitset(tracker.prefix_rows())),
            brute(removed));
  Rule side = RandomRule(ds, &rng);
  RuleSet two = removed;
  two.AddRule(replacement);
  two.AddRule(side);
  EXPECT_EQ(tracker.DeltaForReplace(
                target, tracker.Eval(replacement) | tracker.Eval(side)),
            brute(two));
}

// RankSplits scores the splits of every attribute from one walk over the
// split rule's capture (CaptureTracker::DeltaForSplit). Its oracle is the
// scan: every proposal's delta must equal DeltaFromCounts of the rule-set
// union's visible counts before and after the split, and each side's counts
// those of the side rule's scanned capture. Rows appended to a copy of the
// relation hold non-leaf concepts in their type and location cells and
// amounts next to the kNegInf / kPosInf sentinels. The rule set holds two
// overlapping open-ended amount rules (some rows are covered twice), a
// point condition (a split with no sides removes the rule, and the first
// appended row, whose risk score is above every other, is covered by it
// alone) and random rules; a type condition of ⊤ splits into a
// multi-concept cover of the transaction-type DAG. Each rule is split
// around at most `rows_per_rule` rows, appended ones first. Trackers at 1, 4
// and 8 threads must rank alike; on the large input the 4-thread walk fans
// out.
void ExpectSplitScoresMatchScan(const Dataset& ds, uint64_t seed,
                                size_t rows_per_rule) {
  const Schema& schema = *ds.cc.schema;
  const CreditCardSchemaLayout& at = ds.cc.layout;
  const Ontology& types = *ds.cc.type_ontology;
  const Ontology& places = *ds.cc.location_ontology;
  Rng rng(seed ^ 0x5B117);
  Relation rel = *ds.relation;
  auto any_inner = [&](const Ontology& o) {
    std::vector<ConceptId> inner;
    for (ConceptId c = 0; c < o.size(); ++c) {
      if (!o.IsLeaf(c) && c != o.top()) inner.push_back(c);
    }
    return inner[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(inner.size()) - 1))];
  };
  const size_t first_appended = rel.NumRows();
  for (int i = 0; i < 16; ++i) {
    Tuple t = rel.GetRow(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(first_appended) - 1)));
    if (i % 2 == 0) t[at.type] = any_inner(types);
    if (i % 3 == 0) t[at.location] = any_inner(places);
    if (i % 4 == 1) t[at.amount] = kNegInf + 1;
    if (i % 4 == 3) t[at.amount] = kPosInf - 1;
    if (i == 0) t[at.risk_score] = 1001;
    auto label = static_cast<Label>(rng.UniformInt(0, 2));
    ASSERT_TRUE(rel.AppendRow(t, label, label).ok());
  }

  RuleSet rules;
  int64_t lo = rng.UniformInt(50, 400);
  Rule at_least = Rule::Trivial(schema);
  at_least.set_condition(at.amount,
                         Condition::MakeNumeric(Interval::AtLeast(lo)));
  at_least.set_condition(at.risk_score,
                         Condition::MakeNumeric(Interval::AtMost(1000)));
  rules.AddRule(at_least);
  Rule at_most = at_least;
  at_most.set_condition(
      at.amount,
      Condition::MakeNumeric(Interval::AtMost(lo + rng.UniformInt(0, 300))));
  rules.AddRule(at_most);
  Rule point = Rule::Trivial(schema);
  point.set_condition(at.amount, Condition::MakeNumeric(Interval::Point(
                                     rel.Get(first_appended, at.amount))));
  rules.AddRule(point);
  for (int i = 0; i < 2; ++i) rules.AddRule(RandomRule(ds, &rng));

  SpecializationEngine engine(rel, SpecializeOptions{});
  std::vector<std::unique_ptr<CaptureTracker>> trackers;
  for (int threads : kTrackerThreads) {
    trackers.push_back(std::make_unique<CaptureTracker>(
        rel, rules, rel.NumRows(), EvalOptions{threads}));
  }
  const CaptureTracker& tracker = *trackers[0];
  RuleEvaluator scan(rel, rel.NumRows(), EvalOptions{1, false});
  const LabelCounts before = scan.CountsVisible(scan.EvalRuleSet(rules));
  uint64_t fanned_out = 0;
  bool removal = false, sentinel = false, inner_cell = false,
       multi_cover = false, twice = false;
  for (RuleId id : rules.LiveIds()) {
    const Rule& rule = rules.Get(id);
    const Bitset& capture = tracker.RuleCapture(id);
    RuleSet others = rules;
    others.RemoveRule(id);
    const Bitset others_capture = scan.EvalRuleSet(others);
    // The split rows: every captured appended row, and a few others.
    std::vector<size_t> rows;
    capture.ForEachInRange(first_appended, rel.NumRows(),
                           [&](size_t r) { rows.push_back(r); });
    std::vector<size_t> old_rows;
    capture.ForEachInRange(0, first_appended,
                           [&](size_t r) { old_rows.push_back(r); });
    for (int k = 0; k < 3 && !old_rows.empty(); ++k) {
      rows.push_back(old_rows[static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(old_rows.size()) - 1))]);
    }
    if (rows.size() > rows_per_rule) rows.resize(rows_per_rule);
    capture.ForEach(
        [&](size_t r) { twice = twice || tracker.CoverCount(r) > 1; });
    for (size_t row : rows) {
      std::vector<SplitProposal> proposals =
          engine.RankSplits(tracker, id, row);
      ASSERT_FALSE(proposals.empty()) << "rule " << id << " row " << row;
      for (size_t t = 1; t < trackers.size(); ++t) {
        const uint64_t episodes = SchedulerEpisodes();
        std::vector<SplitProposal> got =
            engine.RankSplits(*trackers[t], id, row);
        if (kTrackerThreads[t] == 4) fanned_out += SchedulerEpisodes() - episodes;
        ASSERT_EQ(got.size(), proposals.size()) << kTrackerThreads[t];
        for (size_t k = 0; k < got.size(); ++k) {
          EXPECT_EQ(got[k].attribute, proposals[k].attribute);
          EXPECT_EQ(got[k].delta, proposals[k].delta)
              << kTrackerThreads[t] << " threads, rule " << id << " row "
              << row << " attr " << proposals[k].attribute;
          EXPECT_EQ(got[k].replacement_counts, proposals[k].replacement_counts)
              << kTrackerThreads[t] << " threads, rule " << id << " row "
              << row << " attr " << proposals[k].attribute;
          EXPECT_EQ(got[k].replacements, proposals[k].replacements);
        }
      }
      for (const SplitProposal& p : proposals) {
        Bitset after = others_capture;
        ASSERT_EQ(p.replacement_counts.size(), p.replacements.size());
        for (size_t s = 0; s < p.replacements.size(); ++s) {
          const Bitset side = scan.EvalRule(p.replacements[s]);
          EXPECT_EQ(p.replacement_counts[s], scan.CountsVisible(side))
              << "rule " << id << " row " << row << " attr " << p.attribute
              << " side " << s;
          after |= side;
        }
        EXPECT_EQ(p.delta, DeltaFromCounts(before, scan.CountsVisible(after)))
            << "rule " << id << " row " << row << " attr " << p.attribute;

        const AttributeDef& def = schema.attribute(p.attribute);
        CellValue v = rel.Get(row, p.attribute);
        removal = removal ||
                  (p.replacements.empty() && !(p.delta == BenefitDelta{}));
        if (def.kind == AttrKind::kNumeric) {
          const Interval& iv = rule.condition(p.attribute).interval();
          sentinel = sentinel || (v == kNegInf + 1 && iv.lo == kNegInf) ||
                     (v == kPosInf - 1 && iv.hi == kPosInf);
        } else {
          capture.ForEach([&](size_t r) {
            auto cell = static_cast<ConceptId>(rel.Get(r, p.attribute));
            inner_cell = inner_cell || !def.ontology->IsLeaf(cell);
          });
          multi_cover = multi_cover ||
                        (p.attribute == at.type && p.replacements.size() > 1);
        }
      }
    }
  }
  EXPECT_TRUE(removal);
  EXPECT_TRUE(sentinel);
  EXPECT_TRUE(inner_cell);
  EXPECT_TRUE(multi_cover);
  EXPECT_TRUE(twice);
  // RUDOLF_THREADS overrides the requested count, so ask the evaluator.
  const RuleEvaluator& four = trackers[1]->evaluator();
  if (four.num_threads() > 1 && rel.NumRows() > RuleEvaluator::kChunkRows) {
    EXPECT_TRUE(four.FansOut());
    EXPECT_GT(fanned_out, 0u);
  }
}

TEST_P(SeededProperty, SplitScoresMatchScanOracle) {
  ExpectSplitScoresMatchScan(SharedDataset(), GetParam(), SIZE_MAX);
  ExpectSplitScoresMatchScan(LargeDataset(), GetParam(), 4);
}

// RankCandidates scores its shortlist as one batch of replacements
// (CaptureTracker::DeltaForReplace over RuleEvaluator::EvalRules): every
// proposal's delta, and every delta of a batch of random replacements, must
// equal DeltaFromCounts of the scanned union's visible counts before and
// after the replacement, at 1, 4 and 8 threads. On the large input the
// 4-thread batches fan out.
void ExpectCandidateDeltasMatchScan(const Dataset& ds, uint64_t seed) {
  const Relation& rel = *ds.relation;
  const Schema& schema = *ds.cc.schema;
  Rng rng(seed ^ 0xCA9D);
  RuleSet rules;
  for (int i = 0; i < 6; ++i) rules.AddRule(RandomRule(ds, &rng));
  const std::vector<RuleId> ids = rules.LiveIds();
  RuleEvaluator scan(rel, rel.NumRows(), EvalOptions{1, false});
  const LabelCounts before = scan.CountsVisible(scan.EvalRuleSet(rules));
  auto oracle = [&](RuleId id, const Rule& replacement) {
    RuleSet replaced = rules;
    replaced.Replace(id, replacement);
    return DeltaFromCounts(before,
                           scan.CountsVisible(scan.EvalRuleSet(replaced)));
  };
  // Representatives of a few random rows, and one random replacement per
  // rule (repeated once, so a batch holds equal keys).
  std::vector<Rule> representatives;
  for (int i = 0; i < 2; ++i) {
    std::vector<size_t> rows;
    for (int k = 0; k < 3; ++k) {
      rows.push_back(static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(rel.NumRows()) - 1)));
    }
    representatives.push_back(RepresentativeOfRows(rel, rows));
  }
  std::vector<Rule> replacements;
  std::vector<RuleId> replaced;
  for (RuleId id : ids) {
    replacements.push_back(RandomRule(ds, &rng));
    replaced.push_back(id);
  }
  replacements.push_back(replacements[0]);
  replaced.push_back(ids[1]);
  std::vector<BenefitDelta> want;
  for (size_t i = 0; i < replacements.size(); ++i) {
    want.push_back(oracle(replaced[i], replacements[i]));
  }
  std::vector<const Rule*> batch;
  for (const Rule& r : replacements) batch.push_back(&r);

  GeneralizeOptions options;
  options.top_k = options.max_candidates_scored;
  GeneralizationEngine engine(rel, options);
  size_t candidates = 0;
  for (int threads : kTrackerThreads) {
    CaptureTracker tracker(rel, rules, rel.NumRows(), EvalOptions{threads});
    const uint64_t episodes = SchedulerEpisodes();
    EXPECT_EQ(tracker.DeltaForReplace(replaced, batch), want)
        << threads << " threads";
    for (const Rule& rep : representatives) {
      for (const GeneralizationProposal& p :
           engine.RankCandidates(tracker, rep, 3)) {
        EXPECT_EQ(p.delta, oracle(p.rule_id, p.proposed))
            << threads << " threads, rule " << p.rule_id << " to "
            << p.proposed.ToString(schema);
        ++candidates;
      }
    }
    // RUDOLF_THREADS overrides the requested count, so ask the evaluator.
    if (threads == 4 && tracker.evaluator().num_threads() > 1 &&
        rel.NumRows() > RuleEvaluator::kChunkRows) {
      EXPECT_TRUE(tracker.evaluator().FansOut());
      EXPECT_GT(SchedulerEpisodes(), episodes);
    }
  }
  EXPECT_GT(candidates, 0u);
}

TEST_P(SeededProperty, CandidateDeltasMatchScanOracle) {
  ExpectCandidateDeltasMatchScan(SharedDataset(), GetParam());
  ExpectCandidateDeltasMatchScan(LargeDataset(), GetParam());
}

// EvaluateOnRange scans the live rules over the window only; its counts
// must equal a row-by-row match over the same window.
void ExpectEvaluateOnRangeMatchesRowByRow(const Dataset& ds,
                                          const RuleSet& rules, size_t begin,
                                          size_t end) {
  const Relation& rel = *ds.relation;
  ASSERT_LE(end, rel.NumRows());
  PredictionQuality want;
  for (size_t r = begin; r < end; ++r) {
    bool hit = false;
    for (RuleId id : rules.LiveIds()) {
      hit = hit || rules.Get(id).MatchesRow(rel, r);
    }
    ++want.rows;
    if (rel.TrueLabel(r) == Label::kFraud) {
      ++want.true_fraud;
      if (hit) {
        ++want.fraud_captured;
      } else {
        ++want.fraud_missed;
      }
    } else {
      ++want.true_legit;
      if (hit) ++want.legit_captured;
    }
  }
  PredictionQuality got = EvaluateOnRange(rel, rules, begin, end);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.true_fraud, want.true_fraud);
  EXPECT_EQ(got.true_legit, want.true_legit);
  EXPECT_EQ(got.fraud_captured, want.fraud_captured);
  EXPECT_EQ(got.fraud_missed, want.fraud_missed);
  EXPECT_EQ(got.legit_captured, want.legit_captured);
}

// On the small input the window spans more than two 64-row words and starts
// off a word boundary, so both the per-row head and the kernel body run. On
// the large one it starts and ends off a word boundary and crosses row
// 65,536, so its two row blocks fan out at the shared scheduler's width.
TEST_P(SeededProperty, EvaluateOnRangeMatchesRowByRow) {
  {
    const Dataset& ds = SharedDataset();
    Rng rng(GetParam() ^ 0x0E7A);
    RuleSet rules;
    for (int i = 0; i < 4; ++i) rules.AddRule(RandomRule(ds, &rng));
    rules.RemoveRule(rules.LiveIds()[static_cast<size_t>(rng.UniformInt(0, 3))]);
    size_t begin = 64 * static_cast<size_t>(rng.UniformInt(0, 4)) +
                   static_cast<size_t>(rng.UniformInt(1, 63));
    size_t end = begin + static_cast<size_t>(rng.UniformInt(129, 700));
    ExpectEvaluateOnRangeMatchesRowByRow(ds, rules, begin, end);
  }
  const Dataset& ds = LargeDataset();
  Rng rng(GetParam() ^ 0x0E7B);
  RuleSet rules;
  for (int i = 0; i < 4; ++i) rules.AddRule(RandomRule(ds, &rng));
  rules.RemoveRule(rules.LiveIds()[static_cast<size_t>(rng.UniformInt(0, 3))]);
  const size_t block = RuleEvaluator::kChunkRows;
  const size_t begin = OffWordRow(block - 4000, block, &rng);
  const size_t end = OffWordRow(block + 1, ds.relation->NumRows(), &rng);
  const uint64_t episodes = SchedulerEpisodes();
  ExpectEvaluateOnRangeMatchesRowByRow(ds, rules, begin, end);
  // RUDOLF_THREADS overrides the shared scheduler's width.
  if (ResolveNumThreads(0) > 1) {
    EXPECT_GT(SchedulerEpisodes(), episodes);
  }
}

// EvalRuleSetRange ORs the live rules' captures over a window into the
// caller's bitmap, block by block: at 1, 4 and 8 threads it must equal the
// serial per-rule EvalRuleRange loop and leave the bits outside the window
// as they were. The windows start and end off a word boundary and cross
// row 65,536, or lie inside one block, or are empty; the rule set holds a
// removed rule.
TEST_P(SeededProperty, EvalRuleSetRangeMatchesPerRuleLoop) {
  const Dataset& ds = LargeDataset();
  const Relation& rel = *ds.relation;
  const size_t n = rel.NumRows();
  const size_t block = RuleEvaluator::kChunkRows;
  Rng rng(GetParam() ^ 0x5E7A);
  RuleSet rules;
  for (int i = 0; i < 6; ++i) rules.AddRule(RandomRule(ds, &rng));
  rules.RemoveRule(rules.LiveIds()[static_cast<size_t>(rng.UniformInt(0, 5))]);
  const size_t inside = OffWordRow(block + 1, n - 1000, &rng);
  const size_t empty = OffWordRow(1, n, &rng);
  const std::pair<size_t, size_t> windows[] = {
      {OffWordRow(1, block, &rng), OffWordRow(block + 1, n, &rng)},
      {OffWordRow(block - 200, block, &rng),
       OffWordRow(block + 1, block + 200, &rng)},
      {inside, inside + 777},
      {empty, empty},
      {0, n},
  };
  // Bits the window must leave alone.
  Bitset background(n);
  for (size_t r = 0; r < n;
       r += 1 + static_cast<size_t>(rng.UniformInt(0, 96))) {
    background.Set(r);
  }

  RuleEvaluator serial(rel, n, EvalOptions{1, /*use_index=*/false});
  for (const auto& [lo, hi] : windows) {
    Bitset want = background;
    for (RuleId id : rules.LiveIds()) {
      serial.EvalRuleRange(rules.Get(id), lo, hi, &want);
    }
    for (int threads : kTrackerThreads) {
      RuleEvaluator eval(rel, n, EvalOptions{threads, /*use_index=*/false});
      const uint64_t episodes = SchedulerEpisodes();
      Bitset got = background;
      eval.EvalRuleSetRange(rules, lo, hi, &got);
      EXPECT_EQ(got, want) << threads << " threads, rows [" << lo << ", "
                           << hi << ")";
      // RUDOLF_THREADS overrides the requested count, so ask the evaluator.
      if (threads == 4 && eval.num_threads() > 1 && lo < hi &&
          lo / block != (hi - 1) / block) {
        EXPECT_TRUE(eval.FansOut());
        EXPECT_GT(SchedulerEpisodes(), episodes)
            << "rows [" << lo << ", " << hi << ")";
      }
    }
  }
}

TEST_P(SeededProperty, TrackerApplySequenceStaysConsistent) {
  const Dataset& ds = SharedDataset();
  Rng rng(GetParam() ^ 0xABCD);
  RuleSet rules;
  for (int i = 0; i < 3; ++i) rules.AddRule(RandomRule(ds, &rng));
  CaptureTracker tracker(*ds.relation, rules);
  // Random edit sequence, mirrored into the reference `rules`.
  for (int step = 0; step < 6; ++step) {
    std::vector<RuleId> live = rules.LiveIds();
    int op = static_cast<int>(rng.UniformInt(0, 2));
    if (op == 0 || live.empty()) {
      Rule r = RandomRule(ds, &rng);
      EXPECT_EQ(tracker.Add(r), rules.AddRule(r));
    } else if (op == 1) {
      RuleId id = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      Rule r = RandomRule(ds, &rng);
      rules.Replace(id, r);
      tracker.Replace(id, r);
    } else {
      RuleId id = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      rules.RemoveRule(id);
      tracker.Remove(id);
    }
  }
  EXPECT_EQ(tracker.rules().ToString(*ds.cc.schema), rules.ToString(*ds.cc.schema));
  CaptureTracker fresh(*ds.relation, rules);
  EXPECT_EQ(tracker.UnionCapture(), fresh.UnionCapture());
  for (size_t r = 0; r < ds.relation->NumRows(); r += 11) {
    EXPECT_EQ(tracker.CoverCount(r), fresh.CoverCount(r));
  }
}

TEST_P(SeededProperty, BitsetAlgebraAgainstReference) {
  Rng rng(GetParam() ^ 0xB175);
  const size_t n = 257;  // straddles word boundaries
  Bitset a(n);
  Bitset b(n);
  std::vector<bool> ra(n, false);
  std::vector<bool> rb(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.4)) {
      a.Set(i);
      ra[i] = true;
    }
    if (rng.Bernoulli(0.4)) {
      b.Set(i);
      rb[i] = true;
    }
  }
  Bitset u = a | b;
  Bitset x = a & b;
  Bitset d = a;
  d.Subtract(b);
  size_t expect_union = 0;
  size_t expect_inter = 0;
  size_t expect_diff = 0;
  for (size_t i = 0; i < n; ++i) {
    bool eu = ra[i] || rb[i];
    bool ei = ra[i] && rb[i];
    bool ed = ra[i] && !rb[i];
    EXPECT_EQ(u.Test(i), eu);
    EXPECT_EQ(x.Test(i), ei);
    EXPECT_EQ(d.Test(i), ed);
    expect_union += eu;
    expect_inter += ei;
    expect_diff += ed;
  }
  EXPECT_EQ(u.Count(), expect_union);
  EXPECT_EQ(a.IntersectCount(b), expect_inter);
  EXPECT_EQ(a.DifferenceCount(b), expect_diff);
}

TEST_P(SeededProperty, OntologyJoinIsLeastContainer) {
  const Dataset& ds = SharedDataset();
  const Ontology& o = *ds.cc.location_ontology;
  Rng rng(GetParam() ^ 0x01101);
  for (int i = 0; i < 15; ++i) {
    ConceptId a = static_cast<ConceptId>(
        rng.UniformInt(0, static_cast<int64_t>(o.size()) - 1));
    ConceptId b = static_cast<ConceptId>(
        rng.UniformInt(0, static_cast<int64_t>(o.size()) - 1));
    ConceptId j = o.Join(a, b);
    EXPECT_TRUE(o.Contains(j, a));
    EXPECT_TRUE(o.Contains(j, b));
    // No concept with strictly fewer leaves contains both.
    for (ConceptId c = 0; c < o.size(); ++c) {
      if (o.LeafCount(c) < o.LeafCount(j)) {
        EXPECT_FALSE(o.Contains(c, a) && o.Contains(c, b));
      }
    }
  }
}

TEST_P(SeededProperty, UpwardDistanceReachesAContainer) {
  const Dataset& ds = SharedDataset();
  const Ontology& o = *ds.cc.location_ontology;
  Rng rng(GetParam() ^ 0xD157);
  for (int i = 0; i < 15; ++i) {
    ConceptId from = static_cast<ConceptId>(
        rng.UniformInt(0, static_cast<int64_t>(o.size()) - 1));
    ConceptId target = static_cast<ConceptId>(
        rng.UniformInt(0, static_cast<int64_t>(o.size()) - 1));
    int dist = o.UpwardDistance(from, target);
    ConceptId container = o.NearestContainer(from, target);
    EXPECT_GE(dist, 0);
    EXPECT_TRUE(o.Contains(container, target));
    EXPECT_TRUE(o.Contains(container, from));
    if (o.Contains(from, target)) {
      EXPECT_EQ(dist, 0);
    }
  }
}


TEST_P(SeededProperty, ParserNeverCrashesOnMutatedInput) {
  const Dataset& ds = SharedDataset();
  Rng rng(GetParam() ^ 0xF022);
  const char* seeds_text[] = {
      "time in [18:00,18:05] && amount >= 110",
      "type <= 'Online, no CCV' && location = 'Gas Station'",
      "amount in [40,90] && prev_actions < 5",
      "TRUE",
  };
  const char charset[] = "abcdefgh AMOUNT<>=[]'\",:&|0123456789";
  for (int i = 0; i < 40; ++i) {
    std::string text = seeds_text[rng.UniformInt(0, 3)];
    // Mutate: random splice/insert/delete.
    int mutations = static_cast<int>(rng.UniformInt(1, 6));
    for (int m = 0; m < mutations; ++m) {
      if (text.empty()) break;
      size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          text[pos] = charset[rng.UniformInt(0, sizeof(charset) - 2)];
          break;
        case 1:
          text.insert(pos, 1, charset[rng.UniformInt(0, sizeof(charset) - 2)]);
          break;
        default:
          text.erase(pos, 1);
      }
    }
    // Must either parse to a valid rule or fail cleanly — never crash.
    auto parsed = ParseRule(*ds.cc.schema, text);
    if (parsed.ok()) {
      EXPECT_EQ(parsed->arity(), ds.cc.schema->arity());
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST_P(SeededProperty, CsvReaderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam() ^ 0xC54);
  for (int i = 0; i < 20; ++i) {
    std::string blob;
    size_t len = static_cast<size_t>(rng.UniformInt(0, 400));
    for (size_t b = 0; b < len; ++b) {
      blob += static_cast<char>(rng.UniformInt(1, 127));
    }
    auto rows = ParseCsv(blob);  // ok or clean parse error
    if (!rows.ok()) {
      EXPECT_EQ(rows.status().code(), StatusCode::kParseError);
    }
  }
}

TEST_P(SeededProperty, OntologySerializationRoundTripsRandomDags) {
  Rng rng(GetParam() ^ 0xDA6);
  Ontology original("fuzz", "Root");
  int n = static_cast<int>(rng.UniformInt(3, 25));
  for (int i = 0; i < n; ++i) {
    // 1-2 random parents among existing concepts.
    std::vector<ConceptId> parents;
    parents.push_back(static_cast<ConceptId>(
        rng.UniformInt(0, static_cast<int64_t>(original.size()) - 1)));
    if (rng.Bernoulli(0.3)) {
      ConceptId second = static_cast<ConceptId>(
          rng.UniformInt(0, static_cast<int64_t>(original.size()) - 1));
      if (second != parents[0]) parents.push_back(second);
    }
    ASSERT_TRUE(original.AddConcept("c" + std::to_string(i), parents).ok());
  }
  auto reloaded = OntologyFromString(OntologyToString(original));
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ((*reloaded)->size(), original.size());
  for (ConceptId a = 0; a < original.size(); ++a) {
    EXPECT_EQ((*reloaded)->NameOf(a), original.NameOf(a));
    for (ConceptId b = 0; b < original.size(); ++b) {
      EXPECT_EQ((*reloaded)->Contains(a, b), original.Contains(a, b));
    }
  }
}

}  // namespace
}  // namespace rudolf
