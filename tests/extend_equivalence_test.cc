// Extend-vs-rebuild equivalence for the incremental append path: the
// cache-preserving RuleEvaluator::ExtendPrefix with its completions of
// stale cache entries, CaptureTracker::ExtendPrefix and Sync under
// randomized append / relabel / rule-edit interleavings (at 1, 4 and 8
// threads), and the persistent-session mode — every incremental result
// must be BIT-IDENTICAL to a fresh build.
//
// Under RUDOLF_INDEX=0 the evaluators have no condition cache: the suites
// about the cache itself skip, and the others guard only their cache
// assertions.
//
// Alongside ParallelEquivalence, this binary is a TSan target: the README's
// RUDOLF_SANITIZE=thread invocation runs it to race-check the parallel
// extension pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/capture_tracker.h"
#include "core/session.h"
#include "expert/oracle_expert.h"
#include "experiments/runner.h"
#include "index/condition_cache.h"
#include "obs/metrics.h"
#include "rules/evaluator.h"
#include "rules/simplify.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"
#include "workload/paper_example.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// Ground truth for interval extraction.
Bitset ScanInterval(const std::vector<CellValue>& column, size_t prefix,
                    const Interval& iv) {
  Bitset out(prefix);
  for (size_t r = 0; r < prefix; ++r) {
    if (iv.Contains(column[r])) out.Set(r);
  }
  return out;
}

// Draws a random syntactically valid rule over the dataset's schema (same
// construction as parallel_equivalence_test.cc).
Rule RandomRule(const Schema& schema, Rng* rng) {
  Rule rule = Rule::Trivial(schema);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rng->Bernoulli(0.45)) continue;
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      bool clock = def.display == NumericDisplay::kClock;
      int64_t a = rng->UniformInt(0, clock ? 1000 : 1200);
      int64_t b = a + rng->UniformInt(0, clock ? 1439 - a : 400);
      rule.set_condition(i, Condition::MakeNumeric({a, b}));
    } else {
      ConceptId c = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1));
      rule.set_condition(i, Condition::MakeCategorical(c));
    }
  }
  return rule;
}

// The rule whose one non-trivial condition is `cond` on `attr`.
Rule Single(const Schema& schema, size_t attr, const Condition& cond) {
  Rule rule = Rule::Trivial(schema);
  rule.set_condition(attr, cond);
  return rule;
}

// The captures of one EvalRules batch, in order.
std::vector<Bitset> EvalBatch(const RuleEvaluator& eval,
                              const std::vector<Rule>& rules) {
  std::vector<const Rule*> batch;
  for (const Rule& rule : rules) batch.push_back(&rule);
  std::vector<Bitset> out(rules.size());
  eval.EvalRules(batch, [&out](size_t i, Bitset capture) {
    out[i] = std::move(capture);
  });
  return out;
}

// Three numeric columns: random values of both signs; the int64 edges and
// their neighbours in long duplicate runs; and a constant column. From a
// 5,000-row prefix, a random ExtendPrefix schedule grows the evaluator to
// all 30,000 rows. Intervals with sentinel ends and six random ones per
// column stay cached throughout, so after every extension their lookups
// complete stale entries, in one EvalRules batch of one-condition rules
// with six new intervals per column that miss. Every capture must equal the
// scan and a fresh evaluator's. No interval is drawn twice, and every batch
// looks the kept ones up first, so the default 256-entry cache evicts only
// earlier batches' new intervals: each distinct interval misses exactly
// once, and the evictions are the distinct intervals past the capacity.
TEST(ConditionIndexExtend, NumericCompletionsMatchScanAndFreshIndex) {
  Rng rng(31);
  const std::vector<int64_t> edges = {kNegInf, kNegInf + 1, -1, 0,
                                      1,       kPosInf - 1, kPosInf};
  std::vector<std::vector<CellValue>> columns(3);
  for (int i = 0; i < 30000; ++i) {
    columns[0].push_back(rng.UniformInt(-50, 1300));
  }
  while (columns[1].size() < 30000) {
    int64_t v = edges[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
    columns[1].insert(columns[1].end(),
                      static_cast<size_t>(rng.UniformInt(1, 3000)), v);
  }
  columns[1].resize(30000);
  columns[2].assign(30000, 7);
  auto schema = std::make_shared<Schema>();
  for (const char* name : {"mixed", "edges", "constant"}) {
    ASSERT_TRUE(schema->AddNumeric(name).ok());
  }
  Relation rel(schema);
  for (size_t r = 0; r < 30000; ++r) {
    ASSERT_TRUE(
        rel.AppendRow(Tuple{columns[0][r], columns[1][r], columns[2][r]}).ok());
  }

  // Interval ends: the edges, their neighbours and random values.
  std::vector<int64_t> ends = edges;
  ends.insert(ends.end(), {-2, 2, 6, 7, 8});
  auto draw_end = [&]() {
    if (rng.Bernoulli(0.5)) return rng.UniformInt(-60, 1310);
    return ends[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ends.size()) - 1))];
  };
  // The cache keys drawn so far; Interval::All() is trivial, so no key.
  std::unordered_set<ConditionKey, ConditionKeyHash> distinct;
  auto add = [&](size_t attr, const Interval& iv) {
    const Condition cond = Condition::MakeNumeric(iv);
    return cond.IsTrivial(schema->attribute(attr)) ||
           distinct.insert(ConditionKey::For(attr, cond)).second;
  };
  // A new non-trivial interval on `attr`, never drawn before.
  auto draw = [&](size_t attr) {
    for (;;) {
      int64_t a = draw_end();
      int64_t b = draw_end();
      const Interval iv{std::min(a, b), std::max(a, b)};
      if (iv == Interval::All() || !add(attr, iv)) continue;
      return std::make_pair(attr, iv);
    }
  };
  auto rules_of = [&](const std::vector<std::pair<size_t, Interval>>& ivs) {
    std::vector<Rule> rules;
    for (const auto& [attr, iv] : ivs) {
      rules.push_back(Single(*schema, attr, Condition::MakeNumeric(iv)));
    }
    return rules;
  };
  std::vector<std::pair<size_t, Interval>> kept;
  for (size_t c = 0; c < columns.size(); ++c) {
    for (const Interval& iv :
         {Interval::All(), Interval::Point(kNegInf), Interval::Point(kPosInf),
          Interval{kNegInf + 1, kPosInf - 1}, Interval::AtMost(-1),
          Interval::AtLeast(0)}) {
      add(c, iv);
      kept.emplace_back(c, iv);
    }
    for (int i = 0; i < 6; ++i) kept.push_back(draw(c));
  }
  const size_t kept_keys = distinct.size();

  RuleEvaluator eval(rel, 5000);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  EvalBatch(eval, rules_of(kept));
  while (eval.num_rows() < rel.NumRows()) {
    eval.ExtendPrefix(eval.num_rows() +
                      static_cast<size_t>(rng.UniformInt(1, 1500)));
    const size_t prefix = eval.num_rows();
    std::vector<std::pair<size_t, Interval>> batch = kept;
    for (size_t c = 0; c < columns.size(); ++c) {
      for (int i = 0; i < 6; ++i) batch.push_back(draw(c));
    }
    const std::vector<Rule> rules = rules_of(batch);
    const std::vector<Bitset> got = EvalBatch(eval, rules);
    RuleEvaluator fresh(rel, prefix);
    const std::vector<Bitset> rebuilt = EvalBatch(fresh, rules);
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto& [c, iv] = batch[i];
      const Bitset expected = ScanInterval(columns[c], prefix, iv);
      ASSERT_EQ(got[i], expected)
          << "column " << c << ": extended diverges at prefix " << prefix
          << " on [" << iv.lo << ", " << iv.hi << "]";
      ASSERT_EQ(rebuilt[i], expected)
          << "column " << c << ": fresh diverges at prefix " << prefix
          << " on [" << iv.lo << ", " << iv.hi << "]";
    }
  }
  if (!ResolveUseIndex(true)) return;  // RUDOLF_INDEX=0: no cache to count
  // Each distinct interval missed once; every later lookup was a hit, and
  // the kept ones completed their stale entries.
  const size_t capacity = ConditionCache::kDefaultCapacity;
  ASSERT_GT(distinct.size(), capacity);
  const ConditionCacheStats stats = eval.cache_stats();
  EXPECT_EQ(stats.misses, distinct.size());
  EXPECT_EQ(stats.evictions, distinct.size() - capacity);
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  const obs::CounterSample* stale = delta.FindCounter("index.cache.stale_extends");
  ASSERT_NE(stale, nullptr);
  EXPECT_GE(stale->value, kept_keys);
}

// Rows appended through Relation::AppendRow after the evaluator is built
// carry categorical values the build prefix never held: every concept below
// the top that the paper example's column does not use, inner concepts
// among them. Every concept's bitmap is cached before each batch and
// completed on its next hit; it must equal a fresh evaluator's over the
// grown relation and the concept-mask scan, and no completion may count as
// a miss.
TEST(CategoricalAppend, MatchesFreshBuildWithLateNewValues) {
  PaperExample ex = MakePaperExample();
  Relation& rel = *ex.relation;
  const Schema& schema = rel.schema();
  const size_t base_rows = rel.NumRows();

  std::vector<size_t> attrs;
  std::vector<std::vector<ConceptId>> late(schema.arity());
  size_t late_rows = 0;
  for (size_t attr = 0; attr < schema.arity(); ++attr) {
    const AttributeDef& def = schema.attribute(attr);
    if (def.kind != AttrKind::kCategorical) continue;
    attrs.push_back(attr);
    const std::vector<CellValue>& column = rel.Column(attr);
    bool inner = false;
    for (ConceptId c = 1; c < def.ontology->size(); ++c) {
      if (std::find(column.begin(), column.end(), c) != column.end()) continue;
      late[attr].push_back(c);
      inner = inner || !def.ontology->IsLeaf(c);
    }
    ASSERT_TRUE(inner) << def.name;
    late_rows = std::max(late_rows, late[attr].size());
  }

  RuleEvaluator eval(rel);
  auto for_each_concept = [&](const std::function<void(size_t, ConceptId)>& fn) {
    for (size_t attr : attrs) {
      for (ConceptId c = 0; c < schema.attribute(attr).ontology->size(); ++c) {
        fn(attr, c);
      }
    }
  };
  for_each_concept([&](size_t attr, ConceptId c) {
    eval.EvalRule(Single(schema, attr, Condition::MakeCategorical(c)));
  });
  const uint64_t misses = eval.cache_stats().misses;

  for (size_t batch = 0; batch < 3; ++batch) {
    for (size_t k = 0; k < late_rows; ++k) {
      Tuple row = rel.GetRow(k % base_rows);
      for (size_t attr : attrs) {
        row[attr] = late[attr][(k + batch) % late[attr].size()];
      }
      ASSERT_TRUE(rel.AppendRow(row).ok());
    }
    eval.ExtendPrefix(rel.NumRows());
    RuleEvaluator fresh(rel);
    const size_t prefix = rel.NumRows();
    for_each_concept([&](size_t attr, ConceptId c) {
      const Ontology& ontology = *schema.attribute(attr).ontology;
      const Condition cond = Condition::MakeCategorical(c);
      Bitset scan(prefix);
      for (size_t r = 0; r < prefix; ++r) {
        if (ontology.Contains(c, static_cast<ConceptId>(rel.Get(r, attr)))) {
          scan.Set(r);
        }
      }
      const Bitset extended = eval.EvalRule(Single(schema, attr, cond));
      EXPECT_EQ(extended, fresh.EvalRule(Single(schema, attr, cond)))
          << "<= " << ontology.NameOf(c) << " at prefix " << prefix;
      EXPECT_EQ(extended, scan)
          << "<= " << ontology.NameOf(c) << " at prefix " << prefix;
    });
  }
  // Zero on both sides under RUDOLF_INDEX=0, where there is no cache.
  EXPECT_EQ(eval.cache_stats().misses, misses);
}

// Categorical conditions have no attribute index: a miss scans the column
// and a stale hit completes the entry by the same scan. For every concept of
// every categorical attribute, one EvalRules batch of one-condition rules
// must equal the concept-mask scan at a 500-row build prefix and after
// every step of a random ExtendPrefix schedule; the cache is dropped before
// some steps, so later misses scan longer prefixes. Each column also holds
// an inner (non-leaf) concept id, and a leaf first seen after the build
// prefix.
TEST(ConditionIndexExtend, CategoricalBitmapsMatchConceptMaskScan) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 8000;
  Dataset ds = GenerateDataset(s.options);
  Relation& rel = *ds.relation;
  const Schema& schema = rel.schema();
  Rng rng(32);
  const size_t build_prefix = 500;

  // Cells are rewritten before any evaluator exists, as the append contract
  // requires.
  std::vector<size_t> attrs;
  for (size_t attr = 0; attr < schema.arity(); ++attr) {
    const AttributeDef& def = schema.attribute(attr);
    if (def.kind != AttrKind::kCategorical) continue;
    attrs.push_back(attr);
    const Ontology& ontology = *def.ontology;
    const std::vector<ConceptId> leaves = ontology.Leaves();
    ASSERT_GE(leaves.size(), 2u) << def.name;
    ConceptId inner = ontology.top();
    for (ConceptId c = 1; c < ontology.size(); ++c) {
      if (!ontology.IsLeaf(c)) {
        inner = c;
        break;
      }
    }
    const ConceptId late = leaves[0];
    for (size_t r = 0; r < build_prefix; ++r) {
      if (rel.Get(r, attr) == late) rel.SetCell(r, attr, leaves[1]);
    }
    rel.SetCell(build_prefix / 2, attr, inner);
    rel.SetCell(build_prefix + 700, attr, late);
    rel.SetCell(4000, attr, inner);
  }
  ASSERT_FALSE(attrs.empty());

  // One rule per concept of every categorical attribute; the top's is
  // trivial, so the others are the cache's keys.
  std::vector<Rule> singles;
  std::vector<std::pair<size_t, ConceptId>> concepts;
  for (size_t attr : attrs) {
    for (ConceptId c = 0; c < schema.attribute(attr).ontology->size(); ++c) {
      singles.push_back(Single(schema, attr, Condition::MakeCategorical(c)));
      concepts.emplace_back(attr, c);
    }
  }
  const uint64_t keys = concepts.size() - attrs.size();
  auto check_all = [&](const RuleEvaluator& eval) {
    const size_t prefix = eval.num_rows();
    const std::vector<Bitset> got = EvalBatch(eval, singles);
    for (size_t k = 0; k < concepts.size(); ++k) {
      const auto [attr, c] = concepts[k];
      const AttributeDef& def = schema.attribute(attr);
      const Ontology& ontology = *def.ontology;
      Bitset scan(prefix);
      for (size_t r = 0; r < prefix; ++r) {
        if (ontology.Contains(c, static_cast<ConceptId>(rel.Get(r, attr)))) {
          scan.Set(r);
        }
      }
      ASSERT_EQ(got[k], scan)
          << def.name << " <= " << ontology.NameOf(c) << " at prefix " << prefix;
    }
  };

  RuleEvaluator eval(rel, build_prefix);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  check_all(eval);
  while (eval.num_rows() < rel.NumRows()) {
    if (rng.Bernoulli(0.3)) eval.ReleaseCachedBitmaps();
    eval.ExtendPrefix(eval.num_rows() +
                      static_cast<size_t>(rng.UniformInt(1, 900)));
    check_all(eval);
  }
  EXPECT_EQ(eval.num_rows(), rel.NumRows());
  if (!ResolveUseIndex(true)) return;  // RUDOLF_INDEX=0: no cache to count
  // Both paths ran: misses after an extension scanned whole prefixes, and
  // stale hits completed entries.
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  const obs::CounterSample* extractions = delta.FindCounter("index.extractions");
  const obs::CounterSample* stale = delta.FindCounter("index.cache.stale_extends");
  ASSERT_NE(extractions, nullptr);
  ASSERT_NE(stale, nullptr);
  EXPECT_GT(extractions->value, keys);
  EXPECT_GT(stale->value, 0u);
}

TEST(ConditionIndexExtend, KeepsCacheAndMatchesRebuild) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 6000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const Schema& schema = rel.schema();
  Rng rng(33);
  Rule rule = RandomRule(schema, &rng);
  std::vector<Rule> singles;
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rule.condition(i).IsTrivial(schema.attribute(i))) continue;
    singles.push_back(Single(schema, i, rule.condition(i)));
  }
  ASSERT_FALSE(singles.empty());
  const bool cached = ResolveUseIndex(true);

  RuleEvaluator eval(rel, 3000);
  EvalBatch(eval, singles);
  ConditionCacheStats before = eval.cache_stats();
  if (cached) {
    ASSERT_GT(before.misses, 0u);
  }

  eval.ExtendPrefix(5000);
  EXPECT_EQ(eval.num_rows(), 5000u);

  RuleEvaluator fresh(rel, 5000);
  const std::vector<Bitset> extended = EvalBatch(eval, singles);
  const std::vector<Bitset> rebuilt = EvalBatch(fresh, singles);
  for (size_t k = 0; k < singles.size(); ++k) {
    ASSERT_EQ(extended[k].size(), 5000u);
    EXPECT_EQ(extended[k], rebuilt[k]) << singles[k].ToString(schema);
  }
  // The extension kept the cache: each post-extend retrieval was a hit that
  // completed the stale entry over the new rows, not a re-extraction.
  if (!cached) return;  // RUDOLF_INDEX=0: no cache to count
  ConditionCacheStats after = eval.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
}

// Lazy completion under concurrency: every condition of several random
// rules is cached at one prefix, the prefix is extended twice (with some
// entries completed in between, so entries are one or two extensions
// stale), and the rules are then evaluated through EvalRules with one rule
// repeated, so one batch finds the same stale key several times. The
// prefixes exceed 65,536 rows, so at 4 and 8 threads the batch completes
// its keys on several workers. Every capture must equal a fresh build's and
// the scan's, no completion may count as a miss, and each key must be
// extracted once and completed once (`index.cache.stale_extends`), at every
// thread count.
TEST(ConditionIndexExtend, StaleEntriesCompleteOnConcurrentHits) {
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  Scenario s = TinyScenario();
  s.options.num_transactions = 80000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const Schema& schema = rel.schema();
  Rng rng(34);

  // Random rules plus one single-condition rule per condition they use, so
  // a wrong condition bitmap cannot hide behind a conjunction.
  RuleSet rules;
  std::unordered_set<ConditionKey, ConditionKeyHash> keys;
  for (int k = 0; k < 6; ++k) {
    Rule rule = RandomRule(schema, &rng);
    rules.AddRule(rule);
    for (size_t i = 0; i < schema.arity(); ++i) {
      if (rule.condition(i).IsTrivial(schema.attribute(i))) continue;
      Rule single = Rule::Trivial(schema);
      single.set_condition(i, rule.condition(i));
      rules.AddRule(single);
      keys.insert(ConditionKey::For(i, rule.condition(i)));
    }
  }
  const std::vector<RuleId> ids = rules.LiveIds();
  ASSERT_GE(ids.size(), 8u);
  ASSERT_GT(rules.Get(ids[0]).NumNonTrivial(schema), 1u);
  std::vector<RuleId> repeated = ids;
  repeated.insert(repeated.end(), 6, ids[0]);
  const size_t final_prefix = 78000;

  RuleEvaluator scan(rel, final_prefix, EvalOptions{1, false});
  RuleEvaluator fresh(rel, final_prefix, EvalOptions{1, true});
  const std::vector<Bitset> expected = scan.EvalRules(rules, repeated);
  ASSERT_EQ(fresh.EvalRules(rules, repeated), expected);

  for (int threads : {1, 4, 8}) {
    RuleEvaluator eval(rel, 66000, EvalOptions{threads, true});
    eval.EvalRules(rules, ids);
    const ConditionCacheStats warm = eval.cache_stats();
    // One batch looks each key up once, however many rules share it.
    ASSERT_EQ(warm.misses, keys.size()) << threads << " threads";
    eval.ExtendPrefix(72000);
    // Complete the first half of the rules' entries at 72000 only.
    eval.EvalRules(rules, std::vector<RuleId>(ids.begin(),
                                              ids.begin() + ids.size() / 2));
    eval.ExtendPrefix(final_prefix);

    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Default().Snapshot();
    const std::vector<Bitset> got = eval.EvalRules(rules, repeated);
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], expected[k]) << threads << " threads, rule "
                                     << rules.Get(repeated[k]).ToString(schema);
    }
    const ConditionCacheStats after = eval.cache_stats();
    EXPECT_EQ(after.misses, warm.misses) << threads << " threads";
    EXPECT_EQ(after.evictions, 0u) << threads << " threads";
    const obs::CounterSample* stale =
        delta.FindCounter("index.cache.stale_extends");
    ASSERT_NE(stale, nullptr) << threads << " threads";
    // Every key was stale once, and is completed once.
    EXPECT_EQ(stale->value, keys.size()) << threads << " threads";
  }
}

// The batch lookup is one serial pass at every thread count. A fixed
// sequence of candidate batches runs over prefixes of more than 65,536 rows
// (so at 4 and 8 threads the extractions, completions and intersections fan
// out), with two ExtendPrefix calls between batches so that cached entries
// go stale and are completed. The candidates draw their conditions from
// small per-attribute pools, so the rules of one batch share keys, and from
// large ones, so the 256-entry cache evicts. After every batch the cache's
// hits, misses and evictions and `index.cache.stale_extends` must be
// identical at 1, 4 and 8 threads; each distinct key of a batch is looked up
// once and extracted at most once; and every capture equals the scan's.
TEST(ConditionIndexExtend, BatchLookupIsThreadCountDeterministic) {
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  Scenario s = TinyScenario();
  s.options.num_transactions = 72000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const Schema& schema = rel.schema();
  Rng rng(36);

  std::vector<std::vector<Condition>> pools(schema.arity());
  for (size_t attr = 0; attr < schema.arity(); ++attr) {
    const AttributeDef& def = schema.attribute(attr);
    const size_t size = attr % 2 == 0 ? 3 : 200;
    for (size_t k = 0; k < size; ++k) {
      Rule drawn = Rule::Trivial(schema);
      while (drawn.condition(attr).IsTrivial(def)) drawn = RandomRule(schema, &rng);
      pools[attr].push_back(drawn.condition(attr));
    }
  }
  const size_t kBatches = 24;
  std::vector<std::vector<Rule>> batches(kBatches);
  for (std::vector<Rule>& batch : batches) {
    for (int c = 0; c < 16; ++c) {
      Rule rule = Rule::Trivial(schema);
      for (size_t attr = 0; attr < schema.arity(); ++attr) {
        if (rng.Bernoulli(0.5)) continue;
        rule.set_condition(attr, pools[attr][static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(pools[attr].size()) - 1))]);
      }
      batch.push_back(rule);
    }
  }
  auto prefix_before = [](size_t b) {
    return b < 8 ? size_t{66000} : b < 16 ? size_t{69000} : size_t{72000};
  };

  // The captures every thread count must produce, from the scan.
  std::vector<std::vector<Bitset>> expected(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    RuleEvaluator scan(rel, prefix_before(b), EvalOptions{1, false});
    for (const Rule& rule : batches[b]) expected[b].push_back(scan.EvalRule(rule));
  }

  struct Step {
    ConditionCacheStats stats;
    uint64_t stale_extends = 0;
    bool operator==(const Step& o) const {
      return stats.hits == o.stats.hits && stats.misses == o.stats.misses &&
             stats.evictions == o.stats.evictions &&
             stale_extends == o.stale_extends;
    }
  };
  auto counter = [](const obs::MetricsSnapshot& snap, const char* name) {
    const obs::CounterSample* c = snap.FindCounter(name);
    return c == nullptr ? uint64_t{0} : c->value;
  };
  std::vector<std::vector<Step>> traces;
  for (int threads : {1, 4, 8}) {
    RuleEvaluator eval(rel, prefix_before(0), EvalOptions{threads, true});
    std::vector<Step> trace;
    uint64_t stale_extends = 0;
    uint64_t episodes = 0;
    for (size_t b = 0; b < kBatches; ++b) {
      eval.ExtendPrefix(prefix_before(b));
      std::unordered_set<ConditionKey, ConditionKeyHash> keys;
      std::vector<const Rule*> batch;
      for (const Rule& rule : batches[b]) {
        batch.push_back(&rule);
        for (size_t attr = 0; attr < schema.arity(); ++attr) {
          if (rule.condition(attr).IsTrivial(schema.attribute(attr))) continue;
          keys.insert(ConditionKey::For(attr, rule.condition(attr)));
        }
      }
      const ConditionCacheStats before = eval.cache_stats();
      const obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
      std::vector<Bitset> got(batch.size());
      eval.EvalRules(batch, [&got](size_t i, Bitset capture) {
        got[i] = std::move(capture);
      });
      const obs::MetricsSnapshot delta =
          obs::MetricsRegistry::Default().Snapshot().DeltaSince(snap);
      const ConditionCacheStats after = eval.cache_stats();
      ASSERT_EQ(got, expected[b]) << threads << " threads, batch " << b;
      EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
                keys.size())
          << threads << " threads, batch " << b;
      EXPECT_EQ(counter(delta, "index.extractions"), after.misses - before.misses)
          << threads << " threads, batch " << b;
      stale_extends += counter(delta, "index.cache.stale_extends");
      episodes += counter(delta, "scheduler.episodes");
      trace.push_back({after, stale_extends});
    }
    EXPECT_GT(trace.back().stats.evictions, 0u) << threads << " threads";
    EXPECT_GT(trace.back().stale_extends, 0u) << threads << " threads";
    // RUDOLF_THREADS overrides the requested count, so ask the evaluator.
    if (eval.num_threads() > 1) {
      EXPECT_GT(episodes, 0u) << threads << " threads";
    }
    traces.push_back(std::move(trace));
  }
  for (size_t t = 1; t < traces.size(); ++t) {
    ASSERT_EQ(traces[t].size(), traces[0].size());
    for (size_t b = 0; b < traces[t].size(); ++b) {
      EXPECT_TRUE(traces[t][b] == traces[0][b])
          << "configuration " << t << ", batch " << b << ": hits "
          << traces[t][b].stats.hits << " vs " << traces[0][b].stats.hits
          << ", misses " << traces[t][b].stats.misses << " vs "
          << traces[0][b].stats.misses << ", evictions "
          << traces[t][b].stats.evictions << " vs "
          << traces[0][b].stats.evictions << ", stale extends "
          << traces[t][b].stale_extends << " vs " << traces[0][b].stale_extends;
    }
  }
}

// The scan pass of one batch over more than one 65,536-row block. On a
// 79,123-row prefix, one batch looks up four keys on `time` and two on
// `location`: two `time` keys and one `location` key were cached at 65,499
// or 65,581 rows (off a 64-row word boundary on both sides of row 65,536),
// so their completions start inside the first block and inside the second,
// and three keys miss. Completions scan only the rows their entries are
// missing: a cell of each attribute below both cached sizes is rewritten
// after caching (which the append contract forbids, so that a completion
// that re-read it would show), and the stale keys must keep the bits of the
// original relation while the misses read the new cells. At 1, 4 and 8
// threads every capture must equal the scan's, and the cache's counters must
// equal the 1-thread run's; with more than one thread the pass fans out.
TEST(ConditionIndexExtend, BlockedScanPassMatchesScanAtEveryWidth) {
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  Scenario s = TinyScenario();
  s.options.num_transactions = 80000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& base = *ds.relation;
  const Schema& schema = base.schema();
  const size_t time = schema.IndexOf("time").ValueOrDie();
  const size_t location = schema.IndexOf("location").ValueOrDie();
  const Ontology& places = *schema.attribute(location).ontology;
  ConceptId region = places.top();
  for (ConceptId c = 1; c < places.size(); ++c) {
    if (!places.IsLeaf(c)) {
      region = c;
      break;
    }
  }
  ASSERT_NE(region, places.top());
  const size_t first_cached = 65536 - 37;
  const size_t second_cached = 65536 + 45;
  const size_t prefix = 79123;
  ASSERT_GT(base.NumRows(), prefix);

  auto single = [&](size_t attr, const Condition& cond) {
    Rule rule = Rule::Trivial(schema);
    rule.set_condition(attr, cond);
    return rule;
  };
  const Rule stale_a = single(time, Condition::MakeNumeric({0, 400}));
  const Rule stale_b = single(time, Condition::MakeNumeric({300, 900}));
  const Rule stale_c = single(location, Condition::MakeCategorical(region));
  const Rule miss_d = single(time, Condition::MakeNumeric({350, 1100}));
  const Rule miss_e = single(time, Condition::MakeNumeric({1200, 1439}));
  Rule both = miss_d;
  both.set_condition(location, Condition::MakeCategorical(places.Leaves()[0]));
  const std::vector<const Rule*> batch = {&stale_a, &miss_d, &stale_c,
                                          &stale_b, &miss_e, &both};
  const std::vector<bool> stale = {true, false, true, true, false, false};

  // The rewritten cells move into the stale keys' conditions, so that a
  // completion that re-read them would set a bit its entry does not hold:
  // a `time` outside both stale intervals moves into them, and a
  // `location` outside the region moves to a leaf inside it.
  size_t time_row = 0;
  while (!(1000 <= base.Get(time_row, time) && base.Get(time_row, time) <= 1100)) {
    ++time_row;
  }
  size_t place_row = 0;
  while (places.Contains(region, static_cast<ConceptId>(base.Get(place_row, location)))) {
    ++place_row;
  }
  ASSERT_LT(std::max(time_row, place_row), first_cached);
  auto rewrite = [&](Relation* rel) {
    rel->SetCell(time_row, time, 350);
    rel->SetCell(place_row, location, places.LeavesUnder(region)[0]);
  };
  Relation rewritten = base;
  rewrite(&rewritten);
  std::vector<Bitset> expected;
  {
    RuleEvaluator original(base, prefix, EvalOptions{1, false});
    RuleEvaluator changed(rewritten, prefix, EvalOptions{1, false});
    for (size_t i = 0; i < batch.size(); ++i) {
      expected.push_back(stale[i] ? original.EvalRule(*batch[i])
                                  : changed.EvalRule(*batch[i]));
    }
    // The rewrite shows in a stale key's capture.
    ASSERT_NE(expected[0], changed.EvalRule(*batch[0]));
  }

  struct Counts {
    ConditionCacheStats stats;
    uint64_t stale_extends = 0;
    uint64_t extractions = 0;
  };
  auto counter = [](const obs::MetricsSnapshot& snap, const char* name) {
    const obs::CounterSample* c = snap.FindCounter(name);
    return c == nullptr ? uint64_t{0} : c->value;
  };
  std::vector<Counts> runs;
  for (int threads : {1, 4, 8}) {
    Relation rel = base;
    RuleEvaluator eval(rel, first_cached, EvalOptions{threads, true});
    eval.EvalRules({&stale_a, &stale_c}, [](size_t, Bitset) {});
    eval.ExtendPrefix(second_cached);
    eval.EvalRules({&stale_b}, [](size_t, Bitset) {});
    eval.ExtendPrefix(prefix);
    rewrite(&rel);

    const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
    std::vector<Bitset> got(batch.size());
    eval.EvalRules(batch, [&got](size_t i, Bitset capture) {
      got[i] = std::move(capture);
    });
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(got[i], expected[i])
          << threads << " threads, rule " << batch[i]->ToString(schema);
    }
    runs.push_back({eval.cache_stats(),
                    counter(delta, "index.cache.stale_extends"),
                    counter(delta, "index.extractions")});
    EXPECT_EQ(runs.back().stale_extends, 3u) << threads << " threads";
    EXPECT_EQ(runs.back().extractions, 3u) << threads << " threads";
    // RUDOLF_THREADS overrides the requested count, so ask the evaluator.
    if (eval.num_threads() > 1) {
      EXPECT_GT(counter(delta, "scheduler.episodes"), 0u) << threads << " threads";
    }
  }
  for (size_t t = 1; t < runs.size(); ++t) {
    EXPECT_EQ(runs[t].stats.hits, runs[0].stats.hits) << "configuration " << t;
    EXPECT_EQ(runs[t].stats.misses, runs[0].stats.misses) << "configuration " << t;
    EXPECT_EQ(runs[t].stats.evictions, runs[0].stats.evictions)
        << "configuration " << t;
    EXPECT_EQ(runs[t].stale_extends, runs[0].stale_extends) << "configuration " << t;
    EXPECT_EQ(runs[t].extractions, runs[0].extractions) << "configuration " << t;
  }
}

// Range-boundary coverage for the delta pass: EvalRulesRange at lo = 0 and
// hi = relation size (plus empty ranges at both ends) must agree with the
// full indexed and scan EvalRule bitmaps restricted to the range — the
// interior-range cases below only exercise 0 < lo < hi < size.
TEST(EvalRulesRangeBoundaries, IndexedAndScanAgreeAtZeroAndRelationSize) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 5000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const size_t n = rel.NumRows();
  Rng rng(57);

  RuleSet rules;
  for (int i = 0; i < 5; ++i) rules.AddRule(RandomRule(rel.schema(), &rng));
  const std::vector<RuleId> ids = rules.LiveIds();

  RuleEvaluator scan(rel, n, EvalOptions{1, false});
  RuleEvaluator indexed(rel, n, EvalOptions{1, true});
  RuleEvaluator parallel_eval(rel, n, EvalOptions{4, true});

  // Full bitmaps from both whole-prefix paths (already gated equivalent).
  std::vector<Bitset> full_scan = scan.EvalRules(rules, ids);
  std::vector<Bitset> full_indexed = indexed.EvalRules(rules, ids);
  for (size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(full_scan[k], full_indexed[k]) << "rule " << ids[k];
  }

  const std::pair<size_t, size_t> ranges[] = {
      {0, n},         // the whole prefix through the range path
      {0, n / 3},     // lo at the 0 boundary
      {n / 3, n},     // hi at the relation-size boundary
      {0, 0},         // empty at the low edge
      {n, n},         // empty at the high edge
  };
  for (const RuleEvaluator* ev : {&scan, &indexed, &parallel_eval}) {
    for (const auto& [lo, hi] : ranges) {
      std::vector<Bitset> outs(ids.size(), Bitset(n));
      std::vector<Bitset*> out_ptrs;
      for (Bitset& b : outs) out_ptrs.push_back(&b);
      ev->EvalRulesRange(rules, ids, lo, hi, out_ptrs);
      for (size_t k = 0; k < ids.size(); ++k) {
        Bitset expected(n);
        expected.OrRange(full_scan[k], lo, hi);
        ASSERT_EQ(outs[k], expected)
            << "rule " << ids[k] << " range [" << lo << ", " << hi << ")";
      }
    }
  }
}

// Randomized interleavings of prefix growth, in-prefix relabels, and rule
// edits (made through each tracker and to the reference set alike, or made
// to the reference set behind the trackers' backs and then synced):
// incrementally maintained trackers (serial scan, serial indexed, 4- and
// 8-thread indexed) must stay bit-identical to a tracker freshly built
// after every operation, every Add must hand out the id the reference set
// does, and every kind of benefit delta must match a brute-force recount.
class ExtendEquivalence : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendEquivalence,
                         ::testing::Values(1, 2, 3, 4));

TEST_P(ExtendEquivalence, TrackerInterleavingsMatchFreshBuilds) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 6000;
  Dataset ds = GenerateDataset(s.options);
  Relation rel = *ds.relation;  // private copy: the test relabels rows
  const Schema& schema = rel.schema();
  Rng rng(GetParam() ^ 0xE57E);
  RevealLabels(&rel, 0, rel.NumRows(), 0.9, 0.08, 0.004, &rng);

  RuleSet rules;
  for (int i = 0; i < 4; ++i) rules.AddRule(RandomRule(schema, &rng));

  const EvalOptions kConfigs[] = {
      EvalOptions{1, false}, EvalOptions{1, true},
      EvalOptions{4, true}, EvalOptions{8, true}};
  size_t prefix = 1500;
  std::vector<std::unique_ptr<CaptureTracker>> trackers;
  for (const EvalOptions& eval : kConfigs) {
    trackers.push_back(
        std::make_unique<CaptureTracker>(rel, rules, prefix, eval));
  }

  // Captures to score, drawn from their own stream so the edit sequence
  // stays the same whatever the checks draw.
  Rng capture_rng(GetParam() ^ 0xDE17A);
  auto random_capture = [&] {
    Bitset capture(prefix);
    double density = capture_rng.UniformDouble(0.05, 0.6);
    for (size_t r = 0; r < prefix; ++r) {
      if (capture_rng.Bernoulli(density)) capture.Set(r);
    }
    return capture;
  };

  auto check_all = [&](const char* op) {
    CaptureTracker fresh(rel, rules, prefix, EvalOptions{1, false});
    // The deltas' reference: DeltaFromCounts of the visible-label counts of
    // the rule-set union before and after each hypothetical edit, counted
    // row by row from the relation.
    auto union_without = [&](RuleId skip) {
      Bitset out(prefix);
      for (RuleId id : rules.LiveIds()) {
        if (id != skip) out |= fresh.RuleCapture(id);
      }
      return out;
    };
    const Bitset all = union_without(kInvalidRule);
    const LabelCounts before = fresh.evaluator().CountsVisible(all);
    auto brute = [&](const Bitset& after) {
      return DeltaFromCounts(before, fresh.evaluator().CountsVisible(after));
    };
    // Every row added (reads the label of each uncovered row), and two
    // random captures (the partial last word included).
    const std::vector<Bitset> draws = {Bitset(prefix, true), random_capture(),
                                       random_capture()};
    std::vector<BenefitDelta> want_add;
    for (const Bitset& c : draws) want_add.push_back(brute(all | c));
    std::vector<RuleId> live = rules.LiveIds();
    std::vector<BenefitDelta> want_remove, want_replace, want_two;
    for (RuleId id : live) {
      Bitset others = union_without(id);
      want_remove.push_back(brute(others));
      want_replace.push_back(brute(others | draws[1]));
      want_two.push_back(brute(others | draws[1] | draws[2]));
    }
    // One split per live rule that captures a row: around a random captured
    // row, on a random attribute, with sides that narrow the rule's
    // condition there as RankSplits' do (numeric [lo, v-1] and [v+1, hi],
    // categorical the leaf cover that excludes the cell).
    struct Split {
      RuleId id;
      size_t attr;
      std::vector<Condition> sides;
      BenefitDelta want;
      std::vector<LabelCounts> want_counts;
    };
    std::vector<Split> splits;
    for (RuleId id : live) {
      std::vector<size_t> captured = fresh.RuleCapture(id).ToIndices();
      if (captured.empty()) continue;
      size_t row = captured[static_cast<size_t>(capture_rng.UniformInt(
          0, static_cast<int64_t>(captured.size()) - 1))];
      Split split{id,
                  static_cast<size_t>(capture_rng.UniformInt(
                      0, static_cast<int64_t>(schema.arity()) - 1)),
                  {}, {}, {}};
      const Rule& rule = rules.Get(id);
      const AttributeDef& def = schema.attribute(split.attr);
      const Condition& cond = rule.condition(split.attr);
      CellValue v = rel.Get(row, split.attr);
      if (def.kind == AttrKind::kNumeric) {
        const Interval& iv = cond.interval();
        if (iv.lo < v) {
          split.sides.push_back(Condition::MakeNumeric({iv.lo, v - 1}));
        }
        if (v < iv.hi) {
          split.sides.push_back(Condition::MakeNumeric({v + 1, iv.hi}));
        }
      } else {
        for (ConceptId c : def.ontology->GreedyLeafCover(
                 cond.concept_id(), static_cast<ConceptId>(v))) {
          split.sides.push_back(Condition::MakeCategorical(c));
        }
      }
      Bitset after = union_without(id);
      for (const Condition& side : split.sides) {
        Rule narrowed = rule;
        narrowed.set_condition(split.attr, side);
        Bitset capture = fresh.Eval(narrowed);
        split.want_counts.push_back(fresh.evaluator().CountsVisible(capture));
        after |= capture;
      }
      split.want = brute(after);
      splits.push_back(std::move(split));
    }
    for (size_t t = 0; t < trackers.size(); ++t) {
      const CaptureTracker& got = *trackers[t];
      ASSERT_EQ(got.prefix_rows(), fresh.prefix_rows()) << op << " cfg " << t;
      ASSERT_EQ(got.rules().ToString(schema), rules.ToString(schema))
          << op << " cfg " << t;
      for (RuleId id : rules.LiveIds()) {
        ASSERT_EQ(got.RuleCapture(id), fresh.RuleCapture(id))
            << op << " cfg " << t << " rule " << id;
      }
      for (size_t r = 0; r < prefix; ++r) {
        ASSERT_EQ(got.CoverCount(r), fresh.CoverCount(r))
            << op << " cfg " << t << " row " << r;
      }
      ASSERT_EQ(got.TotalCounts(), fresh.TotalCounts()) << op << " cfg " << t;
      ASSERT_EQ(got.UnionCapture(), fresh.UnionCapture()) << op << " cfg " << t;
      for (size_t d = 0; d < draws.size(); ++d) {
        ASSERT_EQ(got.DeltaForAdd(draws[d]), want_add[d])
            << op << " cfg " << t << " add draw " << d;
      }
      for (size_t k = 0; k < live.size(); ++k) {
        ASSERT_EQ(got.DeltaForReplace(live[k], Bitset(prefix)), want_remove[k])
            << op << " cfg " << t << " remove rule " << live[k];
        ASSERT_EQ(got.DeltaForReplace(live[k], draws[1]), want_replace[k])
            << op << " cfg " << t << " replace rule " << live[k];
        ASSERT_EQ(got.DeltaForReplace(live[k], draws[1] | draws[2]),
                  want_two[k])
            << op << " cfg " << t << " replace-by-two rule " << live[k];
      }
      for (const Split& split : splits) {
        std::vector<SplitScore> scores =
            got.DeltaForSplit(split.id, {AttributeSplit{split.attr, split.sides}});
        ASSERT_EQ(scores.size(), 1u);
        ASSERT_EQ(scores[0].delta, split.want)
            << op << " cfg " << t << " split rule " << split.id;
        ASSERT_EQ(scores[0].side_counts, split.want_counts)
            << op << " cfg " << t << " split rule " << split.id;
      }
    }
  };

  check_all("initial");
  for (int step = 0; step < 24; ++step) {
    switch (rng.UniformInt(0, 6)) {
      case 0:    // the stream advances
      case 1: {  // (twice as likely as each edit kind)
        prefix = std::min(prefix + static_cast<size_t>(rng.UniformInt(1, 500)),
                          rel.NumRows());
        for (auto& t : trackers) t->ExtendPrefix(prefix);
        check_all("extend");
        break;
      }
      case 2: {  // a row inside the prefix gets relabeled
        size_t row = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(prefix) - 1));
        Label old_label = rel.VisibleLabel(row);
        Label new_label = static_cast<Label>(rng.UniformInt(0, 2));
        rel.SetVisibleLabel(row, new_label);
        for (auto& t : trackers) {
          t->OnVisibleLabelChanged(row, old_label, new_label);
        }
        check_all("relabel");
        break;
      }
      case 3: {  // a rule is added
        Rule rule = RandomRule(schema, &rng);
        RuleId id = rules.AddRule(rule);
        for (auto& t : trackers) ASSERT_EQ(t->Add(rule), id);
        check_all("add");
        break;
      }
      case 4: {  // a rule is replaced (or removed, when several are live)
        std::vector<RuleId> live = rules.LiveIds();
        RuleId id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        if (live.size() > 1 && rng.Bernoulli(0.3)) {
          rules.RemoveRule(id);
          for (auto& t : trackers) t->Remove(id);
          check_all("remove");
        } else {
          Rule rule = RandomRule(schema, &rng);
          rules.Replace(id, rule);
          for (auto& t : trackers) t->Replace(id, rule);
          check_all("replace");
        }
        break;
      }
      case 5: {  // edits behind the trackers' backs, then one Sync
        std::vector<RuleId> live = rules.LiveIds();
        auto any_live = [&] {
          return live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        };
        rules.Replace(any_live(), RandomRule(schema, &rng));
        rules.AddRule(rules.Get(any_live()));  // a duplicate for simplify
        RuleId added = rules.AddRule(RandomRule(schema, &rng));
        // Either a rule the trackers never saw or one they track goes.
        rules.RemoveRule(rng.Bernoulli(0.5) ? added : any_live());
        EditLog log;
        SimplifyRuleSet(schema, &rules, &log);
        for (auto& t : trackers) t->Sync(rules);
        check_all("sync");
        break;
      }
      case 6: {  // an id used up behind the trackers' backs, then an add
        rules.RemoveRule(rules.AddRule(RandomRule(schema, &rng)));
        for (auto& t : trackers) t->Sync(rules);
        Rule rule = RandomRule(schema, &rng);
        RuleId id = rules.AddRule(rule);
        for (auto& t : trackers) ASSERT_EQ(t->Add(rule), id);
        check_all("sync, then add");
        break;
      }
    }
  }
}

// End-to-end: a persistent-tracker run of the full experiment protocol must
// be indistinguishable (rules, edit log, per-round records) from the
// rebuild-every-round run, while actually taking the extension fast path.
TEST(PersistentSession, MatchesRebuildModeEndToEnd) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 1500;
  Dataset persistent_ds = GenerateDataset(s.options);
  Dataset rebuild_ds = GenerateDataset(s.options);

  RunnerOptions base;
  base.rounds = 3;
  RunnerOptions persistent_opts = base;
  persistent_opts.session.persistent_tracker = true;
  RunnerOptions rebuild_opts = base;
  rebuild_opts.session.persistent_tracker = false;

  ExperimentRunner persistent_runner(&persistent_ds, persistent_opts);
  ExperimentRunner rebuild_runner(&rebuild_ds, rebuild_opts);
  RunResult a = persistent_runner.Run(Method::kRudolf);
  RunResult b = rebuild_runner.Run(Method::kRudolf);

  const Schema& schema = persistent_ds.relation->schema();
  EXPECT_EQ(a.final_rules.ToString(schema), b.final_rules.ToString(schema));
  EXPECT_EQ(a.log.size(), b.log.size());
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  size_t extends_a = 0, rebuilds_a = 0, rebuilds_b = 0;
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].cumulative_edits, b.rounds[i].cumulative_edits);
    EXPECT_EQ(a.rounds[i].cumulative_updates, b.rounds[i].cumulative_updates);
    EXPECT_EQ(a.rounds[i].rules, b.rounds[i].rules);
    extends_a += a.rounds[i].tracker_extends;
    rebuilds_a += a.rounds[i].tracker_rebuilds;
    rebuilds_b += b.rounds[i].tracker_rebuilds;
    EXPECT_EQ(b.rounds[i].tracker_extends, 0u);  // rebuild mode never extends
  }
  EXPECT_GT(extends_a, 0u);           // the fast path actually ran
  EXPECT_LT(rebuilds_a, rebuilds_b);  // and displaced from-scratch builds
  // Cache counters surface through SessionStats / RoundRecord (all zero
  // under RUDOLF_INDEX=0, where there is no cache).
  if (ResolveUseIndex(true)) {
    const RoundRecord& last = a.rounds.back();
    EXPECT_GT(last.cache.hits + last.cache.misses, 0u);
  }
}

// Two Refine calls, over the first 1200 and then all 2400 rows of a tiny
// dataset. `edit_before` and `edit_between` edit the rules before the first
// call and between the two, as a caller may.
struct TwoRefines {
  std::string rules;  // the final rules, as text
  EditLog log;
  std::vector<SessionStats> stats;
};

TwoRefines RunTwoRefines(bool persistent,
                         const std::function<void(RuleSet*)>& edit_before,
                         const std::function<void(RuleSet*)>& edit_between) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 2400;
  Dataset ds = GenerateDataset(s.options);
  Rng rng(11);
  RevealLabels(ds.relation.get(), 0, ds.relation->NumRows(), 0.9, 0.08, 0.004,
               &rng);
  RuleSet rules = SynthesizeInitialRules(ds);
  edit_before(&rules);
  auto expert = MakeDomainExpert(ds, 42);
  SessionOptions options;
  options.persistent_tracker = persistent;
  RefinementSession session(*ds.relation, options);
  TwoRefines out;
  out.stats.push_back(session.Refine(1200, &rules, expert.get(), &out.log));
  edit_between(&rules);
  out.stats.push_back(session.Refine(2400, &rules, expert.get(), &out.log));
  out.rules = rules.ToString(ds.relation->schema());
  return out;
}

void ExpectSameOutcome(const TwoRefines& a, const TwoRefines& b) {
  EXPECT_EQ(a.rules, b.rules);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (size_t i = 0; i < a.log.size(); ++i) {
    const Edit& x = a.log.edit(i);
    const Edit& y = b.log.edit(i);
    EXPECT_TRUE(x.kind == y.kind && x.source == y.source && x.rule == y.rule &&
                x.attribute == y.attribute && x.cost == y.cost &&
                x.group == y.group && x.note == y.note)
        << "edit " << i << ": " << x.note << " vs " << y.note;
  }
}

// The closing simplify pass edits the rules behind the tracker's back; the
// session syncs its held tracker instead of rebuilding it. The initial rules
// carry one duplicate, so the first Refine's simplify pass has work to do,
// and the second Refine must still only extend, with the rules and edit log
// of rebuild mode.
TEST(PersistentSession, SimplifyKeepsTheTracker) {
  auto duplicate_first = [](RuleSet* rules) {
    rules->AddRule(rules->Get(rules->LiveIds()[0]));
  };
  auto no_edit = [](RuleSet*) {};
  TwoRefines a = RunTwoRefines(true, duplicate_first, no_edit);
  TwoRefines b = RunTwoRefines(false, duplicate_first, no_edit);

  size_t simplify_edits = 0;
  for (size_t i = 0; i < a.stats[0].edits; ++i) {
    if (a.log.edit(i).note.rfind("simplify:", 0) == 0) ++simplify_edits;
  }
  EXPECT_GT(simplify_edits, 0u);
  EXPECT_EQ(a.stats[1].tracker_rebuilds, 0u);
  EXPECT_EQ(a.stats[1].tracker_extends, 1u);
  ExpectSameOutcome(a, b);
}

// A caller that adds a rule and removes it again between two Refine calls
// changes no live rule, but uses up an id. The held tracker must use it up
// too, so the rules the second Refine adds get the caller's ids.
TEST(PersistentSession, CallerUsedUpIdBetweenRefines) {
  auto no_edit = [](RuleSet*) {};
  auto add_and_remove = [](RuleSet* rules) {
    rules->RemoveRule(rules->AddRule(rules->Get(rules->LiveIds()[0])));
  };
  TwoRefines a = RunTwoRefines(true, no_edit, add_and_remove);
  TwoRefines b = RunTwoRefines(false, no_edit, add_and_remove);

  size_t adds = 0;  // rules the second Refine added through the tracker
  for (size_t i = a.stats[0].edits; i < a.log.size(); ++i) {
    EditKind kind = a.log.edit(i).kind;
    if (kind == EditKind::kAddRule || kind == EditKind::kSplitRule) ++adds;
  }
  EXPECT_GT(adds, 0u);
  EXPECT_EQ(a.stats[1].tracker_rebuilds, 0u);
  EXPECT_EQ(a.stats[1].tracker_extends, 1u);
  ExpectSameOutcome(a, b);
}

TEST(RelationCounts, VisibleCountsStayExactUnderRelabels) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 2000;
  Dataset ds = GenerateDataset(s.options);
  Relation rel = *ds.relation;
  Rng rng(41);
  RevealLabels(&rel, 0, rel.NumRows(), 0.8, 0.1, 0.01, &rng);

  auto check = [&] {
    for (Label label :
         {Label::kUnlabeled, Label::kFraud, Label::kLegitimate}) {
      size_t scanned = 0;
      std::vector<size_t> expected_rows;
      for (size_t r = 0; r < rel.NumRows(); ++r) {
        if (rel.VisibleLabel(r) == label) {
          ++scanned;
          expected_rows.push_back(r);
        }
      }
      ASSERT_EQ(rel.CountVisible(label), scanned);
      ASSERT_EQ(rel.RowsWithVisibleLabel(label), expected_rows);
    }
  };
  check();
  for (int i = 0; i < 500; ++i) {
    size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(rel.NumRows()) - 1));
    rel.SetVisibleLabel(row, static_cast<Label>(rng.UniformInt(0, 2)));
  }
  check();
}

}  // namespace
}  // namespace rudolf
