// The condition cache and the evaluator that owns it: a numeric condition's
// miss must be bit-identical to a naive scan for every interval (including
// sentinel-bounded, point, empty and strip-straddling cases), a categorical
// miss must equal the concept-mask scan for every concept, the LRU cache
// must evict and count correctly, and the evaluator must honour the
// invalidation contract.
//
// Under RUDOLF_INDEX=0 the evaluator has no cache: the tests about the
// cache itself skip, and the others check their bitmaps against the scan.

#include <gtest/gtest.h>

#include <memory>

#include "core/capture_tracker.h"
#include "index/condition_cache.h"
#include "obs/metrics.h"
#include "relation/builder.h"
#include "rules/evaluator.h"
#include "rules/parser.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/paper_example.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// Ground truth for a numeric condition's bitmap.
Bitset ScanInterval(const std::vector<CellValue>& column, size_t prefix,
                    const Interval& iv) {
  Bitset out(prefix);
  for (size_t r = 0; r < prefix; ++r) {
    if (iv.Contains(column[r])) out.Set(r);
  }
  return out;
}

// A relation whose one attribute is the numeric `column`.
Relation NumericRelation(const std::vector<CellValue>& column) {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema->AddNumeric("v").ok());
  Relation relation(schema);
  for (CellValue v : column) EXPECT_TRUE(relation.AppendRow(Tuple{v}).ok());
  return relation;
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

// The bitmap a fresh evaluator over the first `prefix` rows scans for `iv`.
Bitset MissBitmap(const Relation& relation, size_t prefix, const Interval& iv) {
  RuleEvaluator eval(relation, prefix);
  return eval.EvalRule(Single(relation.schema(), 0, Condition::MakeNumeric(iv)));
}

TEST(ConditionIndexNumeric, MatchesScanOnSmallColumn) {
  std::vector<CellValue> column = {5, 1, 9, 5, -3, 7, 5, 0};
  Relation relation = NumericRelation(column);
  for (const Interval& iv :
       {Interval{0, 6}, Interval{5, 5}, Interval{-10, -4}, Interval{9, 3},
        Interval::All(), Interval::AtLeast(6), Interval::AtMost(0)}) {
    EXPECT_EQ(MissBitmap(relation, column.size(), iv),
              ScanInterval(column, column.size(), iv))
        << "[" << iv.lo << "," << iv.hi << "]";
  }
}

TEST(ConditionIndexNumeric, MatchesScanAtDomainExtremes) {
  std::vector<CellValue> column = {kNegInf, kNegInf + 1, 0, kPosInf - 1, kPosInf};
  Relation relation = NumericRelation(column);
  for (const Interval& iv :
       {Interval::All(), Interval{kNegInf, kNegInf}, Interval{kPosInf, kPosInf},
        Interval{kNegInf, kNegInf + 1}, Interval{kPosInf - 1, kPosInf},
        Interval{kNegInf + 1, kPosInf - 1}}) {
    EXPECT_EQ(MissBitmap(relation, column.size(), iv),
              ScanInterval(column, column.size(), iv))
        << "[" << iv.lo << "," << iv.hi << "]";
  }
}

TEST(ConditionIndexNumeric, MatchesScanAcrossStripBoundaries) {
  // 20,000 rows cross many 1,024-row strips of the scan pass, with heavy
  // duplication so runs of equal values straddle strip boundaries.
  Rng rng(7);
  std::vector<CellValue> column;
  for (int i = 0; i < 20000; ++i) column.push_back(rng.UniformInt(0, 300));
  Relation relation = NumericRelation(column);
  for (int i = 0; i < 40; ++i) {
    int64_t a = rng.UniformInt(-10, 310);
    int64_t b = rng.UniformInt(-10, 310);
    Interval iv{std::min(a, b), std::max(a, b)};
    ASSERT_EQ(MissBitmap(relation, column.size(), iv),
              ScanInterval(column, column.size(), iv))
        << "[" << iv.lo << "," << iv.hi << "]";
  }
  // Point and empty intervals too.
  EXPECT_EQ(MissBitmap(relation, column.size(), Interval::Point(150)),
            ScanInterval(column, column.size(), Interval::Point(150)));
  EXPECT_EQ(MissBitmap(relation, column.size(), Interval{200, 100}).Count(), 0u);
}

TEST(ConditionIndexNumeric, RespectsPrefix) {
  std::vector<CellValue> column = {1, 2, 3, 4, 5, 6};
  Relation relation = NumericRelation(column);
  Bitset got = MissBitmap(relation, 4, Interval{2, 6});
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(got.ToIndices(), (std::vector<size_t>{1, 2, 3}));
}

// A categorical attribute has no postings of its own: the evaluator answers
// a miss on `A <= c` by scanning the column through the concept mask.
// Checked for every concept of every categorical attribute at every prefix
// of the paper example, the empty one included.
TEST(CategoricalAttributeIndex, MatchesConceptMaskScan) {
  PaperExample ex = MakePaperExample();
  const Schema& schema = *ex.schema;
  for (size_t prefix = 0; prefix <= ex.relation->NumRows(); ++prefix) {
    RuleEvaluator eval(*ex.relation, prefix);
    for (size_t attr = 0; attr < schema.arity(); ++attr) {
      const AttributeDef& def = schema.attribute(attr);
      if (def.kind != AttrKind::kCategorical) continue;
      const std::vector<CellValue>& column = ex.relation->Column(attr);
      for (ConceptId c = 0; c < def.ontology->size(); ++c) {
        Bitset expected(prefix);
        for (size_t r = 0; r < prefix; ++r) {
          if (def.ontology->Contains(c, static_cast<ConceptId>(column[r]))) {
            expected.Set(r);
          }
        }
        EXPECT_EQ(eval.EvalRule(Single(schema, attr, Condition::MakeCategorical(c))),
                  expected)
            << def.name << " <= " << def.ontology->NameOf(c) << " at prefix "
            << prefix;
      }
    }
  }
}

TEST(ConditionCache, HitsMissesAndLruEviction) {
  ConditionCache cache(2);
  auto key = [](int64_t lo) {
    return ConditionKey::For(0, Condition::MakeNumeric({lo, lo + 10}));
  };
  auto bitmap = [] { return std::make_shared<const Bitset>(8); };

  EXPECT_EQ(cache.Get(key(1)), nullptr);  // miss
  cache.Put(key(1), bitmap());
  cache.Put(key(2), bitmap());
  EXPECT_NE(cache.Get(key(1)), nullptr);  // hit; 1 is now most recent
  cache.Put(key(3), bitmap());            // evicts 2, the LRU entry
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Get(key(1)), nullptr);
  EXPECT_NE(cache.Get(key(3)), nullptr);
  EXPECT_EQ(cache.Get(key(2)), nullptr);

  ConditionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Eviction order under concurrent hits: threads hammer the "hot" half of a
// full cache with Get (and Put-refreshes, which must also count as use);
// afterwards insertions must evict exactly the untouched "cold" keys, in
// their original insertion order, before any hot key is considered. Misses
// must not perturb recency. Runs under the TSan preset to race-check the
// locked LRU splices.
TEST(ConditionCacheLru, EvictionOrderSurvivesConcurrentHits) {
  constexpr size_t kCapacity = 8;
  constexpr size_t kHot = 4;  // keys 0..3 hot, 4..7 cold
  ConditionCache cache(kCapacity);
  auto key = [](int64_t i) {
    return ConditionKey::For(0, Condition::MakeNumeric({i, i}));
  };
  auto bitmap = [] { return std::make_shared<const Bitset>(8); };

  for (size_t i = 0; i < kCapacity; ++i) {
    cache.Put(key(static_cast<int64_t>(i)), bitmap());
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 2000; ++iter) {
        int64_t k = (iter + t) % static_cast<int64_t>(kHot);
        if ((iter & 31) == 7) {
          cache.Put(key(k), bitmap());  // refresh via the duplicate-Put path
        } else {
          EXPECT_NE(cache.Get(key(k)), nullptr) << "hot key " << k;
        }
        // A miss probe must not perturb the recency order.
        EXPECT_EQ(cache.Get(key(1000 + k)), nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), kCapacity);

  // Every hot key was used after every cold key, so evictions must consume
  // the cold keys in insertion order (4, 5, 6, 7). Only probe keys expected
  // to be ABSENT between insertions — misses don't touch recency, whereas a
  // hit would promote the probed key and corrupt the order under test. Each
  // Put evicts exactly one entry, so "victim j gone right after Put j, for
  // all j" pins the full eviction sequence.
  size_t evictions_before = cache.stats().evictions;
  for (size_t i = 0; i < kCapacity - kHot; ++i) {
    cache.Put(key(100 + static_cast<int64_t>(i)), bitmap());
    for (size_t gone = 0; gone <= i; ++gone) {
      EXPECT_EQ(cache.Get(key(static_cast<int64_t>(kHot + gone))), nullptr)
          << "cold key " << (kHot + gone) << " evicted out of order";
    }
  }
  EXPECT_EQ(cache.stats().evictions, evictions_before + (kCapacity - kHot));
  for (size_t i = 0; i < kHot; ++i) {
    EXPECT_NE(cache.Get(key(static_cast<int64_t>(i))), nullptr)
        << "hot key " << i << " must survive all cold evictions";
  }
}

TEST(ConditionCache, KeysDistinguishAttributeKindAndBounds) {
  Condition iv = Condition::MakeNumeric({3, 7});
  EXPECT_NE(ConditionKeyHash{}(ConditionKey::For(0, iv)),
            ConditionKeyHash{}(ConditionKey::For(1, iv)));
  EXPECT_FALSE(ConditionKey::For(0, iv) ==
               ConditionKey::For(0, Condition::MakeNumeric({3, 8})));
  EXPECT_FALSE(ConditionKey::For(0, iv) ==
               ConditionKey::For(0, Condition::MakeCategorical(3)));
}

TEST(ConditionIndex, BitmapsMatchRuleSemantics) {
  PaperExample ex = MakePaperExample();
  RuleEvaluator eval(*ex.relation);
  Rule rule =
      ParseRule(*ex.schema, "amount >= 100 and type <= 'Offline'").ValueOrDie();

  // One batch of the rule's conditions, one rule each.
  const Schema& schema = *ex.schema;
  std::vector<Rule> singles;
  for (size_t i = 0; i < rule.arity(); ++i) {
    if (rule.condition(i).IsTrivial(schema.attribute(i))) continue;
    singles.push_back(Single(schema, i, rule.condition(i)));
  }
  Bitset captured(eval.num_rows(), true);
  for (const Bitset& bitmap : EvalBatch(eval, singles)) captured &= bitmap;
  for (size_t row = 0; row < ex.relation->NumRows(); ++row) {
    EXPECT_EQ(captured.Test(row), rule.MatchesRow(*ex.relation, row)) << row;
  }
}

TEST(ConditionIndex, CacheHitsOnRepeatedConditions) {
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  PaperExample ex = MakePaperExample();
  RuleEvaluator eval(*ex.relation);
  Rule rule = ParseRule(*ex.schema, "amount >= 100").ValueOrDie();
  const Rule single = Single(*ex.schema, 1, rule.condition(1));
  eval.EvalRule(single);
  eval.EvalRule(single);
  ConditionCacheStats stats = eval.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ConditionIndex, IndexedEvalHitsCacheOnRepeatedConditions) {
  // Evaluator-level: re-evaluating a rule through the cached path must be
  // served from the condition cache, and the registry's cache counters must
  // observe the same traffic.
  if (!ResolveUseIndex(true)) GTEST_SKIP() << "RUDOLF_INDEX=0 turns the cache off";
  PaperExample ex = MakePaperExample();
  RuleEvaluator eval(*ex.relation, ex.relation->NumRows(),
                     EvalOptions{1, /*use_index=*/true});
  Rule rule =
      ParseRule(*ex.schema, "amount >= 100 and type <= 'Offline'").ValueOrDie();

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  Bitset first = eval.EvalRule(rule);
  ConditionCacheStats after_first = eval.cache_stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GE(after_first.misses, 2u);  // one extraction per condition

  Bitset second = eval.EvalRule(rule);
  EXPECT_EQ(first.ToIndices(), second.ToIndices());
  ConditionCacheStats after_second = eval.cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses);  // no re-extraction
  EXPECT_GE(after_second.hits, 2u);

  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  const obs::CounterSample* hits = delta.FindCounter("index.cache.hits");
  const obs::CounterSample* misses = delta.FindCounter("index.cache.misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_GE(hits->value, after_second.hits);
  EXPECT_GE(misses->value, after_second.misses);
}

TEST(ConditionIndex, ExtendToRejectsNonMonotonicPrefix) {
  // The extend path must be monotone: a stale or racing caller asking for a
  // prefix at or below the current one is a no-op, never a shrink (which
  // would leave cached bitmaps and captures longer than the prefix) and
  // never an abort; a request strictly below it is counted. Checked on an
  // evaluator, through a trivial rule (all rows) and a conditioned one, and
  // on a capture tracker, whose prefix is its evaluator's.
  Scenario s = TinyScenario();
  s.options.num_transactions = 400;
  Dataset ds = GenerateDataset(s.options);
  const Schema& schema = *ds.cc.schema;
  size_t full = ds.relation->NumRows();
  size_t half = full / 2;

  RuleEvaluator eval(*ds.relation, half);
  const Rule rule = ParseRule(schema, "risk_score >= 300").ValueOrDie();
  const Rule trivial = Rule::Trivial(schema);
  const Bitset at_half = eval.EvalRule(rule);
  ASSERT_EQ(at_half.size(), half);
  ASSERT_GT(at_half.Count(), 0u);
  auto rejected = [](const obs::MetricsSnapshot& since) {
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Default().Snapshot().DeltaSince(since);
    const obs::CounterSample* c = delta.FindCounter("index.extend_to.rejected");
    return c == nullptr ? uint64_t{0} : c->value;
  };
  // After each call below the prefix, the binding and every capture are as
  // they were.
  auto expect_unchanged = [&](size_t prefix, const Bitset& conditioned,
                              const char* call) {
    EXPECT_EQ(eval.num_rows(), prefix) << call;
    EXPECT_EQ(eval.EvalRule(trivial), Bitset(prefix, true)) << call;
    EXPECT_EQ(eval.EvalRule(rule), conditioned) << call;
  };

  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  eval.ExtendPrefix(half);  // equal prefix: no-op, not an error, not counted
  expect_unchanged(half, at_half, "ExtendPrefix(half)");
  EXPECT_EQ(rejected(before), 0u);
  eval.ExtendPrefix(half - 1);  // backwards: rejected and counted
  expect_unchanged(half, at_half, "ExtendPrefix(half - 1)");
  EXPECT_EQ(rejected(before), 1u);
  eval.ExtendPrefix(0);  // degenerate backwards request
  expect_unchanged(half, at_half, "ExtendPrefix(0)");
  EXPECT_EQ(rejected(before), 2u);

  // The rejected calls must not have disturbed the binding: a forward
  // extension from here is bit-identical to a fresh evaluator over the full
  // prefix.
  eval.ExtendPrefix(full);
  EXPECT_EQ(eval.num_rows(), full);
  RuleEvaluator fresh(*ds.relation, full);
  const Bitset at_full = fresh.EvalRule(rule);
  EXPECT_EQ(eval.EvalRule(rule), at_full);

  // And a backwards request after the extension is rejected the same way.
  eval.ExtendPrefix(half);
  expect_unchanged(full, at_full, "ExtendPrefix(half) after ExtendPrefix(full)");
  EXPECT_EQ(rejected(before), 3u);

  // A tracker asked to move backwards keeps its prefix, planes and
  // captures.
  RuleSet rules;
  const RuleId conditioned = rules.AddRule(rule);
  const RuleId everything = rules.AddRule(trivial);
  CaptureTracker tracker(*ds.relation, rules, half);
  const obs::MetricsSnapshot tracked = obs::MetricsRegistry::Default().Snapshot();
  tracker.ExtendPrefix(half - 1);
  EXPECT_EQ(rejected(tracked), 1u);
  EXPECT_EQ(tracker.prefix_rows(), half);
  EXPECT_EQ(tracker.evaluator().num_rows(), half);
  EXPECT_EQ(tracker.RuleCapture(conditioned), at_half);
  EXPECT_EQ(tracker.RuleCapture(everything), Bitset(half, true));
  EXPECT_EQ(tracker.UnionCapture(), Bitset(half, true));
}

TEST(ConditionIndex, MatchesEvaluatorOnGeneratedData) {
  // Randomized rules over a generated dataset: the intersection of one
  // batch of the rules' single conditions must agree with the scan
  // evaluator everywhere.
  Scenario s = TinyScenario();
  s.options.num_transactions = 3000;
  Dataset ds = GenerateDataset(s.options);
  RuleEvaluator scan(*ds.relation, static_cast<size_t>(-1),
                     EvalOptions{1, /*use_index=*/false});
  RuleEvaluator indexed(*ds.relation);
  const Schema& schema = *ds.cc.schema;
  Rng rng(99);
  for (int i = 0; i < 25; ++i) {
    Rule rule = Rule::Trivial(schema);
    for (size_t a = 0; a < schema.arity(); ++a) {
      if (rng.Bernoulli(0.5)) continue;
      const AttributeDef& def = schema.attribute(a);
      if (def.kind == AttrKind::kNumeric) {
        int64_t lo = rng.UniformInt(0, 1200);
        rule.set_condition(a, Condition::MakeNumeric({lo, lo + rng.UniformInt(0, 400)}));
      } else {
        rule.set_condition(
            a, Condition::MakeCategorical(static_cast<ConceptId>(rng.UniformInt(
                   0, static_cast<int64_t>(def.ontology->size()) - 1))));
      }
    }
    Bitset expected = scan.EvalRule(rule);
    std::vector<Rule> singles;
    for (size_t a = 0; a < rule.arity(); ++a) {
      if (rule.condition(a).IsTrivial(schema.attribute(a))) continue;
      singles.push_back(Single(schema, a, rule.condition(a)));
    }
    Bitset got(indexed.num_rows(), true);
    for (const Bitset& bitmap : EvalBatch(indexed, singles)) got &= bitmap;
    ASSERT_EQ(got, expected) << rule.ToString(schema);
  }
}

}  // namespace
}  // namespace rudolf
