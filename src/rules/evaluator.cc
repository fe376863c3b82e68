#include "rules/evaluator.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/column_scan.h"
#include "util/string_util.h"

namespace rudolf {

bool ResolveUseIndex(bool requested) {
  // Read once per process, so an invalid value warns once, not once per
  // evaluator.
  static const std::optional<int64_t> env = IntFromEnv("RUDOLF_INDEX", 0, 1);
  return env.has_value() ? *env == 1 : requested;
}

RuleEvaluator::RuleEvaluator(const Relation& relation, size_t prefix_rows,
                             EvalOptions options)
    : relation_(relation),
      num_rows_(std::min(prefix_rows, relation.NumRows())),
      num_threads_(ResolveNumThreads(options.num_threads)),
      sched_(num_threads_ > 1 ? TaskScheduler::Shared(num_threads_) : nullptr),
      cache_(ResolveUseIndex(options.use_index)
                 ? std::make_unique<ConditionCache>()
                 : nullptr) {}

bool RuleEvaluator::FansOut() const {
  return sched_ != nullptr && Bitset::WordsFor(num_rows_) > kChunkWords &&
         !TaskScheduler::InRegionTagged(this);
}

void RuleEvaluator::ForEachUnit(
    size_t n, const std::function<void(size_t, size_t)>& body) const {
  if (FansOut()) {
    sched_->ParallelFor(0, n, 1, body, /*tag=*/this);
  } else {
    body(0, n);
  }
}

void RuleEvaluator::ExtendPrefix(size_t new_prefix) {
  new_prefix = std::min(new_prefix, relation_.NumRows());
  // A stale or racing caller (an epoch pinned between its prefix read and
  // this call) may ask for a prefix below the current one. Shrinking would
  // leave every cached bitmap and every capture longer than the prefix, so
  // reject it as a checked no-op instead of a release-stripped assert: the
  // evaluator already covers [0, new_prefix), and every answer stays
  // correct.
  if (new_prefix < num_rows_) {
    RUDOLF_COUNTER_INC("index.extend_to.rejected");
    return;
  }
  if (new_prefix == num_rows_) return;
  RUDOLF_SPAN("eval.extend_prefix");
  RUDOLF_COUNTER_INC("eval.extend_prefix");
  // Cached bitmaps stay as they are: each is completed on its next hit.
  num_rows_ = new_prefix;
}

void RuleEvaluator::EvalRuleRange(const Rule& rule, size_t lo, size_t hi,
                                  Bitset* out) const {
  const Schema& schema = relation_.schema();
  assert(rule.arity() == schema.arity());
  assert(out->size() == num_rows_);
  if (hi > num_rows_) hi = num_rows_;
  if (lo >= hi) return;
  std::vector<simd::ColumnPredicate> preds;
  for (size_t attr = 0; attr < rule.arity(); ++attr) {
    const Condition& cond = rule.condition(attr);
    if (!cond.IsTrivial(schema.attribute(attr))) {
      preds.push_back(Predicate(attr, cond));
    }
  }
  if (preds.empty()) {
    out->SetRange(lo, hi);
    return;
  }
  RUDOLF_COUNTER_INC("eval.rule.vectorized");
  simd::OrConjunctionMatches(preds, lo, hi, out);
}

void RuleEvaluator::EvalRulesRange(const RuleSet& rules,
                                   const std::vector<RuleId>& ids, size_t lo,
                                   size_t hi,
                                   const std::vector<Bitset*>& outs) const {
  assert(ids.size() == outs.size());
  RUDOLF_SPAN("eval.rules_range");
  RUDOLF_COUNTER_ADD("eval.rule.range_scans", ids.size());
  if (sched_ != nullptr && ids.size() > 1 &&
      !TaskScheduler::InRegionTagged(this)) {
    // Serially warm the concept-mask cache so the helpers' range scans only
    // read shared state (the range path never touches the condition cache).
    for (RuleId id : ids) EnsureMasks(rules.Get(id));
    sched_->ParallelFor(
        0, ids.size(), 1,
        [&](size_t a, size_t b) {
          for (size_t i = a; i < b; ++i) {
            EvalRuleRange(rules.Get(ids[i]), lo, hi, outs[i]);
          }
        },
        /*tag=*/this);
  } else {
    for (size_t i = 0; i < ids.size(); ++i) {
      EvalRuleRange(rules.Get(ids[i]), lo, hi, outs[i]);
    }
  }
}

const std::vector<uint8_t>& RuleEvaluator::ConceptMask(const Ontology* ontology,
                                                       ConceptId concept_id) const {
  auto it = mask_cache_.find({ontology, concept_id});
  if (it != mask_cache_.end()) return it->second;
  std::vector<uint8_t> mask(ontology->size(), 0);
  for (ConceptId c = 0; c < ontology->size(); ++c) {
    mask[c] = ontology->Contains(concept_id, c) ? 1 : 0;
  }
  return mask_cache_.emplace(std::make_pair(ontology, concept_id),
                             std::move(mask))
      .first->second;
}

void RuleEvaluator::EnsureMasks(const Rule& rule) const {
  const Schema& schema = relation_.schema();
  for (size_t i = 0; i < rule.arity(); ++i) {
    const Condition& cond = rule.condition(i);
    if (cond.IsTrivial(schema.attribute(i))) continue;
    if (cond.kind() != AttrKind::kCategorical) continue;
    const Ontology* ontology = schema.attribute(i).ontology.get();
    ontology->WarmCaches();
    ConceptMask(ontology, cond.concept_id());
  }
}

simd::ColumnPredicate RuleEvaluator::Predicate(size_t attr,
                                               const Condition& cond) const {
  simd::ColumnPredicate pred;
  pred.col = relation_.Column(attr).data();
  if (cond.kind() == AttrKind::kCategorical) {
    // The mask's bounds check is exactly IsValid: out-of-domain cells are
    // non-members.
    const std::vector<uint8_t>& mask = ConceptMask(
        relation_.schema().attribute(attr).ontology.get(), cond.concept_id());
    pred.member = mask.data();
    pred.domain = mask.size();
  } else {
    pred.lo = cond.interval().lo;
    pred.hi = cond.interval().hi;
  }
  return pred;
}

void RuleEvaluator::ForEachBlock(
    size_t lo, size_t hi,
    const std::function<void(size_t, size_t)>& body) const {
  if (lo >= hi) return;
  const size_t first = lo / kChunkRows;
  ForEachUnit((hi - 1) / kChunkRows - first + 1, [&](size_t a, size_t b) {
    for (size_t k = first + a; k < first + b; ++k) {
      body(std::max(lo, k * kChunkRows), std::min(hi, (k + 1) * kChunkRows));
    }
  });
}

void RuleEvaluator::EvalRuleSetRange(const RuleSet& rules, size_t lo,
                                     size_t hi, Bitset* out) const {
  const std::vector<RuleId> ids = rules.LiveIds();
  // Serially warm the mask cache so the blocks' scans only read it.
  if (FansOut()) {
    for (RuleId id : ids) EnsureMasks(rules.Get(id));
  }
  ForEachBlock(lo, std::min(hi, num_rows_), [&](size_t blo, size_t bhi) {
    for (RuleId id : ids) EvalRuleRange(rules.Get(id), blo, bhi, out);
  });
}

Bitset RuleEvaluator::EvalRuleScan(const Rule& rule) const {
  RUDOLF_COUNTER_INC("eval.rule.scan");
  if (FansOut()) EnsureMasks(rule);
  Bitset out(num_rows_);
  ForEachBlock(0, num_rows_, [&](size_t lo, size_t hi) {
    EvalRuleRange(rule, lo, hi, &out);
  });
  return out;
}

Bitset RuleEvaluator::EvalRule(const Rule& rule) const {
  assert(rule.arity() == relation_.schema().arity());
  RUDOLF_SPAN("eval.rule");
  if (cache_ == nullptr) return EvalRuleScan(rule);
  Bitset out;
  EvalRules({&rule}, [&out](size_t, Bitset capture) { out = std::move(capture); });
  return out;
}

void RuleEvaluator::EvalRules(
    const std::vector<const Rule*>& rules,
    const std::function<void(size_t, Bitset)>& consume) const {
  if (cache_ == nullptr) {
    // Serially warm the mask cache so the helpers' scans only read it.
    if (FansOut()) {
      for (const Rule* rule : rules) EnsureMasks(*rule);
    }
    ForEachUnit(rules.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) consume(i, EvalRuleScan(*rules[i]));
    });
    return;
  }
  // The cache is the coordinating thread's alone.
  assert(!TaskScheduler::InRegionTagged(this));
  // Every non-trivial condition of the batch, rule by rule: rule i's are
  // conds[first[i], first[i + 1]).
  const Schema& schema = relation_.schema();
  std::vector<ConditionRef> conds;
  std::vector<size_t> first = {0};
  for (const Rule* rule : rules) {
    assert(rule->arity() == schema.arity());
    EnsureMasks(*rule);
    for (size_t attr = 0; attr < rule->arity(); ++attr) {
      const Condition& cond = rule->condition(attr);
      if (!cond.IsTrivial(schema.attribute(attr))) {
        conds.push_back({attr, &cond});
      }
    }
    first.push_back(conds.size());
  }
  RUDOLF_COUNTER_ADD("eval.rule.indexed", rules.size());
  std::vector<std::shared_ptr<const Bitset>> bitmaps = ConditionBitmaps(conds);
  ForEachUnit(rules.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (first[i] == first[i + 1]) {
        consume(i, Bitset(num_rows_, true));
        continue;
      }
      Bitset out = *bitmaps[first[i]];
      for (size_t c = first[i] + 1; c < first[i + 1]; ++c) out &= *bitmaps[c];
      consume(i, std::move(out));
    }
  });
}

std::vector<std::shared_ptr<const Bitset>> RuleEvaluator::ConditionBitmaps(
    const std::vector<ConditionRef>& conds) const {
  // The distinct keys in first-use order, each looked up once: `bitmaps`
  // holds a fresh hit, or the stale entry (null on a miss) that the scan
  // pass below replaces.
  std::unordered_map<ConditionKey, size_t, ConditionKeyHash> slot_of;
  std::vector<size_t> slot(conds.size());
  std::vector<ConditionKey> keys;
  std::vector<const ConditionRef*> firsts;
  std::vector<std::shared_ptr<const Bitset>> bitmaps;
  std::vector<size_t> missing;
  for (size_t i = 0; i < conds.size(); ++i) {
    const ConditionKey key = ConditionKey::For(conds[i].attr, *conds[i].cond);
    auto [it, added] = slot_of.try_emplace(key, keys.size());
    slot[i] = it->second;
    if (!added) continue;
    keys.push_back(key);
    firsts.push_back(&conds[i]);
    std::shared_ptr<const Bitset> hit = cache_->Get(key);
    assert(hit == nullptr || hit->size() <= num_rows_);
    if (hit == nullptr || hit->size() < num_rows_) {
      missing.push_back(it->second);
    }
    bitmaps.push_back(std::move(hit));
  }
  // One missing or stale key: its condition's scan over rows
  // [start, num_rows_), ORed into `out`.
  struct Scan {
    size_t attr = 0;
    size_t start = 0;
    simd::ColumnPredicate pred;
    Bitset* out = nullptr;
  };
  // Each missing or stale key's bitmap is allocated here, at its final size
  // (a copy grown by Resize could keep spare vector capacity alive in the
  // cache). A stale entry's bits are copied, which leaves readers of the old
  // entry their snapshot, and its scan starts where they end.
  std::vector<Bitset> filled(missing.size());
  std::vector<Scan> scans(missing.size());
  size_t lo = num_rows_;
  for (size_t m = 0; m < missing.size(); ++m) {
    const std::shared_ptr<const Bitset>& stale = bitmaps[missing[m]];
    const ConditionRef& ref = *firsts[missing[m]];
    Scan& scan = scans[m];
    filled[m] = Bitset(num_rows_);
    if (stale != nullptr) {
      RUDOLF_COUNTER_INC("index.cache.stale_extends");
      filled[m].OrZeroExtended(*stale);
      scan.start = stale->size();
    } else {
      RUDOLF_COUNTER_INC("index.extractions");
    }
    scan.attr = ref.attr;
    scan.pred = Predicate(ref.attr, *ref.cond);
    scan.out = &filled[m];
    lo = std::min(lo, scan.start);
  }
  // One pass over the rows any scan needs. Each block walks its rows strip
  // by strip, and every scan of the batch reads the strip in turn, grouped
  // by attribute so that one column strip serves all of its keys. Blocks
  // write disjoint words of each bitmap.
  std::stable_sort(scans.begin(), scans.end(),
                   [](const Scan& a, const Scan& b) { return a.attr < b.attr; });
  if (lo < num_rows_) {
    RUDOLF_SPAN("index.scan");
    ForEachBlock(lo, num_rows_, [&](size_t blo, size_t bhi) {
      for (size_t slo = blo; slo < bhi;) {
        const size_t shi =
            std::min(bhi, (slo / simd::kStripRows + 1) * simd::kStripRows);
        for (const Scan& scan : scans) {
          const size_t from = std::max(slo, scan.start);
          if (from < shi) {
            simd::OrConjunctionMatches({&scan.pred, 1}, from, shi, scan.out);
          }
        }
        slo = shi;
      }
    });
  }
  for (size_t m = 0; m < missing.size(); ++m) {
    const size_t k = missing[m];
    bitmaps[k] = std::make_shared<const Bitset>(std::move(filled[m]));
    cache_->Put(keys[k], bitmaps[k]);
  }
  std::vector<std::shared_ptr<const Bitset>> out(conds.size());
  for (size_t i = 0; i < conds.size(); ++i) out[i] = bitmaps[slot[i]];
  return out;
}

std::vector<Bitset> RuleEvaluator::EvalRules(const RuleSet& rules,
                                             const std::vector<RuleId>& ids) const {
  std::vector<const Rule*> batch;
  batch.reserve(ids.size());
  for (RuleId id : ids) batch.push_back(&rules.Get(id));
  std::vector<Bitset> bitmaps(ids.size());
  EvalRules(batch, [&bitmaps](size_t i, Bitset capture) {
    bitmaps[i] = std::move(capture);
  });
  return bitmaps;
}

Bitset RuleEvaluator::EvalRuleSet(const RuleSet& rules) const {
  RUDOLF_SPAN("eval.rule_set");
  Bitset out(num_rows_);
  if (cache_ == nullptr) {
    EvalRuleSetRange(rules, 0, num_rows_, &out);
    return out;
  }
  const std::vector<Bitset> bitmaps = EvalRules(rules, rules.LiveIds());
  // Every block ORs all bitmaps into its own words of `out`; bitwise OR
  // commutes, so the union does not depend on the partition.
  ForEachBlock(0, num_rows_, [&](size_t lo, size_t hi) {
    for (const Bitset& b : bitmaps) out.OrRange(b, lo, hi);
  });
  return out;
}

namespace {

LabelCounts CountLabels(const Bitset& captured, const Relation& relation,
                        bool visible) {
  LabelCounts counts;
  captured.ForEach([&](size_t row) {
    Label l = visible ? relation.VisibleLabel(row) : relation.TrueLabel(row);
    switch (l) {
      case Label::kFraud:
        ++counts.fraud;
        break;
      case Label::kLegitimate:
        ++counts.legitimate;
        break;
      case Label::kUnlabeled:
        ++counts.unlabeled;
        break;
    }
  });
  return counts;
}

}  // namespace

LabelCounts RuleEvaluator::CountsVisible(const Bitset& captured) const {
  return CountLabels(captured, relation_, /*visible=*/true);
}

LabelCounts RuleEvaluator::CountsTrue(const Bitset& captured) const {
  return CountLabels(captured, relation_, /*visible=*/false);
}

LabelCounts RuleEvaluator::RuleCountsVisible(const Rule& rule) const {
  return CountsVisible(EvalRule(rule));
}

ConditionCacheStats RuleEvaluator::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ConditionCacheStats{};
}

size_t RuleEvaluator::ApproxMemoryBytes() const {
  size_t bytes = 0;
  if (cache_ != nullptr) bytes += cache_->ApproxMemoryBytes();
  for (const auto& entry : mask_cache_) bytes += entry.second.capacity();
  return bytes;
}

void RuleEvaluator::ReleaseCachedBitmaps() {
  if (cache_ != nullptr) cache_->Clear();
}

}  // namespace rudolf
