#include "rules/evaluator.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
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
      index_(ResolveUseIndex(options.use_index)
                 ? std::make_unique<ConditionIndex>(relation, num_rows_)
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
  assert(new_prefix >= num_rows_);
  if (new_prefix == num_rows_) return;
  RUDOLF_SPAN("eval.extend_prefix");
  RUDOLF_COUNTER_INC("eval.extend_prefix");
  num_rows_ = new_prefix;
  if (index_ != nullptr) index_->ExtendTo(new_prefix);
}

void RuleEvaluator::EvalRuleRange(const Rule& rule, size_t lo, size_t hi,
                                  Bitset* out) const {
  assert(rule.arity() == relation_.schema().arity());
  assert(out->size() == num_rows_);
  if (hi > num_rows_) hi = num_rows_;
  if (lo >= hi) return;
  std::vector<size_t> conditions = NonTrivialConditions(rule);
  if (conditions.empty()) {
    out->SetRange(lo, hi);
    return;
  }
  EvalRuleBlock(rule, conditions, lo, hi, out);
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
    // read shared state (the range path never touches the condition index).
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
  for (const auto& entry : mask_cache_) {
    if (entry.first.first == ontology && entry.first.second == concept_id) {
      return entry.second;
    }
  }
  std::vector<uint8_t> mask(ontology->size(), 0);
  for (ConceptId c = 0; c < ontology->size(); ++c) {
    mask[c] = ontology->Contains(concept_id, c) ? 1 : 0;
  }
  mask_cache_.emplace_back(std::make_pair(ontology, concept_id), std::move(mask));
  return mask_cache_.back().second;
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

std::vector<size_t> RuleEvaluator::NonTrivialConditions(const Rule& rule) const {
  const Schema& schema = relation_.schema();
  std::vector<size_t> conditions;
  for (size_t i = 0; i < rule.arity(); ++i) {
    if (!rule.condition(i).IsTrivial(schema.attribute(i))) conditions.push_back(i);
  }
  return conditions;
}

namespace {

// Membership test matching the InSet kernel's semantics: out-of-domain
// values are non-members (AppendRow validates cells, so on well-formed data
// this is exactly mask[v]).
inline bool InMask(const std::vector<uint8_t>& mask, CellValue v) {
  return static_cast<uint64_t>(v) < mask.size() &&
         mask[static_cast<size_t>(v)] != 0;
}

}  // namespace

void RuleEvaluator::EvalRuleBlock(const Rule& rule,
                                  const std::vector<size_t>& conditions,
                                  size_t lo, size_t hi, Bitset* out) const {
  const Schema& schema = relation_.schema();
  RUDOLF_COUNTER_INC("eval.rule.vectorized");
  // Ragged head up to the first word boundary: per row. Parallel callers
  // partition on word-aligned boundaries, so this is empty on the hot path.
  size_t alo = std::min((lo + 63) & ~size_t{63}, hi);
  for (size_t r = lo; r < alo; ++r) {
    bool ok = true;
    for (size_t attr : conditions) {
      const Condition& cond = rule.condition(attr);
      CellValue v = relation_.Column(attr)[r];
      if (cond.kind() == AttrKind::kCategorical) {
        const std::vector<uint8_t>& mask = ConceptMask(
            schema.attribute(attr).ontology.get(), cond.concept_id());
        ok = InMask(mask, v);
      } else {
        ok = cond.interval().lo <= v && v <= cond.interval().hi;
      }
      if (!ok) break;
    }
    if (ok) out->Set(r);
  }
  if (alo >= hi) return;
  // Aligned body [alo, hi): one kernel pass per condition into word-packed
  // masks. The first mask seeds the accumulator, later ones AND into it;
  // kernels zero the tail bits of the last word, so the OR into `out` below
  // never sets a bit >= hi.
  size_t nbits = hi - alo;
  size_t nwords = Bitset::WordsFor(nbits);
  std::vector<uint64_t> acc(nwords);
  std::vector<uint64_t> mask_words(nwords);
  bool live = true;
  for (size_t c = 0; c < conditions.size() && live; ++c) {
    size_t attr = conditions[c];
    const Condition& cond = rule.condition(attr);
    const int64_t* col = relation_.Column(attr).data() + alo;
    uint64_t* dst = c == 0 ? acc.data() : mask_words.data();
    if (cond.kind() == AttrKind::kCategorical) {
      const std::vector<uint8_t>& mask =
          ConceptMask(schema.attribute(attr).ontology.get(), cond.concept_id());
      simd::InSetMaskI64(col, nbits, mask.data(), mask.size(), dst);
    } else {
      const Interval iv = cond.interval();
      simd::RangeMaskI64(col, nbits, iv.lo, iv.hi, dst);
    }
    if (c > 0) {
      uint64_t any = 0;
      for (size_t w = 0; w < nwords; ++w) {
        acc[w] &= mask_words[w];
        any |= acc[w];
      }
      live = any != 0;  // conjunction can only shrink: dead block, stop early
    }
  }
  out->OrWords(acc.data(), alo / 64, nwords);
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
  if (index_ == nullptr) return EvalRuleScan(rule);
  Bitset out;
  EvalRules({&rule}, [&out](size_t, Bitset capture) { out = std::move(capture); });
  return out;
}

void RuleEvaluator::EvalRules(
    const std::vector<const Rule*>& rules,
    const std::function<void(size_t, Bitset)>& consume) const {
  if (index_ == nullptr) {
    // Serially warm the mask cache so the helpers' scans only read it.
    if (FansOut()) {
      for (const Rule* rule : rules) EnsureMasks(*rule);
    }
    ForEachUnit(rules.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) consume(i, EvalRuleScan(*rules[i]));
    });
    return;
  }
  // The index and its cache are the coordinating thread's alone.
  assert(!TaskScheduler::InRegionTagged(this));
  // Every non-trivial condition of the batch, rule by rule: rule i's are
  // conds[first[i], first[i + 1]).
  std::vector<ConditionIndex::ConditionRef> conds;
  std::vector<size_t> first = {0};
  for (const Rule* rule : rules) {
    assert(rule->arity() == relation_.schema().arity());
    index_->EnsureForRule(*rule);
    for (size_t attr : NonTrivialConditions(*rule)) {
      conds.push_back({attr, rule->condition(attr)});
    }
    first.push_back(conds.size());
  }
  RUDOLF_COUNTER_ADD("eval.rule.indexed", rules.size());
  std::vector<std::shared_ptr<const Bitset>> bitmaps = index_->ConditionBitmaps(
      conds, [this](size_t lo, size_t hi,
                    const std::function<void(size_t, size_t)>& body) {
        ForEachBlock(lo, hi, body);
      });
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
  if (index_ == nullptr) {
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

size_t RuleEvaluator::ApproxMemoryBytes() const {
  size_t bytes = 0;
  if (index_ != nullptr) bytes += index_->ApproxMemoryBytes();
  for (const auto& entry : mask_cache_) bytes += entry.second.capacity();
  return bytes;
}

void RuleEvaluator::ReleaseCachedBitmaps() {
  if (index_ != nullptr) index_->ReleaseCachedBitmaps();
}

}  // namespace rudolf
