#include "core/capture_tracker.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace rudolf {

CaptureTracker::CaptureTracker(const Relation& relation, const RuleSet& rules,
                               size_t prefix_rows, EvalOptions eval)
    : relation_(relation),
      evaluator_(relation, prefix_rows, eval),
      rules_(rules) {
  RUDOLF_TIMED_SCOPE("tracker.build");
  RUDOLF_COUNTER_INC("tracker.builds");
  const size_t prefix = evaluator_.num_rows();
  cover_count_.assign(prefix, 0);
  covered_ = Bitset(prefix);
  once_ = Bitset(prefix);
  fraud_ = Bitset(prefix);
  legit_ = Bitset(prefix);
  for (size_t row = 0; row < prefix; ++row) {
    SetLabel(row, relation_.VisibleLabel(row));
  }
  std::vector<RuleId> ids = rules.LiveIds();
  // Bitmap evaluation fans out across rules; the cover-count accumulation
  // stays serial (it is a cheap pass and rules would contend on the array).
  std::vector<Bitset> bitmaps = evaluator_.EvalRules(rules, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    bitmaps[i].ForEach([this](size_t row) { RaiseCover(row); });
    captures_.emplace(ids[i], std::move(bitmaps[i]));
  }
}

void CaptureTracker::SetLabel(size_t row, Label label) {
  if (label == Label::kFraud) {
    fraud_.Set(row);
  } else {
    fraud_.Clear(row);
  }
  if (label == Label::kLegitimate) {
    legit_.Set(row);
  } else {
    legit_.Clear(row);
  }
}

size_t LabelCounts::*CaptureTracker::LabelField(size_t row) const {
  if (fraud_.Test(row)) return &LabelCounts::fraud;
  if (legit_.Test(row)) return &LabelCounts::legitimate;
  return &LabelCounts::unlabeled;
}

void CaptureTracker::AdjustTotals(size_t row, int direction) {
  // +1 or (wrapping) -1
  total_counts_.*LabelField(row) += static_cast<size_t>(direction);
}

void CaptureTracker::RaiseCover(size_t row) {
  switch (cover_count_[row]++) {
    case 0:
      covered_.Set(row);
      once_.Set(row);
      AdjustTotals(row, +1);
      break;
    case 1:
      once_.Clear(row);
      break;
  }
}

void CaptureTracker::LowerCover(size_t row) {
  switch (--cover_count_[row]) {
    case 0:
      covered_.Clear(row);
      once_.Clear(row);
      AdjustTotals(row, -1);
      break;
    case 1:
      once_.Set(row);
      break;
  }
}

void CaptureTracker::ExtendPrefix(size_t new_prefix) {
  RUDOLF_TIMED_SCOPE("tracker.extend");
  RUDOLF_COUNTER_INC("tracker.extends");
  const size_t old_prefix = prefix_rows();
  // A backwards request is the evaluator's checked no-op, so the tracker
  // follows only a prefix that moved forward.
  evaluator_.ExtendPrefix(new_prefix);
  const size_t prefix = prefix_rows();
  if (prefix == old_prefix) return;
  cover_count_.resize(prefix, 0);
  for (Bitset* plane : {&covered_, &once_, &fraud_, &legit_}) {
    plane->Resize(prefix);
  }
  for (size_t row = old_prefix; row < prefix; ++row) {
    SetLabel(row, relation_.VisibleLabel(row));
  }
  std::vector<RuleId> ids = rules_.LiveIds();
  std::vector<Bitset*> outs;
  outs.reserve(ids.size());
  for (RuleId id : ids) {
    auto it = captures_.find(id);
    assert(it != captures_.end());
    it->second.Resize(prefix);
    outs.push_back(&it->second);
  }
  // Each rule scans only the new row range, in parallel across rules; the
  // cover/label-count accumulation walks just the new bits, serially.
  evaluator_.EvalRulesRange(rules_, ids, old_prefix, prefix, outs);
  for (Bitset* capture : outs) {
    capture->ForEachInRange(old_prefix, prefix,
                            [this](size_t row) { RaiseCover(row); });
  }
}

void CaptureTracker::Sync(const RuleSet& rules) {
  std::vector<RuleId> stale;  // new, or changed since the copy
  for (RuleId id : rules.LiveIds()) {
    if (!rules_.IsLive(id) || !(rules_.Get(id) == rules.Get(id))) {
      stale.push_back(id);
    }
  }
  for (RuleId id : rules_.LiveIds()) {
    if (!rules.IsLive(id)) Remove(id);
  }
  // Copied even when no live rule changed: ids the caller used up since
  // (added, then removed again) must be used up here too, or the next Add
  // would hand out an id the caller's set already spent.
  rules_ = rules;
  if (stale.empty()) return;
  std::vector<Bitset> bitmaps = evaluator_.EvalRules(rules, stale);
  for (size_t i = 0; i < stale.size(); ++i) {
    SetCapture(stale[i], std::move(bitmaps[i]));
  }
}

void CaptureTracker::OnVisibleLabelChanged(size_t row, Label old_label,
                                           Label new_label) {
  if (row >= prefix_rows() || old_label == new_label) return;
  // The planes follow every row of the prefix, covered or not: a delta that
  // would cover an uncovered row reads its label here.
  bool covered = cover_count_[row] > 0;
  if (covered) AdjustTotals(row, -1);
  SetLabel(row, new_label);
  if (covered) AdjustTotals(row, +1);
}

const Bitset& CaptureTracker::RuleCapture(RuleId id) const {
  auto it = captures_.find(id);
  assert(it != captures_.end());
  return it->second;
}

Bitset CaptureTracker::Eval(const Rule& rule) const {
  return evaluator_.EvalRule(rule);
}

BenefitDelta CaptureTracker::DeltaBetween(const Bitset& old_capture,
                                          const Bitset& new_capture) const {
  assert(old_capture.size() == prefix_rows() &&
         new_capture.size() == prefix_rows());
  simd::CoverDeltaCounts c = simd::CountCoverDelta(
      old_capture.Words(), new_capture.Words(),
      {covered_.Words(), once_.Words(), fraud_.Words(), legit_.Words()},
      covered_.WordCount());
  // ΔF counts the *increase* in captured fraud; ΔL and ΔR the *decrease*
  // in captured legitimate and unlabeled rows.
  BenefitDelta delta;
  delta.fraud = static_cast<int64_t>(c.gained.fraud) -
                static_cast<int64_t>(c.lost.fraud);
  delta.legit = static_cast<int64_t>(c.lost.legit) -
                static_cast<int64_t>(c.gained.legit);
  delta.unlabeled = static_cast<int64_t>(c.lost.unlabeled) -
                    static_cast<int64_t>(c.gained.unlabeled);
  return delta;
}

BenefitDelta CaptureTracker::DeltaForReplace(RuleId id,
                                             const Bitset& new_capture) const {
  return DeltaBetween(RuleCapture(id), new_capture);
}

std::vector<BenefitDelta> CaptureTracker::DeltaForReplace(
    const std::vector<RuleId>& ids,
    const std::vector<const Rule*>& rules) const {
  assert(ids.size() == rules.size());
  std::vector<BenefitDelta> deltas(ids.size());
  evaluator_.EvalRules(rules, [&](size_t i, Bitset capture) {
    deltas[i] = DeltaForReplace(ids[i], capture);
  });
  return deltas;
}

BenefitDelta CaptureTracker::DeltaForAdd(const Bitset& capture) const {
  Bitset empty(prefix_rows());
  return DeltaBetween(empty, capture);
}

std::vector<SplitScore> CaptureTracker::DeltaForSplit(
    RuleId id, const std::vector<AttributeSplit>& splits) const {
  const Schema& schema = relation_.schema();
  // Split s counts its sides' copies in counters [first[s], first[s + 1] -
  // 1) of a chunk, and the rows it loses in counter first[s + 1] - 1.
  std::vector<size_t> first = {0};
  std::vector<const AttributeDef*> defs;
  std::vector<const CellValue*> columns;
  for (const AttributeSplit& split : splits) {
    const AttributeDef& def = schema.attribute(split.attr);
    assert(std::all_of(
        split.sides.begin(), split.sides.end(), [&](const Condition& side) {
          return rules_.Get(id).condition(split.attr).ContainsCondition(def,
                                                                        side);
        }));
    // Matches reads a categorical side's ontology through Contains, which
    // the chunks below may call from several threads.
    if (def.kind == AttrKind::kCategorical) def.ontology->WarmCaches();
    defs.push_back(&def);
    columns.push_back(relation_.Column(split.attr).data());
    first.push_back(first.back() + split.sides.size() + 1);
  }
  const size_t width = first.back();
  const Bitset& capture = RuleCapture(id);
  const size_t chunk_rows = RuleEvaluator::kChunkRows;
  const size_t chunks = (prefix_rows() + chunk_rows - 1) / chunk_rows;
  std::vector<LabelCounts> partial(chunks * width);
  evaluator_.ForEachUnit(chunks, [&](size_t lo, size_t hi) {
    for (size_t chunk = lo; chunk < hi; ++chunk) {
      LabelCounts* counts = partial.data() + chunk * width;
      capture.ForEachInRange(
          chunk * chunk_rows, (chunk + 1) * chunk_rows, [&](size_t row) {
            size_t LabelCounts::*label = LabelField(row);
            const bool once = once_.Test(row);
            for (size_t s = 0; s < splits.size(); ++s) {
              const std::vector<Condition>& sides = splits[s].sides;
              const CellValue cell = columns[s][row];
              bool kept = false;
              for (size_t k = 0; k < sides.size(); ++k) {
                if (sides[k].Matches(*defs[s], cell)) {
                  ++(counts[first[s] + k].*label);
                  kept = true;
                }
              }
              if (!kept && once) ++(counts[first[s + 1] - 1].*label);
            }
          });
    }
  });
  std::vector<LabelCounts> total(width);
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    for (size_t j = 0; j < width; ++j) total[j] += partial[chunk * width + j];
  }
  // Every side keeps a subset of the rule's capture, so a split covers no
  // new row: ΔF <= 0 and ΔL, ΔR >= 0.
  std::vector<SplitScore> scores(splits.size());
  for (size_t s = 0; s < splits.size(); ++s) {
    const LabelCounts& lost = total[first[s + 1] - 1];
    scores[s].delta.fraud = -static_cast<int64_t>(lost.fraud);
    scores[s].delta.legit = static_cast<int64_t>(lost.legitimate);
    scores[s].delta.unlabeled = static_cast<int64_t>(lost.unlabeled);
    scores[s].side_counts.assign(total.begin() + first[s],
                                 total.begin() + first[s + 1] - 1);
  }
  return scores;
}

void CaptureTracker::SetCapture(RuleId id, Bitset capture) {
  auto [it, added] = captures_.try_emplace(id);
  if (!added) it->second.ForEach([this](size_t row) { LowerCover(row); });
  capture.ForEach([this](size_t row) { RaiseCover(row); });
  it->second = std::move(capture);
}

RuleId CaptureTracker::Add(Rule rule) {
  Bitset capture = Eval(rule);
  RuleId id = rules_.AddRule(std::move(rule));
  SetCapture(id, std::move(capture));
  return id;
}

void CaptureTracker::Replace(RuleId id, Rule rule) {
  assert(captures_.count(id) == 1);
  Bitset capture = Eval(rule);
  rules_.Replace(id, std::move(rule));
  SetCapture(id, std::move(capture));
}

void CaptureTracker::Remove(RuleId id) {
  rules_.RemoveRule(id);
  auto it = captures_.find(id);
  assert(it != captures_.end());
  it->second.ForEach([this](size_t row) { LowerCover(row); });
  captures_.erase(it);
}

size_t CaptureTracker::ApproxMemoryBytes() const {
  size_t bytes = evaluator_.ApproxMemoryBytes();
  bytes += cover_count_.capacity() * sizeof(uint32_t);
  for (const Bitset* plane : {&covered_, &once_, &fraud_, &legit_}) {
    bytes += plane->WordCount() * sizeof(uint64_t);
  }
  for (const auto& entry : captures_) {
    bytes += sizeof(RuleId) + entry.second.WordCount() * sizeof(uint64_t);
  }
  return bytes;
}

void CaptureTracker::ReleaseCachedBitmaps() {
  evaluator_.ReleaseCachedBitmaps();
}

}  // namespace rudolf
