#include "core/capture_tracker.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace rudolf {

CaptureTracker::CaptureTracker(const Relation& relation, const RuleSet& rules,
                               size_t prefix_rows, EvalOptions eval)
    : relation_(relation),
      prefix_(std::min(prefix_rows, relation.NumRows())),
      evaluator_(relation, prefix_, eval),
      rules_(rules) {
  RUDOLF_TIMED_SCOPE("tracker.build");
  RUDOLF_COUNTER_INC("tracker.builds");
  cover_count_.assign(prefix_, 0);
  std::vector<RuleId> ids = rules.LiveIds();
  // Bitmap evaluation fans out across rules; the cover-count accumulation
  // stays serial (it is a cheap pass and rules would contend on the array).
  std::vector<Bitset> bitmaps = evaluator_.EvalRules(rules, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    bitmaps[i].ForEach([this](size_t row) { RaiseCover(row); });
    captures_.emplace(ids[i], std::move(bitmaps[i]));
  }
}

void CaptureTracker::AdjustTotals(size_t row, int direction) {
  size_t delta = static_cast<size_t>(direction);  // +1 or (wrapping) -1
  switch (relation_.VisibleLabel(row)) {
    case Label::kFraud:
      total_counts_.fraud += delta;
      break;
    case Label::kLegitimate:
      total_counts_.legitimate += delta;
      break;
    case Label::kUnlabeled:
      total_counts_.unlabeled += delta;
      break;
  }
}

void CaptureTracker::RaiseCover(size_t row) {
  if (cover_count_[row]++ == 0) AdjustTotals(row, +1);
}

void CaptureTracker::LowerCover(size_t row) {
  if (--cover_count_[row] == 0) AdjustTotals(row, -1);
}

void CaptureTracker::ExtendPrefix(size_t new_prefix) {
  RUDOLF_TIMED_SCOPE("tracker.extend");
  RUDOLF_COUNTER_INC("tracker.extends");
  size_t old_prefix = prefix_;
  evaluator_.ExtendPrefix(new_prefix);
  prefix_ = evaluator_.num_rows();
  if (prefix_ == old_prefix) return;
  cover_count_.resize(prefix_, 0);
  std::vector<RuleId> ids = rules_.LiveIds();
  std::vector<Bitset*> outs;
  outs.reserve(ids.size());
  for (RuleId id : ids) {
    auto it = captures_.find(id);
    assert(it != captures_.end());
    it->second.Resize(prefix_);
    outs.push_back(&it->second);
  }
  // Each rule scans only the new row range, in parallel across rules; the
  // cover/label-count accumulation walks just the new bits, serially.
  evaluator_.EvalRulesRange(rules_, ids, old_prefix, prefix_, outs);
  for (Bitset* capture : outs) {
    capture->ForEachInRange(old_prefix, prefix_,
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
  if (row >= prefix_ || cover_count_[row] == 0 || old_label == new_label) return;
  auto bucket = [this](Label l) -> size_t& {
    switch (l) {
      case Label::kFraud:
        return total_counts_.fraud;
      case Label::kLegitimate:
        return total_counts_.legitimate;
      default:
        return total_counts_.unlabeled;
    }
  };
  --bucket(old_label);
  ++bucket(new_label);
}

const Bitset& CaptureTracker::RuleCapture(RuleId id) const {
  auto it = captures_.find(id);
  assert(it != captures_.end());
  return it->second;
}

Bitset CaptureTracker::UnionCapture() const {
  Bitset out(prefix_);
  if (prefix_ == 0) return out;
  // Collapse the cover counts into word-packed bits in one kernel pass.
  std::vector<uint64_t> words(Bitset::WordsFor(prefix_));
  simd::NonZeroMaskU32(cover_count_.data(), prefix_, words.data());
  out.OrWords(words.data(), 0, words.size());
  return out;
}

Bitset CaptureTracker::Eval(const Rule& rule) const {
  return evaluator_.EvalRule(rule);
}

std::vector<Bitset> CaptureTracker::EvalMany(const std::vector<Rule>& rules) const {
  std::vector<Bitset> captures;
  captures.reserve(rules.size());
  for (const Rule& rule : rules) captures.push_back(evaluator_.EvalRule(rule));
  return captures;
}

BenefitDelta CaptureTracker::DeltaBetween(const Bitset& old_capture,
                                          const Bitset& new_capture) const {
  BenefitDelta delta;
  auto classify = [&](size_t row, int direction) {
    switch (relation_.VisibleLabel(row)) {
      case Label::kFraud:
        delta.fraud += direction;  // ΔF counts *increase* in captured fraud
        break;
      case Label::kLegitimate:
        delta.legit -= direction;  // ΔL counts *decrease* in captured legit
        break;
      case Label::kUnlabeled:
        delta.unlabeled -= direction;  // ΔR likewise
        break;
    }
  };
  // Rows newly covered: in new, not in old, not covered by any other rule.
  new_capture.ForEach([&](size_t row) {
    if (!old_capture.Test(row) && cover_count_[row] == 0) classify(row, +1);
  });
  // Rows newly uncovered: in old, not in new, covered only by this rule.
  old_capture.ForEach([&](size_t row) {
    if (!new_capture.Test(row) && cover_count_[row] == 1) classify(row, -1);
  });
  return delta;
}

BenefitDelta CaptureTracker::DeltaForReplace(RuleId id,
                                             const Bitset& new_capture) const {
  return DeltaBetween(RuleCapture(id), new_capture);
}

BenefitDelta CaptureTracker::DeltaForAdd(const Bitset& capture) const {
  Bitset empty(prefix_);
  return DeltaBetween(empty, capture);
}

BenefitDelta CaptureTracker::DeltaForRemove(RuleId id) const {
  Bitset empty(prefix_);
  return DeltaBetween(RuleCapture(id), empty);
}

BenefitDelta CaptureTracker::DeltaForReplaceMany(
    RuleId id, const std::vector<Bitset>& captures) const {
  Bitset unioned(prefix_);
  for (const Bitset& b : captures) unioned |= b;
  return DeltaBetween(RuleCapture(id), unioned);
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
  for (const auto& entry : captures_) {
    bytes += sizeof(RuleId) + entry.second.WordCount() * sizeof(uint64_t);
  }
  return bytes;
}

void CaptureTracker::ReleaseCachedBitmaps() {
  evaluator_.ReleaseCachedBitmaps();
}

}  // namespace rudolf
