#include "index/condition_index.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/column_scan.h"

namespace rudolf {

ConditionIndex::ConditionIndex(const Relation& relation, size_t prefix_rows,
                               size_t cache_capacity)
    : relation_(relation),
      prefix_(std::min(prefix_rows, relation.NumRows())),
      numeric_(relation.schema().arity()),
      cache_(cache_capacity) {}

void ConditionIndex::EnsureForRule(const Rule& rule) {
  const Schema& schema = relation_.schema();
  assert(rule.arity() == schema.arity());
  for (size_t i = 0; i < rule.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (rule.condition(i).IsTrivial(def)) continue;
    if (def.kind == AttrKind::kNumeric) {
      if (numeric_[i] == nullptr) {
        numeric_[i] = std::make_unique<NumericAttributeIndex>(
            relation_.Column(i), prefix_);
      }
    } else {
      def.ontology->WarmCaches();
    }
  }
}

bool ConditionIndex::ReadyForRule(const Rule& rule) const {
  const Schema& schema = relation_.schema();
  for (size_t i = 0; i < rule.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (rule.condition(i).IsTrivial(def)) continue;
    if (def.kind == AttrKind::kNumeric && numeric_[i] == nullptr) return false;
  }
  return true;
}

std::vector<std::shared_ptr<const Bitset>> ConditionIndex::ConditionBitmaps(
    const std::vector<ConditionRef>& conds, const FanOut& fan_out) {
  // The distinct keys in first-use order, each looked up once: `bitmaps`
  // holds a fresh hit, or the stale entry (an empty bitmap on a miss) that
  // the fan-out below replaces.
  std::unordered_map<ConditionKey, size_t, ConditionKeyHash> slot_of;
  std::vector<size_t> slot(conds.size());
  std::vector<ConditionKey> keys;
  std::vector<const ConditionRef*> firsts;
  std::vector<std::shared_ptr<const Bitset>> bitmaps;
  std::vector<size_t> missing;
  for (size_t i = 0; i < conds.size(); ++i) {
    const ConditionKey key = ConditionKey::For(conds[i].attr, conds[i].cond);
    auto [it, added] = slot_of.try_emplace(key, keys.size());
    slot[i] = it->second;
    if (!added) continue;
    keys.push_back(key);
    firsts.push_back(&conds[i]);
    std::shared_ptr<const Bitset> hit = cache_.Get(key);
    assert(hit == nullptr || hit->size() <= prefix_);
    if (hit == nullptr || hit->size() < prefix_) missing.push_back(it->second);
    bitmaps.push_back(std::move(hit));
  }
  fan_out(missing.size(), [&](size_t lo, size_t hi) {
    for (size_t m = lo; m < hi; ++m) {
      const size_t k = missing[m];
      const ConditionRef& ref = *firsts[k];
      Bitset filled;
      if (bitmaps[k] != nullptr) {
        // Stale: cached before an ExtendTo. Complete a copy over the rows it
        // is missing, with the exact scan semantics of the condition; the
        // copy leaves readers of the old entry their snapshot.
        RUDOLF_COUNTER_INC("index.cache.stale_extends");
        filled = Complete(ref.attr, ref.cond, *bitmaps[k]);
      } else {
        // A categorical condition has no attribute index: its miss is the
        // column scan that completes a stale entry, over the whole prefix.
        RUDOLF_SPAN("index.extract");
        RUDOLF_COUNTER_INC("index.extractions");
        if (ref.cond.kind() == AttrKind::kNumeric) {
          assert(numeric_[ref.attr] != nullptr);
          filled = numeric_[ref.attr]->Extract(ref.cond.interval());
        } else {
          filled = Complete(ref.attr, ref.cond, Bitset());
        }
      }
      bitmaps[k] = std::make_shared<const Bitset>(std::move(filled));
    }
  });
  for (size_t k : missing) cache_.Put(keys[k], bitmaps[k]);
  std::vector<std::shared_ptr<const Bitset>> out(conds.size());
  for (size_t i = 0; i < conds.size(); ++i) out[i] = bitmaps[slot[i]];
  return out;
}

std::shared_ptr<const Bitset> ConditionIndex::ConditionBitmap(
    size_t attr, const Condition& cond) {
  return ConditionBitmaps(
      {{attr, cond}},
      [](size_t n, const std::function<void(size_t, size_t)>& body) {
        body(0, n);
      })[0];
}

Bitset ConditionIndex::Complete(size_t attr, const Condition& cond,
                                const Bitset& stale) const {
  // Allocated at its final size: a copy grown by Resize could keep spare
  // vector capacity alive in the cache.
  Bitset out(prefix_);
  out.OrZeroExtended(stale);
  const std::vector<CellValue>& col = relation_.Column(attr);
  if (cond.kind() == AttrKind::kNumeric) {
    simd::OrRangeMatches(col.data(), stale.size(), prefix_, cond.interval().lo,
                         cond.interval().hi, &out);
  } else {
    // Byte membership table over the concept domain; the kernel's bounds
    // check is exactly IsValid.
    const Ontology* ontology =
        relation_.schema().attribute(attr).ontology.get();
    std::vector<uint8_t> member(ontology->size());
    for (ConceptId v = 0; v < member.size(); ++v) {
      member[v] = ontology->Contains(cond.concept_id(), v) ? 1 : 0;
    }
    simd::OrMemberMatches(col.data(), stale.size(), prefix_, member.data(),
                          member.size(), &out);
  }
  return out;
}

void ConditionIndex::ExtendTo(size_t new_prefix) {
  new_prefix = std::min(new_prefix, relation_.NumRows());
  // A stale or racing caller (an epoch pinned between its prefix read and
  // this call) may ask for a prefix at or below the current one. Shrinking
  // would silently corrupt every cached bitmap — the attribute indexes would
  // re-absorb rows they already hold — so reject it as a checked no-op
  // instead of a release-stripped assert: the binding already covers
  // [0, new_prefix), every answer stays correct.
  if (new_prefix < prefix_) {
    RUDOLF_COUNTER_INC("index.extend_to.rejected");
    return;
  }
  if (new_prefix == prefix_) return;
  RUDOLF_TIMED_SCOPE("index.extend_to");
  for (size_t i = 0; i < numeric_.size(); ++i) {
    if (numeric_[i] != nullptr) {
      numeric_[i]->AppendRows(relation_.Column(i), new_prefix);
    }
  }
  // Cached bitmaps stay as they are: each is completed on its next hit.
  prefix_ = new_prefix;
}

size_t ConditionIndex::ApproxMemoryBytes() const {
  size_t bytes = cache_.ApproxMemoryBytes();
  for (const auto& idx : numeric_) {
    if (idx != nullptr) bytes += idx->ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace rudolf
