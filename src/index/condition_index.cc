#include "index/condition_index.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/column_scan.h"

namespace rudolf {

ConditionIndex::ConditionIndex(const Relation& relation, size_t prefix_rows,
                               size_t cache_capacity)
    : relation_(relation),
      prefix_(std::min(prefix_rows, relation.NumRows())),
      numeric_(relation.schema().arity()),
      categorical_(relation.schema().arity()),
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
      if (categorical_[i] == nullptr) {
        categorical_[i] = std::make_unique<CategoricalAttributeIndex>(
            relation_.Column(i), prefix_, def.ontology.get());
      } else {
        def.ontology->WarmCaches();
      }
    }
  }
}

bool ConditionIndex::ReadyForRule(const Rule& rule) const {
  const Schema& schema = relation_.schema();
  for (size_t i = 0; i < rule.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (rule.condition(i).IsTrivial(def)) continue;
    if (def.kind == AttrKind::kNumeric) {
      if (numeric_[i] == nullptr) return false;
    } else {
      if (categorical_[i] == nullptr) return false;
    }
  }
  return true;
}

std::shared_ptr<const Bitset> ConditionIndex::ConditionBitmap(
    size_t attr, const Condition& cond) {
  ConditionKey key = ConditionKey::For(attr, cond);
  if (std::shared_ptr<const Bitset> hit = cache_.Get(key)) return hit;
  // Extraction happens outside the cache lock; a concurrent extraction of
  // the same key produces the identical bitmap and Put keeps one.
  RUDOLF_SPAN("index.extract");
  RUDOLF_COUNTER_INC("index.extractions");
  Bitset extracted;
  if (cond.kind() == AttrKind::kNumeric) {
    assert(numeric_[attr] != nullptr);
    extracted = numeric_[attr]->Extract(cond.interval());
  } else {
    assert(categorical_[attr] != nullptr);
    extracted = categorical_[attr]->Extract(cond.concept_id());
  }
  auto bitmap = std::make_shared<const Bitset>(std::move(extracted));
  cache_.Put(key, bitmap);
  return bitmap;
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
  size_t old_prefix = prefix_;
  if (new_prefix != old_prefix) {
    RUDOLF_TIMED_SCOPE("index.extend_to");
    for (size_t i = 0; i < numeric_.size(); ++i) {
      if (numeric_[i] != nullptr) {
        numeric_[i]->AppendRows(relation_.Column(i), new_prefix);
      }
      if (categorical_[i] != nullptr) {
        categorical_[i]->AppendRows(relation_.Column(i), new_prefix);
      }
    }
    // Cached bitmaps: copy, grow, and set the matches of the new row range
    // by a vectorized column scan — the exact bits a fresh extraction over
    // the extended prefix would produce. The scan is O(batch) per entry, but
    // the copy is O(prefix / 64) words per entry: ROADMAP item 2 makes the
    // extension lazy. Entries are replaced (not mutated) so outstanding
    // readers keep their snapshot.
    const Schema& schema = relation_.schema();
    cache_.ExtendEntries(
        [&](const ConditionKey& key, const Bitset& old_bitmap)
            -> std::shared_ptr<const Bitset> {
          Bitset extended = old_bitmap;
          extended.Resize(new_prefix);
          const std::vector<CellValue>& col = relation_.Column(key.attribute);
          if (key.kind == AttrKind::kNumeric) {
            simd::OrRangeMatches(col.data(), old_prefix, new_prefix, key.a,
                                 key.b, &extended);
          } else {
            const Ontology* ontology =
                schema.attribute(key.attribute).ontology.get();
            ConceptId concept_id = static_cast<ConceptId>(key.a);
            // Byte membership table over the concept domain; the kernel's
            // bounds check is exactly IsValid.
            std::vector<uint8_t> member(ontology->size());
            for (ConceptId v = 0; v < member.size(); ++v) {
              member[v] = ontology->Contains(concept_id, v) ? 1 : 0;
            }
            simd::OrMemberMatches(col.data(), old_prefix, new_prefix,
                                  member.data(), member.size(), &extended);
          }
          return std::make_shared<const Bitset>(std::move(extended));
        });
    prefix_ = new_prefix;
  }
}

size_t ConditionIndex::ApproxMemoryBytes() const {
  size_t bytes = cache_.ApproxMemoryBytes();
  for (const auto& idx : numeric_) {
    if (idx != nullptr) bytes += idx->ApproxMemoryBytes();
  }
  for (const auto& idx : categorical_) {
    if (idx != nullptr) bytes += idx->ApproxMemoryBytes();
  }
  return bytes;
}

}  // namespace rudolf
