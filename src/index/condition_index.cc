#include "index/condition_index.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/column_scan.h"

namespace rudolf {

namespace {

// Rows of one strip of a batch's scan pass. A strip of an int64 column is
// 8 KB, so it stays in L1 while every key of the batch on that attribute
// scans it. On 262,144 rows read from memory (AVX-512 tier), one strip pass
// over three intervals of one column cost 43–45 µs per interval, against
// 54–58 µs for three whole-column scans; strips of 512 to 4,096 rows were
// within 3% of 1,024, and 256 rows or 8,192 and more were slower.
constexpr size_t kStripRows = 1024;

// One missing or stale key of a batch: its condition's scan over rows
// [start, prefix), ORed into `out`.
struct Scan {
  size_t attr = 0;
  const int64_t* col = nullptr;
  const Condition* cond = nullptr;
  size_t start = 0;
  Bitset* out = nullptr;
  // Categorical: byte membership table over the concept domain; the
  // kernel's bounds check is exactly IsValid.
  std::vector<uint8_t> member;
};

}  // namespace

ConditionIndex::ConditionIndex(const Relation& relation, size_t prefix_rows,
                               size_t cache_capacity)
    : relation_(relation),
      prefix_(std::min(prefix_rows, relation.NumRows())),
      cache_(cache_capacity) {}

void ConditionIndex::EnsureForRule(const Rule& rule) {
  const Schema& schema = relation_.schema();
  assert(rule.arity() == schema.arity());
  for (size_t i = 0; i < rule.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kCategorical && !rule.condition(i).IsTrivial(def)) {
      def.ontology->WarmCaches();
    }
  }
}

std::vector<std::shared_ptr<const Bitset>> ConditionIndex::ConditionBitmaps(
    const std::vector<ConditionRef>& conds, const BlockFanOut& fan_out) {
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
  // Each missing or stale key's bitmap is allocated here, at its final size
  // (a copy grown by Resize could keep spare vector capacity alive in the
  // cache). A stale entry's bits are copied, which leaves readers of the old
  // entry their snapshot, and its scan starts where they end.
  std::vector<Bitset> filled(missing.size());
  std::vector<Scan> scans(missing.size());
  size_t lo = prefix_;
  for (size_t m = 0; m < missing.size(); ++m) {
    const std::shared_ptr<const Bitset>& stale = bitmaps[missing[m]];
    const ConditionRef& ref = *firsts[missing[m]];
    Scan& scan = scans[m];
    filled[m] = Bitset(prefix_);
    if (stale != nullptr) {
      RUDOLF_COUNTER_INC("index.cache.stale_extends");
      filled[m].OrZeroExtended(*stale);
      scan.start = stale->size();
    } else {
      RUDOLF_COUNTER_INC("index.extractions");
    }
    scan.attr = ref.attr;
    scan.col = relation_.Column(ref.attr).data();
    scan.cond = &ref.cond;
    scan.out = &filled[m];
    if (ref.cond.kind() == AttrKind::kCategorical) {
      const Ontology& ontology = *relation_.schema().attribute(ref.attr).ontology;
      scan.member.resize(ontology.size());
      for (ConceptId v = 0; v < scan.member.size(); ++v) {
        scan.member[v] = ontology.Contains(ref.cond.concept_id(), v) ? 1 : 0;
      }
    }
    lo = std::min(lo, scan.start);
  }
  // One pass over the rows any scan needs. Each block walks its rows strip
  // by strip, and every scan of the batch reads the strip in turn, grouped
  // by attribute so that one column strip serves all of its keys. Blocks
  // write disjoint words of each bitmap.
  std::stable_sort(scans.begin(), scans.end(),
                   [](const Scan& a, const Scan& b) { return a.attr < b.attr; });
  if (lo < prefix_) {
    RUDOLF_SPAN("index.scan");
    fan_out(lo, prefix_, [&](size_t blo, size_t bhi) {
      for (size_t slo = blo; slo < bhi;) {
        const size_t shi = std::min(bhi, (slo / kStripRows + 1) * kStripRows);
        for (const Scan& scan : scans) {
          const size_t from = std::max(slo, scan.start);
          if (from >= shi) continue;
          if (scan.cond->kind() == AttrKind::kNumeric) {
            simd::OrRangeMatches(scan.col, from, shi, scan.cond->interval().lo,
                                 scan.cond->interval().hi, scan.out);
          } else {
            simd::OrMemberMatches(scan.col, from, shi, scan.member.data(),
                                  scan.member.size(), scan.out);
          }
        }
        slo = shi;
      }
    });
  }
  for (size_t m = 0; m < missing.size(); ++m) {
    const size_t k = missing[m];
    bitmaps[k] = std::make_shared<const Bitset>(std::move(filled[m]));
    cache_.Put(keys[k], bitmaps[k]);
  }
  std::vector<std::shared_ptr<const Bitset>> out(conds.size());
  for (size_t i = 0; i < conds.size(); ++i) out[i] = bitmaps[slot[i]];
  return out;
}

std::shared_ptr<const Bitset> ConditionIndex::ConditionBitmap(
    size_t attr, const Condition& cond) {
  return ConditionBitmaps(
      {{attr, cond}},
      [](size_t lo, size_t hi,
         const std::function<void(size_t, size_t)>& body) { body(lo, hi); })[0];
}

void ConditionIndex::ExtendTo(size_t new_prefix) {
  new_prefix = std::min(new_prefix, relation_.NumRows());
  // A stale or racing caller (an epoch pinned between its prefix read and
  // this call) may ask for a prefix at or below the current one. Shrinking
  // would silently corrupt every cached bitmap — each would hold rows past
  // the binding — so reject it as a checked no-op instead of a
  // release-stripped assert: the binding already covers [0, new_prefix),
  // every answer stays correct.
  if (new_prefix < prefix_) {
    RUDOLF_COUNTER_INC("index.extend_to.rejected");
    return;
  }
  // Cached bitmaps stay as they are: each is completed on its next hit.
  prefix_ = new_prefix;
}

}  // namespace rudolf
