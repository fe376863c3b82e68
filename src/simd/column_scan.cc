#include "simd/column_scan.h"

#include <algorithm>
#include <cassert>

#include "simd/simd.h"

namespace rudolf::simd {

namespace {

constexpr size_t kStripWords = kStripRows / 64;

bool Matches(const ColumnPredicate& p, size_t r) {
  const int64_t v = p.col[r];
  if (p.member == nullptr) return p.lo <= v && v <= p.hi;
  return static_cast<uint64_t>(v) < p.domain && p.member[v] != 0;
}

// words ← the predicate's mask over rows [base, base + n).
void Mask(const ColumnPredicate& p, size_t base, size_t n, uint64_t* words) {
  if (p.member == nullptr) {
    RangeMaskI64(p.col + base, n, p.lo, p.hi, words);
  } else {
    InSetMaskI64(p.col + base, n, p.member, p.domain, words);
  }
}

}  // namespace

void OrConjunctionMatches(std::span<const ColumnPredicate> preds, size_t lo,
                          size_t hi, Bitset* out) {
  assert(!preds.empty() && hi <= out->size());
  if (lo >= hi) return;
  const size_t alo = std::min((lo + 63) & ~size_t{63}, hi);
  for (size_t r = lo; r < alo; ++r) {
    if (std::all_of(preds.begin(), preds.end(),
                    [r](const ColumnPredicate& p) { return Matches(p, r); })) {
      out->Set(r);
    }
  }
  // The kernels zero the tail bits of a strip's last word, so the OR below
  // never sets a bit at or past hi.
  uint64_t acc[kStripWords];
  uint64_t mask[kStripWords];
  for (size_t base = alo; base < hi;) {
    const size_t end = std::min(hi, (base / kStripRows + 1) * kStripRows);
    const size_t n = end - base;
    const size_t words = Bitset::WordsFor(n);
    Mask(preds[0], base, n, acc);
    bool live = true;
    for (size_t p = 1; p < preds.size() && live; ++p) {
      Mask(preds[p], base, n, mask);
      uint64_t any = 0;
      for (size_t w = 0; w < words; ++w) {
        acc[w] &= mask[w];
        any |= acc[w];
      }
      live = any != 0;
    }
    if (live) out->OrWords(acc, base / 64, words);
    base = end;
  }
}

}  // namespace rudolf::simd
