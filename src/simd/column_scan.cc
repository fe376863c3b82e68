#include "simd/column_scan.h"

#include <cassert>

#include "simd/simd.h"

namespace rudolf::simd {

namespace {

// Strip size of the aligned middle: 16K rows = 2KB of mask words, small
// enough to live on the stack and stay L1-resident between the kernel pass
// and the OrWords merge.
constexpr size_t kStripRows = size_t{1} << 14;
constexpr size_t kStripWords = kStripRows / 64;

// Shared driver: per-row `test` on the ragged head, `kernel` over the
// aligned middle + tail. [alo, hi) is word-aligned at its start, so strip
// masks land on word boundaries of `out`; the kernels zero any trailing
// bits past hi, keeping the padding invariant.
template <typename TestFn, typename KernelFn>
void OrMatches(size_t lo, size_t hi, Bitset* out, TestFn&& test,
               KernelFn&& kernel) {
  assert(hi <= out->size());
  if (lo >= hi) return;
  size_t alo = (lo + 63) & ~size_t{63};
  if (alo > hi) alo = hi;
  for (size_t r = lo; r < alo; ++r) {
    if (test(r)) out->Set(r);
  }
  uint64_t strip[kStripWords];
  for (size_t base = alo; base < hi; base += kStripRows) {
    size_t n = hi - base < kStripRows ? hi - base : kStripRows;
    kernel(base, n, strip);
    out->OrWords(strip, base / 64, Bitset::WordsFor(n));
  }
}

}  // namespace

void OrRangeMatches(const int64_t* col, size_t lo, size_t hi, int64_t lo_v,
                    int64_t hi_v, Bitset* out) {
  OrMatches(
      lo, hi, out,
      [&](size_t r) { return lo_v <= col[r] && col[r] <= hi_v; },
      [&](size_t base, size_t n, uint64_t* words) {
        RangeMaskI64(col + base, n, lo_v, hi_v, words);
      });
}

void OrMemberMatches(const int64_t* col, size_t lo, size_t hi,
                     const uint8_t* member, size_t domain, Bitset* out) {
  OrMatches(
      lo, hi, out,
      [&](size_t r) {
        uint64_t v = static_cast<uint64_t>(col[r]);
        return v < domain && member[v] != 0;
      },
      [&](size_t base, size_t n, uint64_t* words) {
        InSetMaskI64(col + base, n, member, domain, words);
      });
}

}  // namespace rudolf::simd
