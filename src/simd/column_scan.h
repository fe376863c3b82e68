// The conjunction scan: bridges the word-packed predicate kernels (simd.h)
// to Bitset outputs over arbitrary row ranges. It ORs into a bitmap the rows
// of [lo, hi) that match every predicate of a list, where each predicate is
// an int64 column with an interval or a byte membership table. The ragged
// head up to the first word boundary is tested per row; the rest streams
// through the kernels in 1,024-row strips on the stack, the first
// predicate's kernel writing a strip's words and each later one ANDing in,
// and a strip that goes all-zero skipping the remaining predicates. The
// produced bits are exactly the bits the per-row loop would set (the
// kernels are bit-identical to scalar at every tier).
//
// RuleEvaluator runs every scan through it: a rule's non-trivial
// conditions over a row range (EvalRuleRange), and the condition cache's
// misses and completions, one predicate per key per strip of its blocked
// pass.

#ifndef RUDOLF_SIMD_COLUMN_SCAN_H_
#define RUDOLF_SIMD_COLUMN_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/bitset.h"

namespace rudolf::simd {

/// Rows of one strip. Strips lie on absolute multiples of kStripRows (the
/// first one starts at the range's first word boundary). A strip of an
/// int64 column is 8 KB, so it stays in L1 while every predicate that
/// reads it runs, and its 16 mask words live on the stack. On 262,144 rows
/// read from memory (AVX-512 tier), one strip pass over three intervals of
/// one column cost 43–45 µs per interval against 54–58 µs for three
/// whole-column scans; strips of 512 to 4,096 rows were within 3% of
/// 1,024, and 256 rows or 8,192 and more were slower.
inline constexpr size_t kStripRows = 1024;

/// One predicate over an int64 column: `lo <= col[r] <= hi` when `member`
/// is null, else membership in a byte table,
/// `0 <= col[r] < domain && member[col[r]] != 0`.
struct ColumnPredicate {
  const int64_t* col = nullptr;
  int64_t lo = 0;
  int64_t hi = 0;
  const uint8_t* member = nullptr;
  size_t domain = 0;
};

/// out gains the bits of every row r in [lo, hi) that every predicate of
/// `preds` (at least one) matches. Each column must cover [0, hi); `out`
/// must span at least hi bits; bits outside [lo, hi) are untouched.
void OrConjunctionMatches(std::span<const ColumnPredicate> preds, size_t lo,
                          size_t hi, Bitset* out);

}  // namespace rudolf::simd

#endif  // RUDOLF_SIMD_COLUMN_SCAN_H_
