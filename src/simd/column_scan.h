// Bridges the word-packed predicate kernels (simd.h) to Bitset outputs over
// arbitrary row ranges: the ragged head up to the first word boundary is
// evaluated per row, the aligned middle streams through the kernels in
// stack-sized strips, and results are ORed into the destination words — so
// callers holding a Bitset bound to a relation prefix can vectorize a scan
// of rows [lo, hi) without caring about alignment. The produced bits are
// exactly the bits the per-row loop would set (the kernels are
// bit-identical to scalar at every tier). ConditionIndex scans with them,
// one 1,024-row strip at a time, to fill its cache misses and to complete
// stale entries.

#ifndef RUDOLF_SIMD_COLUMN_SCAN_H_
#define RUDOLF_SIMD_COLUMN_SCAN_H_

#include <cstddef>
#include <cstdint>

#include "util/bitset.h"

namespace rudolf::simd {

/// out gains the bits of every row r in [lo, hi) with lo_v <= col[r] <= hi_v.
/// `col` must cover [0, hi); `out` must span at least hi bits; bits outside
/// [lo, hi) are untouched.
void OrRangeMatches(const int64_t* col, size_t lo, size_t hi, int64_t lo_v,
                    int64_t hi_v, Bitset* out);

/// out gains the bits of every row r in [lo, hi) whose cell is a member of
/// the byte table: 0 <= col[r] < domain && member[col[r]] != 0.
void OrMemberMatches(const int64_t* col, size_t lo, size_t hi,
                     const uint8_t* member, size_t domain, Bitset* out);

}  // namespace rudolf::simd

#endif  // RUDOLF_SIMD_COLUMN_SCAN_H_
