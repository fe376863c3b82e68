// Per-attribute columnar index over a prefix of the transaction relation —
// the extraction layer of the incremental condition-indexed evaluation path
// (see DESIGN.md "Condition index & cache"). Numeric attributes get a
// value-sorted projection of the column plus chunked cumulative bitmaps, so
// an interval condition becomes two binary searches, one word-wise bitmap
// difference, and at most two partial-chunk fixups. Extraction is exact:
// the produced bitmaps are bit-identical to the columnar scan over the same
// prefix. Categorical attributes have no index: ConditionIndex scans a
// containment condition's column on a cache miss.

#ifndef RUDOLF_INDEX_ATTRIBUTE_INDEX_H_
#define RUDOLF_INDEX_ATTRIBUTE_INDEX_H_

#include <cstdint>
#include <vector>

#include "relation/value.h"
#include "rules/condition.h"
#include "util/bitset.h"

namespace rudolf {

/// \brief Sorted projection of one numeric column prefix with chunked
/// cumulative bitmaps for O(rows/64) range extraction.
///
/// Both segments are ordered by (value, row) without a comparison sort.
/// Entries arrive in ascending row order (the build prefix, then each
/// appended batch), so a stable LSD radix sort on the value alone orders a
/// run, and a stable linear merge on the value joins an older run with a
/// newer one, ties going to the older rows.
///
/// Streaming rows land in a small sorted *delta segment* instead of forcing
/// a rebuild: AppendRows radix-sorts the batch and merges it into the delta
/// (O(batch + delta)), Extract merges main + delta (the delta contributes
/// two binary searches and |delta ∩ iv| bit sets), and the delta merges
/// into the main segment once it outgrows DeltaCompactionThreshold().
/// Extraction stays bit-identical to a fresh build at every point of the
/// append schedule.
class NumericAttributeIndex {
 public:
  /// Indexes the first `prefix_rows` entries of `column` (which must be at
  /// least that long). Build is one radix pass per byte position in which
  /// the values differ; memory is one 16-byte entry per row plus the
  /// cumulative bitmaps (at most 64, one bit per row each).
  NumericAttributeIndex(const std::vector<CellValue>& column, size_t prefix_rows);

  size_t prefix_rows() const { return prefix_; }

  /// Extends the index over rows [prefix_rows(), new_prefix) of `column`.
  /// The new entries are radix-sorted and merged into the delta segment;
  /// when the delta exceeds DeltaCompactionThreshold() it is merged into
  /// the main segment and the cumulative bitmaps are rebuilt (amortized
  /// O(1) per appended row).
  void AppendRows(const std::vector<CellValue>& column, size_t new_prefix);

  /// Rows r < prefix_rows() with column[r] ∈ iv — the same bits the
  /// columnar scan of the interval condition would set.
  Bitset Extract(const Interval& iv) const;

  /// Compaction trigger: the delta segment merges into the main segment
  /// when it grows past max(1024, main/8).
  size_t DeltaCompactionThreshold() const;

  size_t delta_size() const { return delta_.size(); }  ///< for tests/benches

  /// Approximate heap bytes of the sorted segments and cumulative bitmaps.
  size_t ApproxMemoryBytes() const;

 private:
  struct Entry {
    CellValue value;
    uint32_t row;
  };

  void RebuildCumulative();

  size_t prefix_;
  size_t main_rows_;              // rows covered by sorted_/cum_ (≤ prefix_)
  size_t chunk_;                  // entries per cumulative chunk
  std::vector<Entry> sorted_;     // main segment, ascending by (value, row)
  std::vector<Entry> delta_;      // appended rows, ascending by (value, row)
  // cum_[k] = bitmap of the rows of sorted_[0, k*chunk_), sized main_rows_.
  // Nested sets, so the rows of any aligned slice are cum_[b] & ~cum_[a];
  // Extract zero-extends them out to prefix_.
  std::vector<Bitset> cum_;
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_ATTRIBUTE_INDEX_H_
