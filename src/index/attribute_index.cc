#include "index/attribute_index.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rudolf {

namespace {

// Chunk sizing: at most 64 cumulative snapshots (plus the empty one) of one
// bit per row, so the bitmaps take about 8 bytes per row from 65,536 rows
// up and less below, with chunks large enough that partial-chunk fixups are
// cheap relative to the word-wise difference.
constexpr size_t kMaxChunks = 64;
constexpr size_t kMinChunk = 1024;

size_t ChunkFor(size_t n) {
  size_t by_count = (n + kMaxChunks - 1) / kMaxChunks;
  return std::max(kMinChunk, by_count);
}

// Orders `entries` by value, keeping entries of equal value in their
// current order: a stable LSD radix sort over the bytes of the value with
// its sign bit flipped, so negative values come first. Byte positions that
// every key shares are skipped, so a column of small non-negative values
// takes one or two passes. Entries arrive in ascending row order, so the
// result is ascending by (value, row).
template <typename Entry>
void StableSortByValue(std::vector<Entry>* entries) {
  const size_t n = entries->size();
  if (n < 2) return;
  auto key = [](const Entry& e) {
    return static_cast<uint64_t>(e.value) ^ (uint64_t{1} << 63);
  };
  std::array<std::array<size_t, 256>, 8> counts{};
  for (const Entry& e : *entries) {
    uint64_t k = key(e);
    for (size_t b = 0; b < 8; ++b) ++counts[b][(k >> (8 * b)) & 0xFF];
  }
  const uint64_t first = key(entries->front());
  std::vector<Entry> scratch;
  for (size_t b = 0; b < 8; ++b) {
    std::array<size_t, 256>& count = counts[b];
    if (count[(first >> (8 * b)) & 0xFF] == n) continue;
    size_t offset = 0;
    for (size_t& c : count) offset += std::exchange(c, offset);
    scratch.resize(n);
    for (const Entry& e : *entries) {
      scratch[count[(key(e) >> (8 * b)) & 0xFF]++] = e;
    }
    entries->swap(scratch);
  }
}

// Merges two value-ordered runs whose rows are all older in `older` than
// in `newer`: a stable merge on the value alone, which takes ties from
// `older` first, so the result is ascending by (value, row).
template <typename Entry>
std::vector<Entry> MergeByValue(const std::vector<Entry>& older,
                                const std::vector<Entry>& newer) {
  std::vector<Entry> out(older.size() + newer.size());
  std::merge(older.begin(), older.end(), newer.begin(), newer.end(),
             out.begin(),
             [](const Entry& a, const Entry& b) { return a.value < b.value; });
  return out;
}

}  // namespace

NumericAttributeIndex::NumericAttributeIndex(const std::vector<CellValue>& column,
                                             size_t prefix_rows)
    : prefix_(prefix_rows), main_rows_(prefix_rows), chunk_(ChunkFor(prefix_rows)) {
  RUDOLF_TIMED_SCOPE("index.numeric.build");
  RUDOLF_COUNTER_INC("index.numeric.builds");
  assert(column.size() >= prefix_rows);
  assert(prefix_rows <= std::numeric_limits<uint32_t>::max());
  sorted_.reserve(prefix_);
  for (size_t r = 0; r < prefix_; ++r) {
    sorted_.push_back(Entry{column[r], static_cast<uint32_t>(r)});
  }
  StableSortByValue(&sorted_);
  RebuildCumulative();
}

void NumericAttributeIndex::RebuildCumulative() {
  size_t chunks = main_rows_ / chunk_;  // only whole chunks get a snapshot
  cum_.clear();
  cum_.reserve(chunks + 1);
  cum_.emplace_back(main_rows_);
  Bitset running(main_rows_);
  for (size_t k = 1; k <= chunks; ++k) {
    for (size_t i = (k - 1) * chunk_; i < k * chunk_; ++i) {
      running.Set(sorted_[i].row);
    }
    cum_.push_back(running);
  }
}

size_t NumericAttributeIndex::DeltaCompactionThreshold() const {
  return std::max(kMinChunk, main_rows_ / 8);
}

size_t NumericAttributeIndex::ApproxMemoryBytes() const {
  size_t bytes = (sorted_.capacity() + delta_.capacity()) * sizeof(Entry);
  for (const Bitset& b : cum_) bytes += b.WordCount() * sizeof(uint64_t);
  return bytes;
}

void NumericAttributeIndex::AppendRows(const std::vector<CellValue>& column,
                                       size_t new_prefix) {
  assert(new_prefix >= prefix_);
  assert(column.size() >= new_prefix);
  assert(new_prefix <= std::numeric_limits<uint32_t>::max());
  if (new_prefix == prefix_) return;
  RUDOLF_SPAN("index.numeric.append");
  RUDOLF_COUNTER_INC("index.numeric.appends");
  RUDOLF_COUNTER_ADD("index.numeric.appended_rows", new_prefix - prefix_);
  std::vector<Entry> batch;
  batch.reserve(new_prefix - prefix_);
  for (size_t r = prefix_; r < new_prefix; ++r) {
    batch.push_back(Entry{column[r], static_cast<uint32_t>(r)});
  }
  StableSortByValue(&batch);
  delta_ = MergeByValue(delta_, batch);
  prefix_ = new_prefix;
  if (delta_.size() > DeltaCompactionThreshold()) {
    RUDOLF_TIMED_SCOPE("index.numeric.compact");
    RUDOLF_COUNTER_INC("index.numeric.compactions");
    sorted_ = MergeByValue(sorted_, delta_);
    delta_.clear();
    delta_.shrink_to_fit();
    main_rows_ = prefix_;
    // Re-derive the chunk size exactly as a fresh build over prefix_ would,
    // so a compacted index and a from-scratch one are indistinguishable.
    chunk_ = ChunkFor(main_rows_);
    RebuildCumulative();
  }
}

Bitset NumericAttributeIndex::Extract(const Interval& iv) const {
  Bitset out(prefix_);
  if (iv.Empty() || prefix_ == 0) return out;
  auto value_less = [](const Entry& e, int64_t v) { return e.value < v; };
  auto less_value = [](int64_t v, const Entry& e) { return v < e.value; };
  size_t lo = static_cast<size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), iv.lo, value_less) -
      sorted_.begin());
  size_t hi = static_cast<size_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), iv.hi, less_value) -
      sorted_.begin());
  if (lo < hi) {
    // Whole chunks inside [lo, hi) come from one cumulative difference; the
    // ragged ends are set individually. The cumulative bitmaps are bound to
    // the main segment's universe and zero-extended into the full prefix.
    size_t first_chunk = (lo + chunk_ - 1) / chunk_;
    size_t last_chunk = hi / chunk_;
    if (first_chunk < last_chunk && last_chunk < cum_.size()) {
      out.OrZeroExtended(cum_[last_chunk]);
      out.SubtractZeroExtended(cum_[first_chunk]);
      for (size_t i = lo; i < first_chunk * chunk_; ++i) out.Set(sorted_[i].row);
      for (size_t i = last_chunk * chunk_; i < hi; ++i) out.Set(sorted_[i].row);
    } else {
      for (size_t i = lo; i < hi; ++i) out.Set(sorted_[i].row);
    }
  }
  if (!delta_.empty()) {
    size_t dlo = static_cast<size_t>(
        std::lower_bound(delta_.begin(), delta_.end(), iv.lo, value_less) -
        delta_.begin());
    size_t dhi = static_cast<size_t>(
        std::upper_bound(delta_.begin(), delta_.end(), iv.hi, less_value) -
        delta_.begin());
    for (size_t i = dlo; i < dhi; ++i) out.Set(delta_[i].row);
  }
  return out;
}

}  // namespace rudolf
