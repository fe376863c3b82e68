// A compressed row bitmap: the universe is split into 2^16-row chunks and
// each non-empty chunk picks the cheapest of three container forms —
// sorted-offset array (sparse), run list (clustered), or dense words —
// roaring-bitmap style. At the 10M-row regime a dense Bitset costs 1.25MB
// regardless of selectivity; a 0.1%-selective posting compresses ~40x,
// which is what keeps a high-cardinality categorical column's postings
// (CategoricalAttributeIndex, the one user) near the column's size. The
// representation is exact: every operation produces the same bits as the
// dense Bitset it mirrors (tests/compressed_bitmap_test fuzzes the
// equivalence).
//
// The interface is what postings need: construction from dense, Append
// (strictly increasing bit positions, the order streaming rows arrive in),
// grow-only Resize, and conversion back to dense words (ToBitset, OrInto).

#ifndef RUDOLF_UTIL_COMPRESSED_BITMAP_H_
#define RUDOLF_UTIL_COMPRESSED_BITMAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitset.h"

namespace rudolf {

/// \brief Chunked array/run/dense hybrid bitmap over row indices [0, size).
class CompressedBitmap {
 public:
  static constexpr size_t kChunkBits = size_t{1} << 16;
  static constexpr size_t kChunkWords = kChunkBits / 64;
  /// Above this cardinality a sorted-offset array stops beating dense words.
  static constexpr size_t kArrayCutoff = 4096;

  CompressedBitmap() = default;

  /// Compresses a dense bitset (same universe, same bits).
  explicit CompressedBitmap(const Bitset& dense);

  size_t size() const { return size_; }

  /// Grows the universe; new bits start clear. Shrinking is not supported.
  void Resize(size_t new_size);

  /// Sets bit `i`, which must be >= size(); the universe grows to i + 1.
  /// This is the posting build path: rows arrive in ascending order, so a
  /// chunk is only ever appended to at its end (arrays stay sorted, runs
  /// extend in place, arrays overflow into dense exactly once).
  void Append(size_t i);

  /// Dense materialization over [0, size()).
  Bitset ToBitset() const;

  /// out |= zext(this); out must span at least size() bits.
  void OrInto(Bitset* out) const;

  /// Heap + object footprint in bytes (what the density heuristics compare
  /// against DenseBytes of the same universe).
  size_t MemoryBytes() const;

  /// Footprint of a dense Bitset over `bits` rows.
  static size_t DenseBytes(size_t bits) { return Bitset::WordsFor(bits) * 8; }

  size_t NumChunks() const { return chunks_.size(); }

 private:
  enum class Kind : uint8_t { kArray, kRuns, kDense };

  // One non-empty chunk; exactly the vector matching `kind` is populated.
  // Runs are [first, last] inclusive so a full chunk is {0, 65535}.
  struct Container {
    Kind kind = Kind::kArray;
    uint32_t card = 0;
    std::vector<uint16_t> array;
    std::vector<std::pair<uint16_t, uint16_t>> runs;
    std::vector<uint64_t> words;
  };

  // Builds the cheapest container for the chunk words (nwords <=
  // kChunkWords); card 0 means "empty, store nothing".
  static Container FromWords(const uint64_t* words, size_t nwords);

  size_t size_ = 0;
  std::vector<uint32_t> keys_;       // ascending chunk indices, non-empty only
  std::vector<Container> chunks_;    // parallel to keys_
};

}  // namespace rudolf

#endif  // RUDOLF_UTIL_COMPRESSED_BITMAP_H_
