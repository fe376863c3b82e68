// The value type of the ConditionCache: one immutable per-condition capture
// bitmap, stored dense (Bitset) or compressed (CompressedBitmap) — whichever
// is cheaper for its density. The choice is invisible to readers: AndInto /
// ToBitset produce exactly the bits of the dense original, so the indexed
// evaluation path stays bit-identical to the scan whatever the
// representation (the extend-equivalence and indexed-vs-scan suites gate
// this). At the 10M-row regime this is what keeps a warm cache of sparse
// conditions at kilobytes instead of 1.25MB per entry.

#ifndef RUDOLF_INDEX_CACHED_BITMAP_H_
#define RUDOLF_INDEX_CACHED_BITMAP_H_

#include <cstddef>
#include <memory>

#include "util/bitset.h"
#include "util/compressed_bitmap.h"

namespace rudolf {

/// The effective compression setting: `RUDOLF_COMPRESS=0|1` wins over the
/// built-in default (on); any other value warns and keeps the default.
/// Resolved once per process.
bool ResolveCompressBitmaps();

/// \brief Immutable dense-or-compressed condition bitmap.
class CachedBitmap {
 public:
  /// Wraps `dense`, compressing when the roaring form costs at most half
  /// the dense words (and compression is enabled). Updates the
  /// `bitmap.compressed.{chunks,bytes_saved}` counters when it compresses.
  static std::shared_ptr<const CachedBitmap> Make(Bitset dense);

  size_t size() const { return size_; }
  bool compressed() const { return packed_ != nullptr; }

  /// Heap footprint of the stored representation.
  size_t MemoryBytes() const;

  /// Dense materialization (copy).
  Bitset ToBitset() const;

  /// out &= this; `out` must span exactly size() bits.
  void AndInto(Bitset* out) const;

 private:
  CachedBitmap() = default;

  size_t size_ = 0;
  std::unique_ptr<const Bitset> dense_;              // exactly one of these
  std::unique_ptr<const CompressedBitmap> packed_;   // two is non-null
};

}  // namespace rudolf

#endif  // RUDOLF_INDEX_CACHED_BITMAP_H_
