#include "index/cached_bitmap.h"

#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace rudolf {

bool ResolveCompressBitmaps() {
  // Read once per process, so an invalid value warns once, not once per
  // cached bitmap.
  static const std::optional<int64_t> env =
      IntFromEnv("RUDOLF_COMPRESS", 0, 1);
  return env.value_or(1) == 1;
}

std::shared_ptr<const CachedBitmap> CachedBitmap::Make(Bitset dense) {
  auto out = std::shared_ptr<CachedBitmap>(new CachedBitmap());
  out->size_ = dense.size();
  if (ResolveCompressBitmaps()) {
    CompressedBitmap packed(dense);
    size_t dense_bytes = CompressedBitmap::DenseBytes(dense.size());
    size_t packed_bytes = packed.MemoryBytes();
    // Keep the compressed form only when it at least halves the footprint;
    // near-break-even bitmaps stay dense so the AND-heavy indexed path pays
    // no decode cost for marginal savings.
    if (packed_bytes * 2 < dense_bytes) {
      RUDOLF_COUNTER_ADD("bitmap.compressed.chunks",
                         static_cast<uint64_t>(packed.NumChunks()));
      RUDOLF_COUNTER_ADD("bitmap.compressed.bytes_saved",
                         static_cast<uint64_t>(dense_bytes - packed_bytes));
      out->packed_ = std::make_unique<const CompressedBitmap>(std::move(packed));
      return out;
    }
  }
  out->dense_ = std::make_unique<const Bitset>(std::move(dense));
  return out;
}

size_t CachedBitmap::MemoryBytes() const {
  return packed_ ? packed_->MemoryBytes()
                 : CompressedBitmap::DenseBytes(size_);
}

Bitset CachedBitmap::ToBitset() const {
  return packed_ ? packed_->ToBitset() : *dense_;
}

void CachedBitmap::AndInto(Bitset* out) const {
  if (packed_) {
    packed_->AndInto(out);
  } else {
    *out &= *dense_;
  }
}

}  // namespace rudolf
