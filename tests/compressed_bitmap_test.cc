// Property tests for CompressedBitmap: every operation must produce exactly
// the bits the dense Bitset reference produces, across densities that force
// all three container kinds (array/runs/dense), chunk-boundary universes,
// and randomized op sequences mixing Append/Resize.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/compressed_bitmap.h"
#include "util/random.h"

namespace rudolf {
namespace {

constexpr size_t kChunk = CompressedBitmap::kChunkBits;

// Dense references at assorted densities/shapes over `n` bits.
Bitset RandomSparse(size_t n, double density, Rng* rng) {
  Bitset b(n);
  auto setbits = static_cast<size_t>(static_cast<double>(n) * density);
  for (size_t i = 0; i < setbits; ++i) {
    if (n > 0) {
      b.Set(static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1)));
    }
  }
  return b;
}

Bitset RandomRuns(size_t n, size_t nruns, Rng* rng) {
  Bitset b(n);
  for (size_t i = 0; i < nruns && n > 0; ++i) {
    size_t start = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    size_t len = static_cast<size_t>(rng->UniformInt(1, 5000));
    b.SetRange(start, start + len);
  }
  return b;
}

void ExpectSameBits(const CompressedBitmap& packed, const Bitset& dense) {
  ASSERT_EQ(packed.size(), dense.size());
  EXPECT_TRUE(packed.ToBitset() == dense);
}

TEST(CompressedBitmapTest, RoundTripAcrossDensitiesAndUniverses) {
  Rng rng(1);
  const size_t universes[] = {0,          1,          63,        64,
                              65,         kChunk - 1, kChunk,    kChunk + 1,
                              3 * kChunk, 200000,     1 << 20};
  for (size_t n : universes) {
    const Bitset shapes[] = {
        Bitset(n),                      // empty
        Bitset(n, true),                // full
        RandomSparse(n, 0.001, &rng),   // array containers
        RandomSparse(n, 0.3, &rng),     // dense containers
        RandomRuns(n, 5, &rng),         // run containers
    };
    for (const Bitset& dense : shapes) {
      ExpectSameBits(CompressedBitmap(dense), dense);
    }
  }
}

TEST(CompressedBitmapTest, FullChunkRunHandlesLastOffset) {
  // A fully set chunk exercises the [first, last]=[0, 65535] inclusive run.
  Bitset dense(2 * kChunk);
  dense.SetRange(0, kChunk);
  dense.Set(2 * kChunk - 1);
  ExpectSameBits(CompressedBitmap(dense), dense);
}

TEST(CompressedBitmapTest, AppendMatchesDenseSetSequence) {
  Rng rng(3);
  CompressedBitmap packed;
  std::vector<size_t> positions;
  size_t next = 0;
  for (int i = 0; i < 3000; ++i) {
    // Mix of tight (run-forming), skipping (array-forming), and
    // chunk-jumping appends.
    switch (rng.UniformInt(0, 9)) {
      case 0:
        next += static_cast<size_t>(rng.UniformInt(1000, 70000));
        break;
      case 1:
      case 2:
        next += static_cast<size_t>(rng.UniformInt(2, 50));
        break;
      default:
        next += 1;
        break;
    }
    packed.Append(next - 1);  // Append(i) grows size to i+1
    positions.push_back(next - 1);
  }
  Bitset dense(packed.size());
  for (size_t p : positions) dense.Set(p);
  ExpectSameBits(packed, dense);
}

TEST(CompressedBitmapTest, AppendArrayOverflowConvertsToDense) {
  // > kArrayCutoff strided appends inside one chunk force array -> dense.
  CompressedBitmap packed;
  Bitset dense;
  for (size_t i = 0; i < 2 * CompressedBitmap::kArrayCutoff + 10; ++i) {
    size_t pos = i * 2;
    packed.Append(pos);
    dense.Resize(pos + 1);
    dense.Set(pos);
  }
  ExpectSameBits(packed, dense);
}

TEST(CompressedBitmapTest, ResizeGrowsWithClearBits) {
  Rng rng(4);
  Bitset dense = RandomSparse(1000, 0.05, &rng);
  CompressedBitmap packed(dense);
  packed.Resize(kChunk + 777);
  dense.Resize(kChunk + 777);
  ExpectSameBits(packed, dense);
  packed.Append(kChunk + 900);
  dense.Resize(kChunk + 901);
  dense.Set(kChunk + 900);
  ExpectSameBits(packed, dense);
}

TEST(CompressedBitmapTest, InPlaceMergesIntoBitset) {
  Rng rng(6);
  const size_t n = kChunk + 4567;
  Bitset da = RandomRuns(n, 4, &rng);
  Bitset db = RandomSparse(n, 0.01, &rng);
  CompressedBitmap pa(da);

  // OrInto accepts a larger destination (zero-extension).
  Bitset wider(n + 5000);
  wider.OrZeroExtended(db);
  Bitset expect_or = wider;
  expect_or.OrZeroExtended(da);
  Bitset got_or = wider;
  pa.OrInto(&got_or);
  EXPECT_TRUE(got_or == expect_or);
}

TEST(CompressedBitmapTest, RandomizedOpSequenceAgainstDenseReference) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    Bitset dense = RandomSparse(50000, 0.01, &rng);
    CompressedBitmap packed(dense);
    for (int step = 0; step < 40; ++step) {
      if (rng.Bernoulli(0.5)) {  // append a little past the end
        size_t pos = packed.size() +
                     static_cast<size_t>(rng.UniformInt(0, 3000));
        packed.Append(pos);
        dense.Resize(pos + 1);
        dense.Set(pos);
      } else {  // grow
        size_t grown = packed.size() +
                       static_cast<size_t>(rng.UniformInt(1, kChunk));
        packed.Resize(grown);
        dense.Resize(grown);
      }
      ASSERT_EQ(packed.size(), dense.size()) << "trial " << trial << " step " << step;
      ASSERT_TRUE(packed.ToBitset() == dense)
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(CompressedBitmapTest, MemoryAccountingFavorsSparseAndClustered) {
  const size_t n = 1 << 20;
  Rng rng(8);
  Bitset sparse = RandomSparse(n, 0.001, &rng);
  Bitset clustered(n);
  clustered.SetRange(1000, 11000);
  Bitset dense_half = RandomSparse(n, 0.5, &rng);

  size_t dense_bytes = CompressedBitmap::DenseBytes(n);
  EXPECT_LT(CompressedBitmap(sparse).MemoryBytes() * 5, dense_bytes);
  EXPECT_LT(CompressedBitmap(clustered).MemoryBytes() * 100, dense_bytes);
  // Half-density is incompressible here; footprint stays within ~2x dense.
  EXPECT_LT(CompressedBitmap(dense_half).MemoryBytes(), 2 * dense_bytes);
}

}  // namespace
}  // namespace rudolf
