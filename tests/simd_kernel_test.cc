// Kernel-vs-scalar exactness: every tier this build can run on this host
// must produce bit-identical word-packed masks (and identical counts) to the
// scalar reference, for every kernel, across unaligned lengths (the
// ragged-tail path), random data, and sentinel values (INT64_MIN/MAX, empty
// intervals, all-zero and all-one words). This is the gate that lets the
// evaluator, index and tracker paths treat the dispatch tier as an
// implementation detail.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "simd/simd.h"
#include "util/logging.h"
#include "util/random.h"

namespace rudolf::simd {
namespace {

std::vector<Tier> HostTiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  Tier detected = DetectTier();
  if (detected == Tier::kSSE2 || detected == Tier::kAVX2 ||
      detected == Tier::kAVX512) {
    tiers.push_back(Tier::kSSE2);
  }
  if (detected == Tier::kAVX2 || detected == Tier::kAVX512) {
    tiers.push_back(Tier::kAVX2);
  }
  if (detected == Tier::kAVX512) tiers.push_back(Tier::kAVX512);
  if (detected == Tier::kNEON) tiers.push_back(Tier::kNEON);
  return tiers;
}

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Columns mixing random values with adversarial sentinels.
std::vector<int64_t> MakeColumn(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> col(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 9)) {
      case 0:
        col[i] = kMin;
        break;
      case 1:
        col[i] = kMax;
        break;
      case 2:
        col[i] = 0;
        break;
      default:
        col[i] = rng.UniformInt(-1000, 1000);
        break;
    }
  }
  return col;
}

size_t WordsFor(size_t n) { return (n + 63) / 64; }

// Poisoned output buffers: a kernel must *write* every mask word (including
// clearing tail bits), never rely on pre-zeroed memory.
std::vector<uint64_t> Poisoned(size_t nwords) {
  return std::vector<uint64_t>(nwords, ~uint64_t{0});
}

TEST(SimdKernelTest, TierOrderAndNames) {
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(TierName(Tier::kSSE2), "sse2");
  EXPECT_STREQ(TierName(Tier::kAVX2), "avx2");
  EXPECT_STREQ(TierName(Tier::kNEON), "neon");
  EXPECT_STREQ(TierName(Tier::kAVX512), "avx512");
  EXPECT_GE(DetectTier(), Tier::kScalar);
  // ActiveTier is DetectTier clamped by the environment; both must be
  // runnable on this host.
  EXPECT_LE(ActiveTier(), DetectTier());
  // The forced-scalar CI job relies on dispatch honouring the variable.
  const char* env = std::getenv("RUDOLF_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    EXPECT_EQ(ActiveTier(), Tier::kScalar);
  }
}

// RUDOLF_SIMD values: a runnable tier name is taken, "auto" is the detected
// tier, and anything else warns (naming the tier used instead) and keeps
// the detected tier.
TEST(SimdKernelTest, ParseTierNameTable) {
  struct Case {
    const char* value;
    Tier detected;
    Tier want;
    const char* warning;  // substring of the warning; nullptr: none
  };
  const Case kCases[] = {
      {"auto", Tier::kAVX2, Tier::kAVX2, nullptr},
      {"scalar", Tier::kAVX2, Tier::kScalar, nullptr},
      {"sse2", Tier::kAVX2, Tier::kSSE2, nullptr},
      {"avx2", Tier::kAVX2, Tier::kAVX2, nullptr},
      {"avx2", Tier::kAVX512, Tier::kAVX2, nullptr},  // clamps down
      {"avx512", Tier::kAVX512, Tier::kAVX512, nullptr},
      {"neon", Tier::kNEON, Tier::kNEON, nullptr},
      {"scalar", Tier::kNEON, Tier::kScalar, nullptr},
      {"avx512", Tier::kAVX2, Tier::kAVX2, "cannot run it; using avx2"},
      {"neon", Tier::kAVX512, Tier::kAVX512, "cannot run it; using avx512"},
      {"sse2", Tier::kNEON, Tier::kNEON, "cannot run it; using neon"},
      {"avx2", Tier::kSSE2, Tier::kSSE2, "cannot run it; using sse2"},
      {"banana", Tier::kAVX2, Tier::kAVX2, "want scalar|sse2|avx2|avx512"},
      {"AVX2", Tier::kAVX2, Tier::kAVX2, "; using avx2"},
      {" avx2", Tier::kAVX2, Tier::kAVX2, "; using avx2"},
      {"0", Tier::kSSE2, Tier::kSSE2, "; using sse2"},
  };
  LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  for (const Case& c : kCases) {
    testing::internal::CaptureStderr();
    Tier got = ParseTierName(c.value, c.detected);
    std::string warning = testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, c.want) << "'" << c.value << "' on " << TierName(c.detected);
    if (c.warning == nullptr) {
      EXPECT_EQ(warning, "") << "'" << c.value << "'";
    } else {
      EXPECT_NE(warning.find(std::string("RUDOLF_SIMD='") + c.value + "'"),
                std::string::npos)
          << warning;
      EXPECT_NE(warning.find(c.warning), std::string::npos) << warning;
    }
  }
  SetLogLevel(level);
}

TEST(SimdKernelTest, RangeMaskAllTiersAllLengths) {
  const std::vector<Tier> tiers = HostTiers();
  const std::vector<int64_t> col = MakeColumn(257, 1);
  const std::pair<int64_t, int64_t> intervals[] = {
      {-100, 100}, {0, 0},      {kMin, kMax}, {kMin, -500},
      {500, kMax}, {10, -10},  // empty: lo > hi
      {kMax, kMax}, {kMin, kMin},
  };
  for (size_t n = 0; n <= col.size(); ++n) {
    for (const auto& [lo, hi] : intervals) {
      std::vector<uint64_t> ref = Poisoned(WordsFor(n) + 1);
      RangeMaskI64Tier(Tier::kScalar, col.data(), n, lo, hi, ref.data());
      // Scalar reference must agree with a naive per-row evaluation.
      for (size_t i = 0; i < n; ++i) {
        bool expect = lo <= col[i] && col[i] <= hi;
        ASSERT_EQ((ref[i / 64] >> (i % 64)) & 1, expect ? 1u : 0u)
            << "row " << i << " n=" << n << " lo=" << lo << " hi=" << hi;
      }
      // Tail bits of the last mask word must be cleared.
      if (n % 64 != 0) {
        ASSERT_EQ(ref[n / 64] & ~((uint64_t{1} << (n % 64)) - 1), 0u) << n;
      }
      for (Tier t : tiers) {
        std::vector<uint64_t> got = Poisoned(WordsFor(n) + 1);
        RangeMaskI64Tier(t, col.data(), n, lo, hi, got.data());
        for (size_t w = 0; w < WordsFor(n); ++w) {
          ASSERT_EQ(got[w], ref[w])
              << TierName(t) << " word " << w << " n=" << n << " lo=" << lo
              << " hi=" << hi;
        }
      }
    }
  }
}

// Equality is the point interval [v, v] of the range kernel.
TEST(SimdKernelTest, EqMaskAllTiersAllLengths) {
  const std::vector<Tier> tiers = HostTiers();
  const std::vector<int64_t> col = MakeColumn(257, 2);
  const int64_t values[] = {0, 1, -1, kMin, kMax, 777};
  for (size_t n = 0; n <= col.size(); ++n) {
    for (int64_t v : values) {
      std::vector<uint64_t> ref = Poisoned(WordsFor(n) + 1);
      RangeMaskI64Tier(Tier::kScalar, col.data(), n, v, v, ref.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ((ref[i / 64] >> (i % 64)) & 1, col[i] == v ? 1u : 0u);
      }
      for (Tier t : tiers) {
        std::vector<uint64_t> got = Poisoned(WordsFor(n) + 1);
        RangeMaskI64Tier(t, col.data(), n, v, v, got.data());
        for (size_t w = 0; w < WordsFor(n); ++w) {
          ASSERT_EQ(got[w], ref[w]) << TierName(t) << " n=" << n << " v=" << v;
        }
      }
    }
  }
}

TEST(SimdKernelTest, InSetMaskBoundsCheckedMembership) {
  const std::vector<Tier> tiers = HostTiers();
  // Values deliberately include negatives and >= domain: non-members.
  Rng rng(3);
  std::vector<int64_t> col(257);
  for (auto& v : col) v = rng.UniformInt(-5, 20);
  std::vector<uint8_t> member(16, 0);
  for (size_t i = 0; i < member.size(); i += 3) member[i] = 1;
  for (size_t n = 0; n <= col.size(); ++n) {
    std::vector<uint64_t> ref = Poisoned(WordsFor(n) + 1);
    InSetMaskI64Tier(Tier::kScalar, col.data(), n, member.data(),
                     member.size(), ref.data());
    for (size_t i = 0; i < n; ++i) {
      bool expect = col[i] >= 0 &&
                    static_cast<size_t>(col[i]) < member.size() &&
                    member[static_cast<size_t>(col[i])] != 0;
      ASSERT_EQ((ref[i / 64] >> (i % 64)) & 1, expect ? 1u : 0u) << i;
    }
    for (Tier t : tiers) {
      std::vector<uint64_t> got = Poisoned(WordsFor(n) + 1);
      InSetMaskI64Tier(t, col.data(), n, member.data(), member.size(),
                       got.data());
      for (size_t w = 0; w < WordsFor(n); ++w) {
        ASSERT_EQ(got[w], ref[w]) << TierName(t) << " n=" << n;
      }
    }
  }
}

// Word arrays for the counting kernels: each word is all-zero, all-one, a
// dense random word or a sparse one.
std::vector<uint64_t> MakeWords(size_t n, Rng* rng) {
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    switch (rng->UniformInt(0, 3)) {
      case 0:
        w = 0;
        break;
      case 1:
        w = ~uint64_t{0};
        break;
      case 2:
        w = rng->Next();
        break;
      default:
        w = rng->Next() & rng->Next() & rng->Next();
        break;
    }
  }
  return words;
}

// The inputs of one CountCoverDelta call: two captures that agree on some
// words (the skipped path) and differ in one bit or arbitrarily on others,
// and planes whose fraud and legit words are disjoint, as labels are.
struct CoverDeltaInput {
  std::vector<uint64_t> prev, next, covered, once, fraud, legit;

  CoverDeltaInput(size_t n, uint64_t seed) {
    Rng rng(seed);
    prev = MakeWords(n, &rng);
    next = MakeWords(n, &rng);
    for (size_t w = 0; w < n; ++w) {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          next[w] = prev[w];
          break;
        case 1:
          next[w] = prev[w] ^ (uint64_t{1} << rng.UniformInt(0, 63));
          break;
        default:
          break;
      }
    }
    covered = MakeWords(n, &rng);
    once = MakeWords(n, &rng);
    fraud = MakeWords(n, &rng);
    legit = MakeWords(n, &rng);
    for (size_t w = 0; w < n; ++w) legit[w] &= ~fraud[w];
  }

  CoverPlanes planes() const {
    return {covered.data(), once.data(), fraud.data(), legit.data()};
  }
};

// The kernel's definition, one bit at a time, over `in`'s planes.
CoverDeltaCounts NaiveCoverDelta(const std::vector<uint64_t>& prev,
                                 const std::vector<uint64_t>& next,
                                 const CoverDeltaInput& in, size_t n) {
  CoverDeltaCounts c;
  for (size_t i = 0; i < n * 64; ++i) {
    auto bit = [i](const std::vector<uint64_t>& v) {
      return ((v[i / 64] >> (i % 64)) & 1) != 0;
    };
    bool gained = bit(next) && !bit(prev) && !bit(in.covered);
    bool lost = bit(prev) && !bit(next) && bit(in.once);
    if (!gained && !lost) continue;
    LabelRowCounts& side = gained ? c.gained : c.lost;
    if (bit(in.fraud)) {
      ++side.fraud;
    } else if (bit(in.legit)) {
      ++side.legit;
    } else {
      ++side.unlabeled;
    }
  }
  return c;
}

TEST(SimdKernelTest, CountCoverDeltaAllTiersAllLengths) {
  const std::vector<Tier> tiers = HostTiers();
  const CoverDeltaInput in(41, 6);
  for (size_t n = 0; n <= in.prev.size(); ++n) {
    CoverDeltaCounts ref = CountCoverDeltaTier(
        Tier::kScalar, in.prev.data(), in.next.data(), in.planes(), n);
    ASSERT_EQ(ref, NaiveCoverDelta(in.prev, in.next, in, n)) << "n=" << n;
    for (Tier t : tiers) {
      CoverDeltaCounts got = CountCoverDeltaTier(
          t, in.prev.data(), in.next.data(), in.planes(), n);
      ASSERT_EQ(got, ref) << TierName(t) << " n=" << n;
    }
  }
}

// Uniform captures: nothing changes when they agree; all-zero to all-one
// gains every uncovered row, the reverse loses every once-covered row.
TEST(SimdKernelTest, CountCoverDeltaUniformCaptures) {
  const CoverDeltaInput in(41, 8);
  const size_t n = in.prev.size();
  const std::vector<uint64_t> zeros(n, 0);
  const std::vector<uint64_t> ones(n, ~uint64_t{0});
  for (Tier t : HostTiers()) {
    EXPECT_EQ(CountCoverDeltaTier(t, ones.data(), ones.data(), in.planes(), n),
              CoverDeltaCounts{})
        << TierName(t);
    EXPECT_EQ(CountCoverDeltaTier(t, zeros.data(), ones.data(), in.planes(), n),
              NaiveCoverDelta(zeros, ones, in, n))
        << TierName(t);
    EXPECT_EQ(CountCoverDeltaTier(t, ones.data(), zeros.data(), in.planes(), n),
              NaiveCoverDelta(ones, zeros, in, n))
        << TierName(t);
  }
}

TEST(SimdKernelTest, DispatchingEntryPointsMatchScalar) {
  const std::vector<int64_t> col = MakeColumn(1000, 5);
  std::vector<uint64_t> ref(WordsFor(col.size()));
  std::vector<uint64_t> got(WordsFor(col.size()));

  RangeMaskI64Tier(Tier::kScalar, col.data(), col.size(), -50, 50, ref.data());
  RangeMaskI64(col.data(), col.size(), -50, 50, got.data());
  EXPECT_EQ(got, ref);

  const CoverDeltaInput in(WordsFor(col.size()), 7);
  EXPECT_EQ(CountCoverDelta(in.prev.data(), in.next.data(), in.planes(),
                            in.prev.size()),
            CountCoverDeltaTier(Tier::kScalar, in.prev.data(), in.next.data(),
                                in.planes(), in.prev.size()));
}

}  // namespace
}  // namespace rudolf::simd
