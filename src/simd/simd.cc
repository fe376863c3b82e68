#include "simd/simd.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define RUDOLF_SIMD_X86 1
#include <immintrin.h>
#if defined(__GNUC__) || defined(__clang__)
// AVX2/AVX-512 bodies are compiled per-function via the target attribute, so
// the rest of the binary keeps the baseline ISA and no global -mavx2 is
// needed.
#define RUDOLF_SIMD_HAVE_AVX2_TARGET 1
#define RUDOLF_SIMD_HAVE_AVX512_TARGET 1
#endif
#endif

#if defined(__aarch64__)
#define RUDOLF_SIMD_NEON 1
#include <arm_neon.h>
#endif

// The scalar tier is the reference implementation the exactness suite and
// the forced-scalar CI job compare against; keep the compiler from
// auto-vectorizing it so "scalar" means what it says.
#if defined(__GNUC__) && !defined(__clang__)
#define RUDOLF_NO_AUTOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define RUDOLF_NO_AUTOVEC
#endif

namespace rudolf::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier — branchless word packing, 64 rows per output word.
// ---------------------------------------------------------------------------

RUDOLF_NO_AUTOVEC
void RangeMaskScalar(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                     uint64_t* words) {
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t m = 0;
    for (int b = 0; b < 64; ++b) {
      m |= static_cast<uint64_t>(lo <= p[b] && p[b] <= hi) << b;
    }
    words[w] = m;
  }
  size_t tail = n - nw * 64;
  if (tail != 0) {
    const int64_t* p = data + nw * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < tail; ++b) {
      m |= static_cast<uint64_t>(lo <= p[b] && p[b] <= hi) << b;
    }
    words[nw] = m;
  }
}

// The counting kernel's word bodies. Each kernel body inlines them, so
// their popcounts compile to that body's instruction: a libgcc call
// at the x86-64 baseline (the build has no -mpopcnt), POPCNT under
// target("popcnt"), and CNT on aarch64.
__attribute__((always_inline)) inline void AddByLabel(uint64_t mask,
                                                      uint64_t fraud,
                                                      uint64_t legit,
                                                      LabelRowCounts* c) {
  c->fraud += static_cast<uint64_t>(__builtin_popcountll(mask & fraud));
  c->legit += static_cast<uint64_t>(__builtin_popcountll(mask & legit));
  c->unlabeled +=
      static_cast<uint64_t>(__builtin_popcountll(mask & ~(fraud | legit)));
}

__attribute__((always_inline)) inline void AddCoverDeltaWord(
    const uint64_t* prev, const uint64_t* next, const CoverPlanes& planes,
    size_t w, CoverDeltaCounts* c) {
  uint64_t gained = next[w] & ~prev[w] & ~planes.covered[w];
  uint64_t lost = prev[w] & ~next[w] & planes.once[w];
  if ((gained | lost) == 0) return;
  AddByLabel(gained, planes.fraud[w], planes.legit[w], &c->gained);
  AddByLabel(lost, planes.fraud[w], planes.legit[w], &c->lost);
}

RUDOLF_NO_AUTOVEC
CoverDeltaCounts CountCoverDeltaScalar(const uint64_t* prev,
                                       const uint64_t* next,
                                       const CoverPlanes& planes, size_t n) {
  CoverDeltaCounts c;
  for (size_t w = 0; w < n; ++w) AddCoverDeltaWord(prev, next, planes, w, &c);
  return c;
}

// Membership is a byte-table lookup, so every tier shares this packed loop:
// the win over the old per-row path is the branch-free packing, not wider
// lanes (int64 indexes cannot gather from a byte table portably).
void InSetMaskImpl(const int64_t* data, size_t n, const uint8_t* member,
                   size_t domain, uint64_t* words) {
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t m = 0;
    for (int b = 0; b < 64; ++b) {
      uint64_t v = static_cast<uint64_t>(p[b]);
      uint64_t bit = v < domain ? static_cast<uint64_t>(member[v] != 0) : 0;
      m |= bit << b;
    }
    words[w] = m;
  }
  size_t tail = n - nw * 64;
  if (tail != 0) {
    const int64_t* p = data + nw * 64;
    uint64_t m = 0;
    for (size_t b = 0; b < tail; ++b) {
      uint64_t v = static_cast<uint64_t>(p[b]);
      uint64_t bit = v < domain ? static_cast<uint64_t>(member[v] != 0) : 0;
      m |= bit << b;
    }
    words[nw] = m;
  }
}

// ---------------------------------------------------------------------------
// SSE2 tier — the x86_64 baseline. SSE2 has no 64-bit compares; they are
// emulated with the canonical dword sequences (verified exhaustively against
// the scalar tier by tests/simd_kernel_test, including INT64_MIN/MAX).
// ---------------------------------------------------------------------------

#if defined(RUDOLF_SIMD_X86)

// Signed a > b per 64-bit lane, SSE2 only: the high dword decides when the
// high dwords differ; when they are equal, the sign of the 64-bit borrow
// subtract (b - a) decides. srai broadcasts each dword's sign and the
// shuffle copies the high-dword verdict across its lane.
inline __m128i CmpGtI64Sse2(__m128i a, __m128i b) {
  __m128i r = _mm_and_si128(_mm_cmpeq_epi32(a, b), _mm_sub_epi64(b, a));
  r = _mm_or_si128(r, _mm_cmpgt_epi32(a, b));
  r = _mm_srai_epi32(r, 31);
  return _mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1));
}

void RangeMaskSse2(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                   uint64_t* words) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t m = 0;
    for (int g = 0; g < 64; g += 2) {
      __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + g));
      __m128i bad = _mm_or_si128(CmpGtI64Sse2(vlo, x), CmpGtI64Sse2(x, vhi));
      unsigned bits =
          static_cast<unsigned>(_mm_movemask_pd(_mm_castsi128_pd(bad)));
      m |= static_cast<uint64_t>(~bits & 0x3u) << g;
    }
    words[w] = m;
  }
  size_t tail = n - nw * 64;
  if (tail != 0) RangeMaskScalar(data + nw * 64, tail, lo, hi, words + nw);
}

#endif  // RUDOLF_SIMD_X86

#if defined(RUDOLF_SIMD_HAVE_AVX2_TARGET)

// The counting kernel of the AVX2 and AVX-512 tiers: the scalar word loop
// with the hardware popcount (both tiers' DetectTier probes require POPCNT).
__attribute__((target("popcnt"))) CoverDeltaCounts CountCoverDeltaPopcnt(
    const uint64_t* prev, const uint64_t* next, const CoverPlanes& planes,
    size_t n) {
  CoverDeltaCounts c;
  for (size_t w = 0; w < n; ++w) AddCoverDeltaWord(prev, next, planes, w, &c);
  return c;
}

__attribute__((target("avx2"))) void RangeMaskAvx2(const int64_t* data,
                                                   size_t n, int64_t lo,
                                                   int64_t hi,
                                                   uint64_t* words) {
  if (lo > hi) {  // empty interval: the contract still writes every word
    for (size_t w = 0; w < (n + 63) / 64; ++w) words[w] = 0;
    return;
  }
  // One compare per vector instead of two: lo <= x <= hi  <=>
  // (u64)(x - lo) <= (u64)(hi - lo). VPCMPGTQ is the port bottleneck of the
  // two-compare form (all compares contend on one ALU port), so halving the
  // compares nearly doubles throughput. The unsigned compare is a signed
  // VPCMPGTQ after flipping the sign bit of both sides.
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<int64_t>(uint64_t{1} << 63));
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  const __m256i vrangef =
      _mm256_set1_epi64x(static_cast<int64_t>(range ^ (uint64_t{1} << 63)));
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t m = 0;
    for (int g = 0; g < 64; g += 4) {
      __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + g));
      __m256i uxf = _mm256_xor_si256(_mm256_sub_epi64(x, vlo), vsign);
      __m256i bad = _mm256_cmpgt_epi64(uxf, vrangef);
      unsigned bits =
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(bad)));
      m |= static_cast<uint64_t>(~bits & 0xFu) << g;
    }
    words[w] = m;
  }
  size_t tail = n - nw * 64;
  if (tail != 0) RangeMaskScalar(data + nw * 64, tail, lo, hi, words + nw);
}

#endif  // RUDOLF_SIMD_HAVE_AVX2_TARGET

// ---------------------------------------------------------------------------
// AVX-512 tier. Mask-register compares are purpose-built for this kernel
// contract: one VPCMP per 8 rows yields an in-order __mmask8, so a 64-row
// output word is eight compares plus shifts — no movemask, no per-lane
// extraction. F+DQ is the feature gate (DQ for the byte-mask moves).
// ---------------------------------------------------------------------------

#if defined(RUDOLF_SIMD_HAVE_AVX512_TARGET)

__attribute__((target("avx512f,avx512dq,avx512bw"))) void RangeMaskAvx512(
    const int64_t* data, size_t n, int64_t lo, int64_t hi, uint64_t* words) {
  if (lo > hi) {  // empty interval: the contract still writes every word
    for (size_t w = 0; w < (n + 63) / 64; ++w) words[w] = 0;
    return;
  }
  // Same biased-range formulation as the AVX2 tier, but AVX-512 compares
  // unsigned natively: in-range iff (u64)(x - lo) <= (u64)(hi - lo).
  const __m512i vlo = _mm512_set1_epi64(lo);
  const __m512i vrange = _mm512_set1_epi64(
      static_cast<int64_t>(static_cast<uint64_t>(hi) -
                           static_cast<uint64_t>(lo)));
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    // Eight __mmask8 results fold into one 64-bit word inside the mask
    // registers (kunpck tree), so only a single kmovq leaves the mask
    // domain per word.
    __mmask8 k[8];
    for (int g = 0; g < 8; ++g) {
      __m512i x =
          _mm512_loadu_si512(reinterpret_cast<const void*>(p + g * 8));
      k[g] = _mm512_cmple_epu64_mask(_mm512_sub_epi64(x, vlo), vrange);
    }
    __mmask16 k01 = _mm512_kunpackb(k[1], k[0]);
    __mmask16 k23 = _mm512_kunpackb(k[3], k[2]);
    __mmask16 k45 = _mm512_kunpackb(k[5], k[4]);
    __mmask16 k67 = _mm512_kunpackb(k[7], k[6]);
    __mmask32 k03 = _mm512_kunpackw(k23, k01);
    __mmask32 k47 = _mm512_kunpackw(k67, k45);
    words[w] = static_cast<uint64_t>(_mm512_kunpackd(k47, k03));
  }
  size_t tail = n - nw * 64;
  if (tail != 0) RangeMaskScalar(data + nw * 64, tail, lo, hi, words + nw);
}

#endif  // RUDOLF_SIMD_HAVE_AVX512_TARGET

#if defined(RUDOLF_SIMD_NEON)

void RangeMaskNeon(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                   uint64_t* words) {
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  size_t nw = n / 64;
  for (size_t w = 0; w < nw; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t m = 0;
    for (int g = 0; g < 64; g += 2) {
      int64x2_t x = vld1q_s64(p + g);
      uint64x2_t ok = vandq_u64(vcgeq_s64(x, vlo), vcleq_s64(x, vhi));
      m |= (vgetq_lane_u64(ok, 0) & 1) << g;
      m |= (vgetq_lane_u64(ok, 1) & 1) << (g + 1);
    }
    words[w] = m;
  }
  size_t tail = n - nw * 64;
  if (tail != 0) RangeMaskScalar(data + nw * 64, tail, lo, hi, words + nw);
}

#endif  // RUDOLF_SIMD_NEON

// True iff `tier` can run when `detected` was the probed capability — the
// x86 ladder is scalar < sse2 < avx2 < avx512; NEON has only scalar below it.
bool TierRunnable(Tier tier, Tier detected) {
  if (tier == Tier::kScalar || tier == detected) return true;
  switch (detected) {
    case Tier::kAVX512:
      return tier == Tier::kSSE2 || tier == Tier::kAVX2;
    case Tier::kAVX2:
      return tier == Tier::kSSE2;
    default:
      return false;
  }
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSSE2:
      return "sse2";
    case Tier::kAVX2:
      return "avx2";
    case Tier::kNEON:
      return "neon";
    case Tier::kAVX512:
      return "avx512";
  }
  return "scalar";
}

Tier ParseTierName(std::string_view name, Tier detected) {
  if (name == "auto") return detected;
  for (Tier tier : {Tier::kScalar, Tier::kSSE2, Tier::kAVX2, Tier::kNEON,
                    Tier::kAVX512}) {
    if (name != TierName(tier)) continue;
    if (TierRunnable(tier, detected)) return tier;
    RUDOLF_LOG(Warning) << "ignoring RUDOLF_SIMD='" << name
                        << "': this build or host cannot run it; using "
                        << TierName(detected);
    return detected;
  }
  RUDOLF_LOG(Warning) << "ignoring RUDOLF_SIMD='" << name
                      << "': want scalar|sse2|avx2|avx512|neon|auto; using "
                      << TierName(detected);
  return detected;
}

Tier DetectTier() {
#if defined(RUDOLF_SIMD_HAVE_AVX512_TARGET)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("popcnt")) {
    return Tier::kAVX512;
  }
#endif
#if defined(RUDOLF_SIMD_HAVE_AVX2_TARGET)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) {
    return Tier::kAVX2;
  }
#endif
#if defined(RUDOLF_SIMD_X86)
  return Tier::kSSE2;
#elif defined(RUDOLF_SIMD_NEON)
  return Tier::kNEON;
#else
  return Tier::kScalar;
#endif
}

Tier ActiveTier() {
  static const Tier tier = [] {
    Tier detected = DetectTier();
    const char* env = std::getenv("RUDOLF_SIMD");
    Tier chosen = env != nullptr && *env != '\0' ? ParseTierName(env, detected)
                                                  : detected;
    // Exported once so every sidecar records which path ran (0 = scalar,
    // 1 = sse2, 2 = avx2, 3 = neon, 4 = avx512).
    RUDOLF_COUNTER_ADD("simd.dispatch_tier", static_cast<uint64_t>(chosen));
    return chosen;
  }();
  return tier;
}

void RangeMaskI64Tier(Tier tier, const int64_t* data, size_t n, int64_t lo,
                      int64_t hi, uint64_t* words) {
  switch (tier) {
#if defined(RUDOLF_SIMD_HAVE_AVX512_TARGET)
    case Tier::kAVX512:
      RangeMaskAvx512(data, n, lo, hi, words);
      return;
#endif
#if defined(RUDOLF_SIMD_HAVE_AVX2_TARGET)
    case Tier::kAVX2:
      RangeMaskAvx2(data, n, lo, hi, words);
      return;
#endif
#if defined(RUDOLF_SIMD_X86)
    case Tier::kSSE2:
      RangeMaskSse2(data, n, lo, hi, words);
      return;
#endif
#if defined(RUDOLF_SIMD_NEON)
    case Tier::kNEON:
      RangeMaskNeon(data, n, lo, hi, words);
      return;
#endif
    default:
      RangeMaskScalar(data, n, lo, hi, words);
      return;
  }
}

void InSetMaskI64Tier(Tier tier, const int64_t* data, size_t n,
                      const uint8_t* member, size_t domain, uint64_t* words) {
  (void)tier;  // lookup-bound: every tier shares the packed loop
  InSetMaskImpl(data, n, member, domain, words);
}

// SSE2 has no POPCNT, and aarch64's baseline popcount is already the CNT
// instruction, so both run the scalar counting body.
CoverDeltaCounts CountCoverDeltaTier(Tier tier, const uint64_t* prev,
                                     const uint64_t* next,
                                     const CoverPlanes& planes, size_t n) {
#if defined(RUDOLF_SIMD_HAVE_AVX2_TARGET)
  if (tier == Tier::kAVX2 || tier == Tier::kAVX512) {
    return CountCoverDeltaPopcnt(prev, next, planes, n);
  }
#endif
  (void)tier;
  return CountCoverDeltaScalar(prev, next, planes, n);
}

void RangeMaskI64(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                  uint64_t* words) {
  RangeMaskI64Tier(ActiveTier(), data, n, lo, hi, words);
}

void InSetMaskI64(const int64_t* data, size_t n, const uint8_t* member,
                  size_t domain, uint64_t* words) {
  InSetMaskI64Tier(ActiveTier(), data, n, member, domain, words);
}

CoverDeltaCounts CountCoverDelta(const uint64_t* prev, const uint64_t* next,
                                 const CoverPlanes& planes, size_t n) {
  return CountCoverDeltaTier(ActiveTier(), prev, next, planes, n);
}

}  // namespace rudolf::simd
