// Portable vectorized kernels — the raw-speed layer of the 10M-row scan path
// and of the capture tracker's benefit accounting (DESIGN.md "Vectorized
// predicate kernels"). Two predicate kernels cover every condition form: an
// interval (numeric conditions) and a byte-table membership (categorical
// containment). Each evaluates its predicate over a contiguous int64 column
// data[0, n) and writes a *word-packed mask*: bit i of words[i/64] is 1 iff
// data[i] satisfies the predicate. Masks drop straight into Bitset words
// (Bitset::OrWords), so a columnar scan becomes a handful of
// cache-streaming kernel passes instead of a per-row branchy loop. The
// counting kernel goes the other way: it reads word-packed masks and
// returns masked popcounts.
//
// Dispatch has two layers:
//   * compile time — the translation unit builds every tier the
//     architecture + compiler can express: AVX-512 (F+DQ; compares write
//     mask registers directly, one VPCMP per 8 rows), AVX2 (via the
//     gcc/clang `target(...)` function attribute, so no global -mavx2 is
//     needed; both x86 vector tiers count with POPCNT), SSE2 (the x86_64
//     baseline, with emulated 64-bit compares), NEON (the aarch64
//     baseline), and a plain scalar fallback that exists everywhere;
//   * run time — ActiveTier() picks the highest tier the host CPU supports,
//     clamped down by the RUDOLF_SIMD environment variable
//     (scalar|sse2|avx2|avx512|neon|auto). The choice is resolved once per
//     process and recorded in the obs registry as `simd.dispatch_tier`.
//
// Every tier produces bit-identical results by construction; the
// kernel-vs-scalar exactness suite (tests/simd_kernel_test) sweeps all
// compiled-in tiers over unaligned lengths and sentinel values.

#ifndef RUDOLF_SIMD_SIMD_H_
#define RUDOLF_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rudolf::simd {

/// Dispatch tiers, ordered by capability within an architecture. Numeric
/// values are stable (they are exported via the obs registry).
enum class Tier : int {
  kScalar = 0,
  kSSE2 = 1,
  kAVX2 = 2,
  kNEON = 3,
  kAVX512 = 4,
};

/// "scalar" / "sse2" / "avx2" / "neon" / "avx512".
const char* TierName(Tier tier);

/// Parses a `RUDOLF_SIMD` value against the `detected` tier: a tier name
/// (as TierName spells it) that `detected` can run gives that tier, and
/// "auto" gives `detected`. Anything else — an unknown name, or a tier this
/// build or host cannot run — logs one warning naming the value and the
/// tier used instead, and gives `detected`.
Tier ParseTierName(std::string_view name, Tier detected);

/// Highest tier this build can run on this host (compile-time support ∧
/// runtime CPUID), ignoring the environment override.
Tier DetectTier();

/// The tier the dispatching kernels use: DetectTier() clamped by
/// `RUDOLF_SIMD` through ParseTierName (a request below the detected tier
/// clamps down the x86 ladder; an invalid one warns and keeps the detected
/// tier; unset or empty means auto). Resolved once per process.
Tier ActiveTier();

// ---------------------------------------------------------------------------
// Dispatching predicate kernels. `words` must hold at least (n + 63) / 64
// entries; every mask bit in [0, n) is written (not ORed) and the trailing
// bits of the last word are cleared, so outputs compose with Bitset's
// padding invariant.
// ---------------------------------------------------------------------------

/// words ← mask of (lo <= data[i] && data[i] <= hi). An empty interval
/// (lo > hi) produces an all-zero mask.
void RangeMaskI64(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                  uint64_t* words);

/// Small-domain membership for dictionary-coded categorical columns:
/// words ← mask of (0 <= data[i] < domain && member[data[i]] != 0).
/// `member` is a byte-per-value table (e.g. an ontology containment mask).
/// Out-of-domain cells are treated as non-members, which matches how the
/// index/extend paths treat malformed concept ids.
void InSetMaskI64(const int64_t* data, size_t n, const uint8_t* member,
                  size_t domain, uint64_t* words);

/// Rows of one mask by visible label: in the fraud plane, in the legit
/// plane, and in neither (unlabeled).
struct LabelRowCounts {
  uint64_t fraud = 0;
  uint64_t legit = 0;
  uint64_t unlabeled = 0;

  bool operator==(const LabelRowCounts&) const = default;
};

/// The four row planes CountCoverDelta reads, word-packed like the masks.
struct CoverPlanes {
  const uint64_t* covered;  ///< rows some rule captures
  const uint64_t* once;     ///< rows exactly one rule captures
  const uint64_t* fraud;    ///< rows visibly labeled fraud
  const uint64_t* legit;    ///< rows visibly labeled legitimate
};

/// Per-label row counts of one capture edit; see CountCoverDelta.
struct CoverDeltaCounts {
  LabelRowCounts gained;
  LabelRowCounts lost;

  bool operator==(const CoverDeltaCounts&) const = default;
};

/// The rows a capture edit moves across the edge of the covered set — the
/// benefit deltas of CaptureTracker. Over words [0, n) of one rule's
/// capture before (`prev`) and after (`next`) the edit:
///   gained = next & ~prev & ~covered   (rows the edit newly covers)
///   lost   = prev & ~next & once       (rows it leaves uncovered)
/// each split by the `fraud` and `legit` planes (disjoint, as labels are).
/// Words where neither set has a row are skipped.
CoverDeltaCounts CountCoverDelta(const uint64_t* prev, const uint64_t* next,
                                 const CoverPlanes& planes, size_t n);

// Forced-tier variants for equivalence tests and the kernel_scan microbench.
// `tier` must be compiled in and host-supported (≤ DetectTier()).
void RangeMaskI64Tier(Tier tier, const int64_t* data, size_t n, int64_t lo,
                      int64_t hi, uint64_t* words);
void InSetMaskI64Tier(Tier tier, const int64_t* data, size_t n,
                      const uint8_t* member, size_t domain, uint64_t* words);
CoverDeltaCounts CountCoverDeltaTier(Tier tier, const uint64_t* prev,
                                     const uint64_t* next,
                                     const CoverPlanes& planes, size_t n);

}  // namespace rudolf::simd

#endif  // RUDOLF_SIMD_SIMD_H_
