// Microbench for the vectorized predicate kernels (src/simd/) — the raw
// speed behind the 10M-row scaling direction of Figure 3c. Two
// measurements:
//
//   1. Range scan throughput: the pre-kernel per-row branchy loop vs the
//      word-packing scalar kernel vs every SIMD tier the host can run, over
//      a sweep of row counts. Shape check: the best SIMD tier beats the
//      per-row loop by >= 4x at the full stream size.
//   2. Membership kernel throughput at the full stream size: the scan that
//      extracts a categorical condition on a condition-cache miss.
//
// Every timed kernel pass is preceded by bit-identity assertions against
// the scalar reference or the per-row loop — a divergence aborts the bench.

#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "simd/simd.h"
#include "util/bitset.h"
#include "util/random.h"

namespace rudolf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median-free best-of-reps timing: small enough benches that min is stable.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    fn();
    double s = SecondsSince(t0);
    if (s < best) best = s;
  }
  return best;
}

uint64_t ChecksumWords(const std::vector<uint64_t>& words) {
  uint64_t h = 0;
  for (uint64_t w : words) h = h * 0x9E3779B97F4A7C15ULL + w;
  return h;
}

// The evaluator's pre-kernel inner loop: branch per row, bit-set per match.
void RowLoopRange(const std::vector<int64_t>& col, int64_t lo, int64_t hi,
                  Bitset* out) {
  for (size_t r = 0; r < col.size(); ++r) {
    if (lo <= col[r] && col[r] <= hi) out->Set(r);
  }
}

struct TierResult {
  simd::Tier tier;
  double mrows_s = 0;
};

}  // namespace

int Run() {
  const size_t rows = bench::BenchRows(2'000'000);
  bench::Banner("Fig. 3c regime (kernel_scan microbench)",
                "columnar scans stay sub-second at millions of rows; "
                "vectorized kernels keep per-row cost flat");
  bench::BenchJson json("kernel_scan", rows);

  Rng rng(20260808);
  std::vector<int64_t> col(rows);
  for (auto& v : col) v = rng.UniformInt(0, 999);
  const int64_t lo = 100, hi = 119;  // ~2% selective interval

  const simd::Tier active = simd::ActiveTier();
  std::printf("rows: %zu   detected tier: %s   active tier: %s\n\n", rows,
              simd::TierName(simd::DetectTier()), simd::TierName(active));
  json.Metric("simd.active_tier", static_cast<double>(active));

  // --- 1. range-scan throughput sweep --------------------------------------
  const simd::Tier detected = simd::DetectTier();
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (detected == simd::Tier::kSSE2 || detected == simd::Tier::kAVX2 ||
      detected == simd::Tier::kAVX512) {
    tiers.push_back(simd::Tier::kSSE2);
  }
  if (detected == simd::Tier::kAVX2 || detected == simd::Tier::kAVX512) {
    tiers.push_back(simd::Tier::kAVX2);
  }
  if (detected == simd::Tier::kAVX512) tiers.push_back(simd::Tier::kAVX512);
  if (detected == simd::Tier::kNEON) tiers.push_back(simd::Tier::kNEON);

  size_t nwords = Bitset::WordsFor(rows);
  std::vector<uint64_t> reference(nwords), words(nwords);
  simd::RangeMaskI64Tier(simd::Tier::kScalar, col.data(), rows, lo, hi,
                         reference.data());
  {
    // Bit-identity gates: every tier vs scalar, and the row loop vs scalar.
    Bitset rowloop_bits(rows);
    RowLoopRange(col, lo, hi, &rowloop_bits);
    Bitset kernel_bits(rows);
    kernel_bits.OrWords(reference.data(), 0, nwords);
    if (!(rowloop_bits == kernel_bits)) {
      std::fprintf(stderr, "FATAL: scalar kernel diverges from row loop\n");
      return 1;
    }
    for (simd::Tier t : tiers) {
      simd::RangeMaskI64Tier(t, col.data(), rows, lo, hi, words.data());
      if (words != reference) {
        std::fprintf(stderr, "FATAL: tier %s diverges from scalar\n",
                     simd::TierName(t));
        return 1;
      }
    }
  }

  std::printf("range scan  [%" PRId64 ", %" PRId64 "]  (~2%% selective)\n", lo, hi);
  std::printf("  %-10s %12s %14s\n", "path", "Mrows/s", "vs row loop");
  const int reps = 5;
  double rowloop_s = BestSeconds(reps, [&] {
    Bitset out(rows);
    RowLoopRange(col, lo, hi, &out);
    if (out.Count() == rows + 1) std::abort();  // keep the pass alive
  });
  double rowloop_mrows = static_cast<double>(rows) / rowloop_s / 1e6;
  std::printf("  %-10s %12.1f %14s\n", "row loop", rowloop_mrows, "1.0x");
  json.Metric("range.rowloop_mrows_s", rowloop_mrows);

  std::vector<TierResult> results;
  for (simd::Tier t : tiers) {
    double s = BestSeconds(reps, [&] {
      simd::RangeMaskI64Tier(t, col.data(), rows, lo, hi, words.data());
      if (ChecksumWords(words) == 0) std::abort();
    });
    TierResult r{t, static_cast<double>(rows) / s / 1e6};
    results.push_back(r);
    std::printf("  %-10s %12.1f %13.1fx\n", simd::TierName(t), r.mrows_s,
                r.mrows_s / rowloop_mrows);
    json.Metric(std::string("range.") + simd::TierName(t) + "_mrows_s",
                r.mrows_s);
  }
  double best_simd = 0;
  for (const TierResult& r : results) {
    if (r.tier != simd::Tier::kScalar && r.mrows_s > best_simd) {
      best_simd = r.mrows_s;
    }
  }
  if (best_simd == 0) best_simd = results[0].mrows_s;  // scalar-only build
  json.Metric("range.speedup_simd_vs_rowloop", best_simd / rowloop_mrows);
  json.Metric("range.speedup_simd_vs_scalar", best_simd / results[0].mrows_s);
  bool simd_available = results.size() > 1;

  // The 2%-selective loop above is the row loop's best case: its branch is
  // ~98% predictable, so it rides the branch predictor. Real rule intervals
  // mid-refinement are not that kind — at ~50% selectivity the branch
  // mispredicts every other row and the loop collapses, while kernel cost
  // is flat by construction (no per-row branch). The >=4x gate is on this
  // data-dependent case, the selectivity regime the kernels were built for;
  // the predictable case above is reported ungated. A scalar-only host (or
  // a forced-scalar run) reports but does not gate.
  {
    const int64_t mlo = 0, mhi = 499;  // ~50% of uniform [0, 999]
    double s_loop = BestSeconds(reps, [&] {
      Bitset out(rows);
      RowLoopRange(col, mlo, mhi, &out);
      if (out.Count() == rows + 1) std::abort();
    });
    double s_simd = BestSeconds(reps, [&] {
      simd::RangeMaskI64(col.data(), rows, mlo, mhi, words.data());
      if (ChecksumWords(words) == 0) std::abort();
    });
    double loop_mrows = static_cast<double>(rows) / s_loop / 1e6;
    double simd_mrows = static_cast<double>(rows) / s_simd / 1e6;
    std::printf("  50%% selective (mispredicting branch): row loop %.1f, "
                "kernel %.1f Mrows/s (%.1fx)\n",
                loop_mrows, simd_mrows, simd_mrows / loop_mrows);
    json.Metric("range.rowloop_mispredict_mrows_s", loop_mrows);
    json.Metric("range.speedup_simd_vs_rowloop_mispredict",
                simd_mrows / loop_mrows);
    if (simd_available && rows >= 1'000'000) {
      bench::ShapeCheck(
          "vectorized range scan >= 4x over per-row scan (50% selective)",
          simd_mrows / loop_mrows >= 4.0);
    }
  }

  // Row-count sweep: flat per-row cost is the claim behind Fig. 3c's shape.
  std::printf("\n  sweep (best tier Mrows/s):");
  for (size_t n : {size_t{1} << 17, size_t{1} << 20, rows}) {
    if (n > rows) continue;
    double s = BestSeconds(reps, [&] {
      simd::RangeMaskI64(col.data(), n, lo, hi, words.data());
      if (ChecksumWords(words) == 0) std::abort();
    });
    std::printf("  %zu: %.0f", n, static_cast<double>(n) / s / 1e6);
  }
  std::printf("\n\n");

  // --- 2. membership kernel ------------------------------------------------
  {
    std::vector<uint8_t> member(1000, 0);
    for (size_t v = 0; v < member.size(); v += 7) member[v] = 1;
    simd::InSetMaskI64(col.data(), rows, member.data(), member.size(),
                       words.data());
    Bitset rowloop_bits(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (member[static_cast<size_t>(col[r])] != 0) rowloop_bits.Set(r);
    }
    Bitset kernel_bits(rows);
    kernel_bits.OrWords(words.data(), 0, nwords);
    if (!(rowloop_bits == kernel_bits)) {
      std::fprintf(stderr, "FATAL: membership kernel diverges from row loop\n");
      return 1;
    }
    double s = BestSeconds(reps, [&] {
      simd::InSetMaskI64(col.data(), rows, member.data(), member.size(),
                         words.data());
      if (ChecksumWords(words) == 0) std::abort();
    });
    json.Metric("inset.mrows_s", static_cast<double>(rows) / s / 1e6);
    std::printf("membership scan:      %8.1f Mrows/s\n\n",
                static_cast<double>(rows) / s / 1e6);
  }

  json.Write();
  return 0;
}

}  // namespace rudolf

int main() { return rudolf::Run(); }
