#pragma once
// The fixed-order Pearson fold primitives and their SIMD dispatch.
//
// The Pearson distinguisher folds D traces x G hypotheses x S sample
// points into five running sums. Both owners of that fold run it
// through the primitives below: CpaEngine (cpa.h) buffers traces in
// batches and folds each batch per guess and per sample row; the
// extend-and-prune StreamingScan folds closed hypothesis kinds in guess
// tiles through lanes4_hyp_fold. Neither owns a reduction of its own.
//
// Canonical accumulation order (the determinism contract):
//   - batches are folded in arrival order, and every accumulator cell
//     is updated exactly once per batch;
//   - every per-cell reduction over the batch runs in the fixed 4-lane
//     order of lanes4_* below (lane j takes elements j, j+4, j+8, ...;
//     lanes combine as (l0+l1)+(l2+l3)).
// Results are therefore a pure function of (trace stream, batch size)
// at any worker count and any dispatch kind. A batch of 1 degenerates
// to the exact per-trace fold order; other batch sizes differ from it
// only by the documented <=ULP-level reassociation inside each batch.
//
// Numerical stability: all sums are accumulated over SHIFTED data --
// the first trace folded becomes the reference and every later value
// enters as (x - ref). Pearson correlation is invariant under the
// shift, but the one-pass moment forms dn*sum2 - sum*sum no longer
// cancel catastrophically when traces carry a large DC offset (samples
// ~ 1e7 +- HW used to drive var_t negative and silently zero r).

#include <cstddef>
#include <cstdint>

#include "attack/hypothesis.h"

namespace fd::attack {

// Traces buffered per fold batch. Part of the statistics' identity
// (reassociation within a batch): experiments hash it alongside the
// seed.
inline constexpr std::size_t kDefaultCpaBatch = 64;

// --- fixed-order reduction primitives -------------------------------------
//
// Four independent accumulator lanes over the index stream (lane j sums
// elements j, j+4, j+8, ...), combined as (l0+l1)+(l2+l3). The order is
// part of the kernel's determinism contract: it depends only on n,
// never on alignment, tiling, or the surrounding call site.

[[nodiscard]] double lanes4_sum(const double* x, std::size_t n);
[[nodiscard]] double lanes4_sumsq(const double* x, std::size_t n);
[[nodiscard]] double lanes4_dot(const double* a, const double* b, std::size_t n);

// Fused per-guess fold over one batch/block: sh = sum h, sh2 = sum h^2,
// sht = sum h*t, all in the same 4-lane order.
struct HFold {
  double sh = 0.0;
  double sh2 = 0.0;
  double sht = 0.0;
};
[[nodiscard]] HFold lanes4_fold_h(const double* h, const double* t, std::size_t n);

// --- fused hypothesis tiles ------------------------------------------------
//
// The extend-and-prune scan's inner loop. For each of `count` guesses,
// evaluate the column's model on every trace and fold the shifted
// hypothesis h(g, t) - h(g, 0) against the column's shifted samples
// (the shift mirrors the column's, keeping the one-pass moment forms
// cancellation-safe under any DC offset) in blocks of `batch` traces:
// each block is one lanes4_fold_h over the block, and the block results
// are summed in block order into sh[i], sh2[i], sht[i] (overwritten, not
// accumulated). That is exactly the program of a per-guess loop over a
// materialised hypothesis buffer, and since every hypothesis is an
// integer <= 64, h - h0 is exact in double: no evaluator (libgcc
// popcount, hardware popcnt, a SIMD nibble table) can change a bit of
// any sum.
struct HypColumn {
  HypModel model;
  const KnownLanes* known = nullptr;  // >= traces operands
  const double* t = nullptr;          // traces shifted samples
  std::size_t traces = 0;
};
void lanes4_hyp_fold(const HypColumn& col, std::size_t batch, const std::uint32_t* guesses,
                     std::size_t count, double* sh, double* sh2, double* sht);

// --- runtime SIMD dispatch -------------------------------------------------
//
// lanes4_* dispatch at runtime to the widest implementation whose
// arithmetic is BIT-IDENTICAL to the scalar reference. On x86-64 the
// AVX2 path keeps the four lanes in one 4-double vector register (the
// register IS lanes l0..l3: same j, j+4, j+8 stride, same
// (l0+l1)+(l2+l3) combine, explicit mul-then-add intrinsics -- and the
// avx2 target does not enable the FMA ISA, so contraction into a fused
// multiply-add is structurally impossible, not merely disabled by a
// flag). The AVX2 kind also evaluates hypotheses with hardware popcount,
// so it is only selected when the CPU reports popcnt as well. On
// aarch64 a NEON path splits the lanes across two 2-double registers the
// same way. The choice is resolved once, on first use,
// from the FD_CPA_KERNEL environment variable ("scalar", "avx2",
// "neon") followed by CPU detection; an unavailable or unknown request
// falls back to auto-detection.
enum class CpaSimd : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

[[nodiscard]] const char* cpa_simd_name(CpaSimd kind);
// Whether this build + CPU can run `kind` at all.
[[nodiscard]] bool cpa_simd_available(CpaSimd kind);
// The implementation lanes4_* currently dispatch to.
[[nodiscard]] CpaSimd cpa_active_simd();
// Force a specific implementation (tests/bench). Returns false -- and
// changes nothing -- when `kind` is unavailable on this CPU/build.
bool cpa_force_simd(CpaSimd kind);
// Drop any forced choice and re-resolve from FD_CPA_KERNEL + CPU
// detection (also how tests exercise the env override).
void cpa_reset_simd();

}  // namespace fd::attack
