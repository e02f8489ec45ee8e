#include "attack/cpa_kernel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define FD_CPA_HAVE_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define FD_CPA_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace fd::attack {

// --- fixed-order reduction primitives -------------------------------------
//
// Every implementation below runs the SAME abstract program: four
// accumulator lanes over the index stream (lane j sums elements j,
// j+4, j+8, ...), a scalar tail that tops up lanes 0..2, and the fixed
// (l0+l1)+(l2+l3) combine. The SIMD variants only change WHERE the
// lanes live (one AVX2 register / two NEON registers instead of four
// scalar registers), never the sequence of IEEE-754 operations each
// lane performs -- multiplies and adds stay separate instructions (the
// avx2/neon targets don't enable fused multiply-add, and this file is
// built with -ffp-contract=off besides), so all paths are bit-identical
// and the dispatch choice is a pure wall-clock knob.

namespace {

double scalar_sum(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i];
    l1 += x[i + 1];
    l2 += x[i + 2];
    l3 += x[i + 3];
  }
  if (i < n) l0 += x[i];
  if (i + 1 < n) l1 += x[i + 1];
  if (i + 2 < n) l2 += x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double scalar_sumsq(const double* x, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += x[i] * x[i];
    l1 += x[i + 1] * x[i + 1];
    l2 += x[i + 2] * x[i + 2];
    l3 += x[i + 3] * x[i + 3];
  }
  if (i < n) l0 += x[i] * x[i];
  if (i + 1 < n) l1 += x[i + 1] * x[i + 1];
  if (i + 2 < n) l2 += x[i + 2] * x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double scalar_dot(const double* a, const double* b, std::size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += a[i] * b[i];
    l1 += a[i + 1] * b[i + 1];
    l2 += a[i + 2] * b[i + 2];
    l3 += a[i + 3] * b[i + 3];
  }
  if (i < n) l0 += a[i] * b[i];
  if (i + 1 < n) l1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) l2 += a[i + 2] * b[i + 2];
  return (l0 + l1) + (l2 + l3);
}

HFold scalar_fold_h(const double* h, const double* t, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double q0 = 0.0, q1 = 0.0, q2 = 0.0, q3 = 0.0;
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += h[i];
    s1 += h[i + 1];
    s2 += h[i + 2];
    s3 += h[i + 3];
    q0 += h[i] * h[i];
    q1 += h[i + 1] * h[i + 1];
    q2 += h[i + 2] * h[i + 2];
    q3 += h[i + 3] * h[i + 3];
    d0 += h[i] * t[i];
    d1 += h[i + 1] * t[i + 1];
    d2 += h[i + 2] * t[i + 2];
    d3 += h[i + 3] * t[i + 3];
  }
  if (i < n) {
    s0 += h[i];
    q0 += h[i] * h[i];
    d0 += h[i] * t[i];
  }
  if (i + 1 < n) {
    s1 += h[i + 1];
    q1 += h[i + 1] * h[i + 1];
    d1 += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    s2 += h[i + 2];
    q2 += h[i + 2] * h[i + 2];
    d2 += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (s0 + s1) + (s2 + s3);
  out.sh2 = (q0 + q1) + (q2 + q3);
  out.sht = (d0 + d1) + (d2 + d3);
  return out;
}

// --- batched-cell wrappers -------------------------------------------------
//
// The fold's hot loop updates many independent cells per batch: one
// sum_ht dot per (guess, sample) and one HFold per guess. A single-cell
// reduction is latency-bound (one FP-add dependency chain per lane), so
// the dispatch table also carries multi-cell entry points that keep
// several cells' chains in flight at once. Each cell's reduction is
// STILL the exact lanes4_* program -- the wrappers only interleave
// whole-cell computations, never the arithmetic inside one -- so every
// implementation of dot_cols/fold_h_rows is bit-identical to looping
// the single-cell primitive.

// out[c] += dot(h, t + c*t_stride) for c in [0, cols).
void scalar_dot_cols(const double* h, const double* t, std::size_t t_stride,
                     std::size_t cols, std::size_t n, double* out) {
  for (std::size_t c = 0; c < cols; ++c) out[c] += scalar_dot(h, t + c * t_stride, n);
}

// Cache-blocked transpose of an n x cols trace-major staging area into
// the cols x dst_stride fold layout (row per guess/sample, contiguous
// over the batch index). Pure data movement -- no arithmetic -- so no
// implementation of it can change a bit of any reduction; it is in the
// dispatch table purely because the batch fold spends real time here.
void scalar_transpose(const double* src, std::size_t n, std::size_t cols, double* dst,
                      std::size_t dst_stride) {
  constexpr std::size_t kTile = 16;
  for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
    const std::size_t c1 = std::min(cols, c0 + kTile);
    for (std::size_t r0 = 0; r0 < n; r0 += kTile) {
      const std::size_t r1 = std::min(n, r0 + kTile);
      for (std::size_t c = c0; c < c1; ++c) {
        double* out = dst + c * dst_stride;
        for (std::size_t r = r0; r < r1; ++r) out[r] = src[r * cols + c];
      }
    }
  }
}

// Per row r: sh[r] += fold.sh, sh2[r] += fold.sh2, sht[r*sht_stride] +=
// fold.sht of HFold(h + r*h_stride, t).
void scalar_fold_h_rows(const double* h, std::size_t h_stride, std::size_t rows,
                        const double* t, std::size_t n, double* sh, double* sh2, double* sht,
                        std::size_t sht_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const HFold f = scalar_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

// Single-sample-column batch fold straight off the trace-major staging
// area (row p = trace p's shifted hypotheses, stride `guesses`; t[p] =
// trace p's shifted sample). The default attack shape is G x 1, where
// transposing the staging area costs as much as the fold itself -- this
// entry point skips the transpose entirely. Per guess it is STILL the
// exact lanes4 program over the batch index: trace p lands in lane
// p & 3, lanes combine as (l0+l1)+(l2+l3). sh/sh2/sht are contiguous
// per guess (sum_ht is G x 1 here).
void scalar_fold_s1(const double* hs, std::size_t guesses, std::size_t n, const double* t,
                    double* sh, double* sh2, double* sht) {
  for (std::size_t g = 0; g < guesses; ++g) {
    double ls[4] = {0.0, 0.0, 0.0, 0.0};
    double lq[4] = {0.0, 0.0, 0.0, 0.0};
    double ld[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t p = 0; p < n; ++p) {
      const double v = hs[p * guesses + g];
      ls[p & 3] += v;
      lq[p & 3] += v * v;
      ld[p & 3] += v * t[p];
    }
    sh[g] += (ls[0] + ls[1]) + (ls[2] + ls[3]);
    sh2[g] += (lq[0] + lq[1]) + (lq[2] + lq[3]);
    sht[g] += (ld[0] + ld[1]) + (ld[2] + ld[3]);
  }
}

// --- hypothesis tiles --------------------------------------------------------
//
// The tile program every model kind can run at every dispatch kind: per
// block of the batch, evaluate a guess x block tile of shifted
// hypotheses, then fold it with the dispatch's fold_h_rows -- one lanes4
// fold per guess row, added to that guess's running block sum. Only the
// evaluator (which popcount) and the row fold (which registers) vary by
// dispatch kind; neither can change a bit.

// tile[r * stride + b] = h(guesses[r], t0 + b) - h0[r], with h0 == nullptr
// meaning no shift. K is a template argument so the kind switch folds
// away and the trace loop holds one model's arithmetic.
template <HypKind K>
inline void fill_tile(std::uint32_t x0, const KnownLanes& k, const std::uint32_t* guesses,
                      std::size_t rows, std::size_t t0, std::size_t n, const double* h0,
                      double* tile, std::size_t stride) {
  const HypModel m{K, x0};
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint32_t g = guesses[r];
    const double base = h0 != nullptr ? h0[r] : 0.0;
    double* row = tile + r * stride;
    for (std::size_t b = 0; b < n; ++b) row[b] = hyp_model(m, g, k[t0 + b]) - base;
  }
}

// The reference evaluator: hypothesis.h as written (std::popcount, which
// without a popcnt-enabled target is a libgcc call).
void scalar_eval_tile(const HypModel& m, const KnownLanes& k, const std::uint32_t* guesses,
                      std::size_t rows, std::size_t t0, std::size_t n, const double* h0,
                      double* tile, std::size_t stride) {
  switch (m.kind) {
    case HypKind::kSign:
      return fill_tile<HypKind::kSign>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kExpSum:
      return fill_tile<HypKind::kExpSum>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kMulY0:
      return fill_tile<HypKind::kMulY0>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kMulY1:
      return fill_tile<HypKind::kMulY1>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kAccZ1a:
      return fill_tile<HypKind::kAccZ1a>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kAccZ1b:
      return fill_tile<HypKind::kAccZ1b>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
    case HypKind::kAccZu:
      return fill_tile<HypKind::kAccZu>(m.x0, k, guesses, rows, t0, n, h0, tile, stride);
  }
}

using EvalTileFn = void (*)(const HypModel&, const KnownLanes&, const std::uint32_t*,
                            std::size_t, std::size_t, std::size_t, const double*, double*,
                            std::size_t);
using FoldRowsFn = void (*)(const double*, std::size_t, std::size_t, const double*,
                            std::size_t, double*, double*, double*, std::size_t);

void tile_hyp_fold(EvalTileFn eval, FoldRowsFn fold_rows, const HypColumn& col,
                   std::size_t batch, const std::uint32_t* guesses, std::size_t count,
                   double* sh, double* sh2, double* sht) {
  std::fill_n(sh, count, 0.0);
  std::fill_n(sh2, count, 0.0);
  std::fill_n(sht, count, 0.0);
  if (col.traces == 0 || count == 0) return;
  std::vector<double> h0(count);
  eval(col.model, *col.known, guesses, count, 0, 1, nullptr, h0.data(), 1);
  std::vector<double> tile(count * batch);
  for (std::size_t t0 = 0; t0 < col.traces; t0 += batch) {
    const std::size_t n = std::min(batch, col.traces - t0);
    eval(col.model, *col.known, guesses, count, t0, n, h0.data(), tile.data(), batch);
    fold_rows(tile.data(), batch, count, col.t + t0, n, sh, sh2, sht, 1);
  }
}

void scalar_hyp_fold(const HypColumn& col, std::size_t batch, const std::uint32_t* guesses,
                     std::size_t count, double* sh, double* sh2, double* sht) {
  tile_hyp_fold(scalar_eval_tile, scalar_fold_h_rows, col, batch, guesses, count, sh, sh2, sht);
}

#if defined(FD_CPA_HAVE_AVX2)

// One __m256d register IS the four lanes: _mm256_loadu_pd(x + i) puts
// x[i+j] into lane j, exactly the scalar assignment. Only
// _mm256_add_pd / _mm256_mul_pd are used -- target("avx2") does not
// enable FMA, so the compiler has no fused instruction to contract
// into. The tail reuses the extracted lanes so the scalar top-up is
// literally the same code as the reference.

__attribute__((target("avx2"))) double avx2_sum(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = _mm256_add_pd(acc, _mm256_loadu_pd(x + i));
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += x[i];
  if (i + 1 < n) l[1] += x[i + 1];
  if (i + 2 < n) l[2] += x[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) double avx2_sumsq(const double* x, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
  }
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += x[i] * x[i];
  if (i + 1 < n) l[1] += x[i + 1] * x[i + 1];
  if (i + 2 < n) l[2] += x[i + 2] * x[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) double avx2_dot(const double* a, const double* b,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += a[i] * b[i];
  if (i + 1 < n) l[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) l[2] += a[i + 2] * b[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

__attribute__((target("avx2"))) HFold avx2_fold_h(const double* h, const double* t,
                                                  std::size_t n) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  __m256d d = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d hv = _mm256_loadu_pd(h + i);
    const __m256d tv = _mm256_loadu_pd(t + i);
    s = _mm256_add_pd(s, hv);
    q = _mm256_add_pd(q, _mm256_mul_pd(hv, hv));
    d = _mm256_add_pd(d, _mm256_mul_pd(hv, tv));
  }
  alignas(32) double ls[4], lq[4], ld[4];
  _mm256_store_pd(ls, s);
  _mm256_store_pd(lq, q);
  _mm256_store_pd(ld, d);
  if (i < n) {
    ls[0] += h[i];
    lq[0] += h[i] * h[i];
    ld[0] += h[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += h[i + 1];
    lq[1] += h[i + 1] * h[i + 1];
    ld[1] += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += h[i + 2];
    lq[2] += h[i + 2] * h[i + 2];
    ld[2] += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  out.sh2 = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  out.sht = (ld[0] + ld[1]) + (ld[2] + ld[3]);
  return out;
}

// Horizontal finish of one cell's accumulator: scalar tail into lanes
// 0..2 (identical to avx2_dot's tail), then the fixed combine.
__attribute__((target("avx2"))) inline double avx2_finish_dot(__m256d acc, const double* a,
                                                              const double* b, std::size_t i,
                                                              std::size_t n) {
  alignas(32) double l[4];
  _mm256_store_pd(l, acc);
  if (i < n) l[0] += a[i] * b[i];
  if (i + 1 < n) l[1] += a[i + 1] * b[i + 1];
  if (i + 2 < n) l[2] += a[i + 2] * b[i + 2];
  return (l[0] + l[1]) + (l[2] + l[3]);
}

// Four sample columns at a time: one h load feeds four independent
// mul+add chains, so the FP-add latency that serializes a single cell's
// chain is hidden across cells (and the h row is loaded once per group
// of four instead of once per cell). Each column's accumulator sees the
// exact avx2_dot instruction sequence.
__attribute__((target("avx2"))) void avx2_dot_cols(const double* h, const double* t,
                                                   std::size_t t_stride, std::size_t cols,
                                                   std::size_t n, double* out) {
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const double* t0 = t + c * t_stride;
    const double* t1 = t0 + t_stride;
    const double* t2 = t1 + t_stride;
    const double* t3 = t2 + t_stride;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d hv = _mm256_loadu_pd(h + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(hv, _mm256_loadu_pd(t0 + i)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(hv, _mm256_loadu_pd(t1 + i)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(hv, _mm256_loadu_pd(t2 + i)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(hv, _mm256_loadu_pd(t3 + i)));
    }
    if (i == n) {
      // Full-batch case (no scalar tail): transpose the four lane
      // registers so one vector add sequence computes all four columns'
      // (l0+l1)+(l2+l3) combines at once -- per column the identical
      // arithmetic as avx2_finish_dot, minus four scalar horizontal
      // reductions that otherwise cost as much as the dot loop itself.
      const __m256d u0 = _mm256_unpacklo_pd(a0, a1);
      const __m256d u1 = _mm256_unpackhi_pd(a0, a1);
      const __m256d u2 = _mm256_unpacklo_pd(a2, a3);
      const __m256d u3 = _mm256_unpackhi_pd(a2, a3);
      const __m256d l0 = _mm256_permute2f128_pd(u0, u2, 0x20);
      const __m256d l1 = _mm256_permute2f128_pd(u1, u3, 0x20);
      const __m256d l2 = _mm256_permute2f128_pd(u0, u2, 0x31);
      const __m256d l3 = _mm256_permute2f128_pd(u1, u3, 0x31);
      const __m256d r = _mm256_add_pd(_mm256_add_pd(l0, l1), _mm256_add_pd(l2, l3));
      _mm256_storeu_pd(out + c, _mm256_add_pd(_mm256_loadu_pd(out + c), r));
    } else {
      out[c] += avx2_finish_dot(a0, h, t0, i, n);
      out[c + 1] += avx2_finish_dot(a1, h, t1, i, n);
      out[c + 2] += avx2_finish_dot(a2, h, t2, i, n);
      out[c + 3] += avx2_finish_dot(a3, h, t3, i, n);
    }
  }
  for (; c < cols; ++c) out[c] += avx2_dot(h, t + c * t_stride, n);
}

// Horizontal finish of one row's three accumulators (a lambda can't
// carry the target attribute, so this is a free helper).
__attribute__((target("avx2"))) inline void avx2_finish_fold(__m256d s, __m256d q, __m256d d,
                                                             const double* hr, const double* t,
                                                             std::size_t i, std::size_t n,
                                                             double& sh, double& sh2,
                                                             double& sht) {
  alignas(32) double ls[4], lq[4], ld[4];
  _mm256_store_pd(ls, s);
  _mm256_store_pd(lq, q);
  _mm256_store_pd(ld, d);
  if (i < n) {
    ls[0] += hr[i];
    lq[0] += hr[i] * hr[i];
    ld[0] += hr[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += hr[i + 1];
    lq[1] += hr[i + 1] * hr[i + 1];
    ld[1] += hr[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += hr[i + 2];
    lq[2] += hr[i + 2] * hr[i + 2];
    ld[2] += hr[i + 2] * t[i + 2];
  }
  sh += (ls[0] + ls[1]) + (ls[2] + ls[3]);
  sh2 += (lq[0] + lq[1]) + (lq[2] + lq[3]);
  sht += (ld[0] + ld[1]) + (ld[2] + ld[3]);
}

// Two guess rows at a time against one shared t column: six
// independent accumulator chains (vs three for a single row), same
// per-row arithmetic as avx2_fold_h.
__attribute__((target("avx2"))) void avx2_fold_h_rows(const double* h, std::size_t h_stride,
                                                      std::size_t rows, const double* t,
                                                      std::size_t n, double* sh, double* sh2,
                                                      double* sht, std::size_t sht_stride) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* h0 = h + r * h_stride;
    const double* h1 = h0 + h_stride;
    __m256d s0 = _mm256_setzero_pd(), q0 = _mm256_setzero_pd(), d0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d tv = _mm256_loadu_pd(t + i);
      const __m256d h0v = _mm256_loadu_pd(h0 + i);
      const __m256d h1v = _mm256_loadu_pd(h1 + i);
      s0 = _mm256_add_pd(s0, h0v);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(h0v, h0v));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(h0v, tv));
      s1 = _mm256_add_pd(s1, h1v);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(h1v, h1v));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(h1v, tv));
    }
    avx2_finish_fold(s0, q0, d0, h0, t, i, n, sh[r], sh2[r], sht[r * sht_stride]);
    avx2_finish_fold(s1, q1, d1, h1, t, i, n, sh[r + 1], sh2[r + 1],
                     sht[(r + 1) * sht_stride]);
  }
  if (r < rows) {
    const HFold f = avx2_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

// Trace-major G x 1 fold (see scalar_fold_s1): four guesses per pass,
// the four lanes of each guess held in four separate registers -- the
// register index is the guess, the register NAME is the lane. The p
// loop is unrolled by 4 so each trace row updates its statically-known
// lane (p stays a multiple of 4, so row p+k is lane k, matching the
// scalar p & 3 assignment); 12 accumulators live across the whole
// batch with no memory traffic until the per-guess combine at the end.
__attribute__((target("avx2"))) void avx2_fold_s1(const double* hs, std::size_t guesses,
                                                  std::size_t n, const double* t, double* sh,
                                                  double* sh2, double* sht) {
  std::size_t g = 0;
  for (; g + 4 <= guesses; g += 4) {
    const double* col = hs + g;
    __m256d s0 = _mm256_setzero_pd(), q0 = _mm256_setzero_pd(), d0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd(), q1 = _mm256_setzero_pd(), d1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd(), q2 = _mm256_setzero_pd(), d2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd(), q3 = _mm256_setzero_pd(), d3 = _mm256_setzero_pd();
    std::size_t p = 0;
    for (; p + 4 <= n; p += 4) {
      const double* row = col + p * guesses;
      const __m256d h0 = _mm256_loadu_pd(row);
      const __m256d t0 = _mm256_set1_pd(t[p]);
      s0 = _mm256_add_pd(s0, h0);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(h0, h0));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(h0, t0));
      const __m256d h1 = _mm256_loadu_pd(row + guesses);
      const __m256d t1 = _mm256_set1_pd(t[p + 1]);
      s1 = _mm256_add_pd(s1, h1);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(h1, h1));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(h1, t1));
      const __m256d h2 = _mm256_loadu_pd(row + 2 * guesses);
      const __m256d t2 = _mm256_set1_pd(t[p + 2]);
      s2 = _mm256_add_pd(s2, h2);
      q2 = _mm256_add_pd(q2, _mm256_mul_pd(h2, h2));
      d2 = _mm256_add_pd(d2, _mm256_mul_pd(h2, t2));
      const __m256d h3 = _mm256_loadu_pd(row + 3 * guesses);
      const __m256d t3 = _mm256_set1_pd(t[p + 3]);
      s3 = _mm256_add_pd(s3, h3);
      q3 = _mm256_add_pd(q3, _mm256_mul_pd(h3, h3));
      d3 = _mm256_add_pd(d3, _mm256_mul_pd(h3, t3));
    }
    // Tail traces land in lanes 0..2 in order (p is a multiple of 4).
    if (p < n) {
      const __m256d hv = _mm256_loadu_pd(col + p * guesses);
      const __m256d tb = _mm256_set1_pd(t[p]);
      s0 = _mm256_add_pd(s0, hv);
      q0 = _mm256_add_pd(q0, _mm256_mul_pd(hv, hv));
      d0 = _mm256_add_pd(d0, _mm256_mul_pd(hv, tb));
    }
    if (p + 1 < n) {
      const __m256d hv = _mm256_loadu_pd(col + (p + 1) * guesses);
      const __m256d tb = _mm256_set1_pd(t[p + 1]);
      s1 = _mm256_add_pd(s1, hv);
      q1 = _mm256_add_pd(q1, _mm256_mul_pd(hv, hv));
      d1 = _mm256_add_pd(d1, _mm256_mul_pd(hv, tb));
    }
    if (p + 2 < n) {
      const __m256d hv = _mm256_loadu_pd(col + (p + 2) * guesses);
      const __m256d tb = _mm256_set1_pd(t[p + 2]);
      s2 = _mm256_add_pd(s2, hv);
      q2 = _mm256_add_pd(q2, _mm256_mul_pd(hv, hv));
      d2 = _mm256_add_pd(d2, _mm256_mul_pd(hv, tb));
    }
    // Per guess slot the fixed (l0+l1)+(l2+l3) combine, as a vector op.
    const __m256d shv = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
    const __m256d sh2v = _mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3));
    const __m256d shtv = _mm256_add_pd(_mm256_add_pd(d0, d1), _mm256_add_pd(d2, d3));
    _mm256_storeu_pd(sh + g, _mm256_add_pd(_mm256_loadu_pd(sh + g), shv));
    _mm256_storeu_pd(sh2 + g, _mm256_add_pd(_mm256_loadu_pd(sh2 + g), sh2v));
    _mm256_storeu_pd(sht + g, _mm256_add_pd(_mm256_loadu_pd(sht + g), shtv));
  }
  // Remainder guesses: the scalar 4-lane loop.
  for (; g < guesses; ++g) {
    double ls[4] = {0.0, 0.0, 0.0, 0.0};
    double lq[4] = {0.0, 0.0, 0.0, 0.0};
    double ld[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t p = 0; p < n; ++p) {
      const double v = hs[p * guesses + g];
      ls[p & 3] += v;
      lq[p & 3] += v * v;
      ld[p & 3] += v * t[p];
    }
    sh[g] += (ls[0] + ls[1]) + (ls[2] + ls[3]);
    sh2[g] += (lq[0] + lq[1]) + (lq[2] + lq[3]);
    sht[g] += (ld[0] + ld[1]) + (ld[2] + ld[3]);
  }
}

// 4x4 register-blocked transpose (unpack + 128-bit permute), scalar
// edges. Pure data movement, same result as scalar_transpose.
__attribute__((target("avx2"))) void avx2_transpose(const double* src, std::size_t n,
                                                    std::size_t cols, double* dst,
                                                    std::size_t dst_stride) {
  std::size_t r0 = 0;
  for (; r0 + 4 <= n; r0 += 4) {
    const double* s0 = src + r0 * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d a = _mm256_loadu_pd(s0 + c);
      const __m256d b = _mm256_loadu_pd(s0 + cols + c);
      const __m256d cc = _mm256_loadu_pd(s0 + 2 * cols + c);
      const __m256d d = _mm256_loadu_pd(s0 + 3 * cols + c);
      const __m256d t0 = _mm256_unpacklo_pd(a, b);
      const __m256d t1 = _mm256_unpackhi_pd(a, b);
      const __m256d t2 = _mm256_unpacklo_pd(cc, d);
      const __m256d t3 = _mm256_unpackhi_pd(cc, d);
      _mm256_storeu_pd(dst + c * dst_stride + r0, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(dst + (c + 1) * dst_stride + r0, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(dst + (c + 2) * dst_stride + r0, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(dst + (c + 3) * dst_stride + r0, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; c < cols; ++c) {
      double* out = dst + c * dst_stride;
      for (std::size_t r = r0; r < r0 + 4; ++r) out[r] = src[r * cols + c];
    }
  }
  for (; r0 < n; ++r0) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * dst_stride + r0] = src[r0 * cols + c];
  }
}

// --- AVX2 hypothesis tiles ---------------------------------------------------
//
// These also need popcnt (ops_for checks both). The partial-product kinds
// run fused: 4 traces per register, the product by vpmuludq (both
// operands fit in 32 bits, so the 64-bit product is exact), the popcount
// by a vpshufb nibble table summed per lane by vpsadbw, and the exact
// int -> double by the 2^52 trick. The lanes4 fold then happens in the
// same registers -- the register IS lanes l0..l3 of the block -- and the
// block tail and combine are the scalar reference's. Every other kind
// fills a tile with hardware popcnt and folds it with avx2_fold_h_rows.

__attribute__((target("avx2"))) inline __m256i avx2_popcnt_epi64(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low4);
  const __m256i bytes =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

// The 2^52 trick, fused with the h0 shift: for a count c <= 64 and
// h0 <= 64, the double with bits (2^52's bits + 64 - h0 + c) is exactly
// 2^52 + 64 + c - h0, and subtracting 2^52 + 64 leaves c - h0 exactly --
// the same double as (double)c - h0. One integer add replaces the OR
// and the FP subtract of h0.
constexpr std::int64_t kTwo52Bits = 0x4330000000000000LL;
constexpr double kTwo52Plus64 = 4503599627370496.0 + 64.0;

// G guesses against one operand lane y: per guess and block, the
// avx2_fold_h program over h = HW(guess * y[t]) - HW(guess * y[0]).
template <std::size_t G>
__attribute__((target("avx2,popcnt"))) void avx2_mul_fold(const std::uint32_t* y,
                                                          const double* t, std::size_t traces,
                                                          std::size_t batch,
                                                          const std::uint32_t* guesses,
                                                          double* sh, double* sh2,
                                                          double* sht) {
  std::uint64_t g64[G];
  double h0[G];
  __m256i gv[G], bias[G];
  double s[G], q[G], d[G];
  const __m256d unbias = _mm256_set1_pd(kTwo52Plus64);
  for (std::size_t k = 0; k < G; ++k) {
    g64[k] = guesses[k];
    const int c0 = __builtin_popcountll(g64[k] * y[0]);
    h0[k] = static_cast<double>(c0);
    gv[k] = _mm256_set1_epi64x(static_cast<long long>(g64[k]));
    bias[k] = _mm256_set1_epi64x(kTwo52Bits + 64 - c0);
    s[k] = q[k] = d[k] = 0.0;
  }
  for (std::size_t t0 = 0; t0 < traces; t0 += batch) {
    const std::size_t n = std::min(batch, traces - t0);
    const std::uint32_t* yb = y + t0;
    const double* tb = t + t0;
    __m256d vs[G], vq[G], vd[G];
    for (std::size_t k = 0; k < G; ++k) vs[k] = vq[k] = vd[k] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256i yv =
          _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(yb + i)));
      const __m256d tv = _mm256_loadu_pd(tb + i);
#pragma GCC unroll 4
      for (std::size_t k = 0; k < G; ++k) {
        const __m256i c = avx2_popcnt_epi64(_mm256_mul_epu32(gv[k], yv));
        const __m256d hv =
            _mm256_sub_pd(_mm256_castsi256_pd(_mm256_add_epi64(c, bias[k])), unbias);
        vs[k] = _mm256_add_pd(vs[k], hv);
        vq[k] = _mm256_add_pd(vq[k], _mm256_mul_pd(hv, hv));
        vd[k] = _mm256_add_pd(vd[k], _mm256_mul_pd(hv, tv));
      }
    }
    for (std::size_t k = 0; k < G; ++k) {
      alignas(32) double ls[4], lq[4], ld[4];
      _mm256_store_pd(ls, vs[k]);
      _mm256_store_pd(lq, vq[k]);
      _mm256_store_pd(ld, vd[k]);
      // Block tail: traces i.. top up lanes 0..2 in order.
      for (std::size_t j = 0; i + j < n; ++j) {
        const double h = static_cast<double>(__builtin_popcountll(g64[k] * yb[i + j])) - h0[k];
        ls[j] += h;
        lq[j] += h * h;
        ld[j] += h * tb[i + j];
      }
      s[k] += (ls[0] + ls[1]) + (ls[2] + ls[3]);
      q[k] += (lq[0] + lq[1]) + (lq[2] + lq[3]);
      d[k] += (ld[0] + ld[1]) + (ld[2] + ld[3]);
    }
  }
  for (std::size_t k = 0; k < G; ++k) {
    sh[k] = s[k];
    sh2[k] = q[k];
    sht[k] = d[k];
  }
}

// The reference evaluator compiled once more with hardware popcnt:
// flatten inlines it, every model and std::popcount inside them into
// this popcnt target.
__attribute__((target("popcnt"), flatten)) void popcnt_eval_tile(
    const HypModel& m, const KnownLanes& k, const std::uint32_t* guesses, std::size_t rows,
    std::size_t t0, std::size_t n, const double* h0, double* tile, std::size_t stride) {
  scalar_eval_tile(m, k, guesses, rows, t0, n, h0, tile, stride);
}

__attribute__((target("avx2,popcnt"))) void avx2_hyp_fold(const HypColumn& col,
                                                          std::size_t batch,
                                                          const std::uint32_t* guesses,
                                                          std::size_t count, double* sh,
                                                          double* sh2, double* sht) {
  const HypKind kind = col.model.kind;
  if ((kind != HypKind::kMulY0 && kind != HypKind::kMulY1) || col.traces == 0) {
    tile_hyp_fold(popcnt_eval_tile, avx2_fold_h_rows, col, batch, guesses, count, sh, sh2, sht);
    return;
  }
  const std::uint32_t* y = (kind == HypKind::kMulY0 ? col.known->y0 : col.known->y1).data();
  std::size_t g = 0;
  for (; g + 2 <= count; g += 2) {
    avx2_mul_fold<2>(y, col.t, col.traces, batch, guesses + g, sh + g, sh2 + g, sht + g);
  }
  if (g < count) {
    avx2_mul_fold<1>(y, col.t, col.traces, batch, guesses + g, sh + g, sh2 + g, sht + g);
  }
}

#endif  // FD_CPA_HAVE_AVX2

#if defined(FD_CPA_HAVE_NEON)

// Lanes 0/1 live in one float64x2_t, lanes 2/3 in another; loads at
// x+i and x+i+2 reproduce the scalar lane assignment. vaddq/vmulq only
// (no vfmaq), same scalar tail, same combine.

double neon_sum(const double* x, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vld1q_f64(x + i));
    a23 = vaddq_f64(a23, vld1q_f64(x + i + 2));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += x[i];
  if (i + 1 < n) l1 += x[i + 1];
  if (i + 2 < n) l2 += x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double neon_sumsq(const double* x, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t v01 = vld1q_f64(x + i);
    const float64x2_t v23 = vld1q_f64(x + i + 2);
    a01 = vaddq_f64(a01, vmulq_f64(v01, v01));
    a23 = vaddq_f64(a23, vmulq_f64(v23, v23));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += x[i] * x[i];
  if (i + 1 < n) l1 += x[i + 1] * x[i + 1];
  if (i + 2 < n) l2 += x[i + 2] * x[i + 2];
  return (l0 + l1) + (l2 + l3);
}

double neon_dot(const double* a, const double* b, std::size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
    a23 = vaddq_f64(a23, vmulq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2)));
  }
  double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
  double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
  if (i < n) l0 += a[i] * b[i];
  if (i + 1 < n) l1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) l2 += a[i + 2] * b[i + 2];
  return (l0 + l1) + (l2 + l3);
}

HFold neon_fold_h(const double* h, const double* t, std::size_t n) {
  float64x2_t s01 = vdupq_n_f64(0.0), s23 = vdupq_n_f64(0.0);
  float64x2_t q01 = vdupq_n_f64(0.0), q23 = vdupq_n_f64(0.0);
  float64x2_t d01 = vdupq_n_f64(0.0), d23 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t h01 = vld1q_f64(h + i), h23 = vld1q_f64(h + i + 2);
    const float64x2_t t01 = vld1q_f64(t + i), t23 = vld1q_f64(t + i + 2);
    s01 = vaddq_f64(s01, h01);
    s23 = vaddq_f64(s23, h23);
    q01 = vaddq_f64(q01, vmulq_f64(h01, h01));
    q23 = vaddq_f64(q23, vmulq_f64(h23, h23));
    d01 = vaddq_f64(d01, vmulq_f64(h01, t01));
    d23 = vaddq_f64(d23, vmulq_f64(h23, t23));
  }
  double ls[4] = {vgetq_lane_f64(s01, 0), vgetq_lane_f64(s01, 1), vgetq_lane_f64(s23, 0),
                  vgetq_lane_f64(s23, 1)};
  double lq[4] = {vgetq_lane_f64(q01, 0), vgetq_lane_f64(q01, 1), vgetq_lane_f64(q23, 0),
                  vgetq_lane_f64(q23, 1)};
  double ld[4] = {vgetq_lane_f64(d01, 0), vgetq_lane_f64(d01, 1), vgetq_lane_f64(d23, 0),
                  vgetq_lane_f64(d23, 1)};
  if (i < n) {
    ls[0] += h[i];
    lq[0] += h[i] * h[i];
    ld[0] += h[i] * t[i];
  }
  if (i + 1 < n) {
    ls[1] += h[i + 1];
    lq[1] += h[i + 1] * h[i + 1];
    ld[1] += h[i + 1] * t[i + 1];
  }
  if (i + 2 < n) {
    ls[2] += h[i + 2];
    lq[2] += h[i + 2] * h[i + 2];
    ld[2] += h[i + 2] * t[i + 2];
  }
  HFold out;
  out.sh = (ls[0] + ls[1]) + (ls[2] + ls[3]);
  out.sh2 = (lq[0] + lq[1]) + (lq[2] + lq[3]);
  out.sht = (ld[0] + ld[1]) + (ld[2] + ld[3]);
  return out;
}

// Two sample columns at a time (the NEON half-width analogue of the
// AVX2 four-column group); per-column arithmetic is exactly neon_dot.
void neon_dot_cols(const double* h, const double* t, std::size_t t_stride, std::size_t cols,
                   std::size_t n, double* out) {
  std::size_t c = 0;
  for (; c + 2 <= cols; c += 2) {
    const double* t0 = t + c * t_stride;
    const double* t1 = t0 + t_stride;
    float64x2_t a01 = vdupq_n_f64(0.0), a23 = vdupq_n_f64(0.0);
    float64x2_t b01 = vdupq_n_f64(0.0), b23 = vdupq_n_f64(0.0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const float64x2_t h01 = vld1q_f64(h + i), h23 = vld1q_f64(h + i + 2);
      a01 = vaddq_f64(a01, vmulq_f64(h01, vld1q_f64(t0 + i)));
      a23 = vaddq_f64(a23, vmulq_f64(h23, vld1q_f64(t0 + i + 2)));
      b01 = vaddq_f64(b01, vmulq_f64(h01, vld1q_f64(t1 + i)));
      b23 = vaddq_f64(b23, vmulq_f64(h23, vld1q_f64(t1 + i + 2)));
    }
    double l0 = vgetq_lane_f64(a01, 0), l1 = vgetq_lane_f64(a01, 1);
    double l2 = vgetq_lane_f64(a23, 0), l3 = vgetq_lane_f64(a23, 1);
    double m0 = vgetq_lane_f64(b01, 0), m1 = vgetq_lane_f64(b01, 1);
    double m2 = vgetq_lane_f64(b23, 0), m3 = vgetq_lane_f64(b23, 1);
    if (i < n) {
      l0 += h[i] * t0[i];
      m0 += h[i] * t1[i];
    }
    if (i + 1 < n) {
      l1 += h[i + 1] * t0[i + 1];
      m1 += h[i + 1] * t1[i + 1];
    }
    if (i + 2 < n) {
      l2 += h[i + 2] * t0[i + 2];
      m2 += h[i + 2] * t1[i + 2];
    }
    out[c] += (l0 + l1) + (l2 + l3);
    out[c + 1] += (m0 + m1) + (m2 + m3);
  }
  for (; c < cols; ++c) out[c] += neon_dot(h, t + c * t_stride, n);
}

void neon_fold_h_rows(const double* h, std::size_t h_stride, std::size_t rows, const double* t,
                      std::size_t n, double* sh, double* sh2, double* sht,
                      std::size_t sht_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const HFold f = neon_fold_h(h + r * h_stride, t, n);
    sh[r] += f.sh;
    sh2[r] += f.sh2;
    sht[r * sht_stride] += f.sht;
  }
}

// The reference evaluator feeding the NEON row fold.
void neon_hyp_fold(const HypColumn& col, std::size_t batch, const std::uint32_t* guesses,
                   std::size_t count, double* sh, double* sh2, double* sht) {
  tile_hyp_fold(scalar_eval_tile, neon_fold_h_rows, col, batch, guesses, count, sh, sh2, sht);
}

#endif  // FD_CPA_HAVE_NEON

struct LanesOps {
  double (*sum)(const double*, std::size_t);
  double (*sumsq)(const double*, std::size_t);
  double (*dot)(const double*, const double*, std::size_t);
  HFold (*fold_h)(const double*, const double*, std::size_t);
  // Multi-cell entry points for the batch fold's hot loop (see the
  // batched-cell wrappers above): bit-identical to looping the
  // single-cell primitives, but with several cells' chains in flight.
  void (*dot_cols)(const double*, const double*, std::size_t, std::size_t, std::size_t,
                   double*);
  void (*fold_h_rows)(const double*, std::size_t, std::size_t, const double*, std::size_t,
                      double*, double*, double*, std::size_t);
  void (*fold_s1)(const double*, std::size_t, std::size_t, const double*, double*, double*,
                  double*);
  void (*transpose)(const double*, std::size_t, std::size_t, double*, std::size_t);
  // Fused hypothesis evaluation + fold (see lanes4_hyp_fold).
  void (*hyp_fold)(const HypColumn&, std::size_t, const std::uint32_t*, std::size_t, double*,
                   double*, double*);
  CpaSimd kind;
};

constexpr LanesOps kScalarOps = {scalar_sum,       scalar_sumsq,     scalar_dot,
                                 scalar_fold_h,    scalar_dot_cols,  scalar_fold_h_rows,
                                 scalar_fold_s1,   scalar_transpose, scalar_hyp_fold,
                                 CpaSimd::kScalar};
#if defined(FD_CPA_HAVE_AVX2)
constexpr LanesOps kAvx2Ops = {avx2_sum,      avx2_sumsq,     avx2_dot,
                               avx2_fold_h,   avx2_dot_cols,  avx2_fold_h_rows,
                               avx2_fold_s1,  avx2_transpose, avx2_hyp_fold,
                               CpaSimd::kAvx2};
#endif
#if defined(FD_CPA_HAVE_NEON)
// fold_s1 has no NEON body yet; the scalar one runs the identical lane
// program, so pointing at it changes speed, never bits.
constexpr LanesOps kNeonOps = {neon_sum,       neon_sumsq,       neon_dot,
                               neon_fold_h,    neon_dot_cols,    neon_fold_h_rows,
                               scalar_fold_s1, scalar_transpose, neon_hyp_fold,
                               CpaSimd::kNeon};
#endif

const LanesOps* ops_for(CpaSimd kind) {
  switch (kind) {
    case CpaSimd::kScalar:
      return &kScalarOps;
    case CpaSimd::kAvx2:
#if defined(FD_CPA_HAVE_AVX2)
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")) return &kAvx2Ops;
#endif
      return nullptr;
    case CpaSimd::kNeon:
#if defined(FD_CPA_HAVE_NEON)
      return &kNeonOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const LanesOps* resolve_ops() {
  if (const char* env = std::getenv("FD_CPA_KERNEL")) {
    const std::string_view v(env);
    const LanesOps* forced = nullptr;
    if (v == "scalar") forced = ops_for(CpaSimd::kScalar);
    if (v == "avx2") forced = ops_for(CpaSimd::kAvx2);
    if (v == "neon") forced = ops_for(CpaSimd::kNeon);
    // Unknown or unavailable requests fall through to auto-detection;
    // all paths are bit-identical, so this can never change a result.
    if (forced != nullptr) return forced;
  }
  if (const LanesOps* p = ops_for(CpaSimd::kAvx2)) return p;
  if (const LanesOps* p = ops_for(CpaSimd::kNeon)) return p;
  return &kScalarOps;
}

// Resolved once on first use; concurrent first calls race benignly
// (the environment is stable, so they all store the same pointer).
std::atomic<const LanesOps*> g_ops{nullptr};

const LanesOps& active_ops() {
  const LanesOps* p = g_ops.load(std::memory_order_acquire);
  if (p == nullptr) {
    p = resolve_ops();
    g_ops.store(p, std::memory_order_release);
  }
  return *p;
}

}  // namespace

const char* cpa_simd_name(CpaSimd kind) {
  switch (kind) {
    case CpaSimd::kScalar:
      return "scalar";
    case CpaSimd::kAvx2:
      return "avx2";
    case CpaSimd::kNeon:
      return "neon";
  }
  return "?";
}

bool cpa_simd_available(CpaSimd kind) { return ops_for(kind) != nullptr; }

CpaSimd cpa_active_simd() { return active_ops().kind; }

bool cpa_force_simd(CpaSimd kind) {
  const LanesOps* p = ops_for(kind);
  if (p == nullptr) return false;
  g_ops.store(p, std::memory_order_release);
  return true;
}

void cpa_reset_simd() { g_ops.store(resolve_ops(), std::memory_order_release); }

double lanes4_sum(const double* x, std::size_t n) { return active_ops().sum(x, n); }
double lanes4_sumsq(const double* x, std::size_t n) { return active_ops().sumsq(x, n); }
double lanes4_dot(const double* a, const double* b, std::size_t n) {
  return active_ops().dot(a, b, n);
}
HFold lanes4_fold_h(const double* h, const double* t, std::size_t n) {
  return active_ops().fold_h(h, t, n);
}
void lanes4_hyp_fold(const HypColumn& col, std::size_t batch, const std::uint32_t* guesses,
                     std::size_t count, double* sh, double* sh2, double* sht) {
  active_ops().hyp_fold(col, batch == 0 ? 1 : batch, guesses, count, sh, sh2, sht);
}

// --- CpaSums ---------------------------------------------------------------

void CpaSums::reset(std::size_t g, std::size_t s) {
  num_guesses = g;
  num_samples = s;
  traces = 0;
  have_ref = false;
  ref_h.assign(g, 0.0);
  ref_t.assign(s, 0.0);
  sum_h.assign(g, 0.0);
  sum_h2.assign(g, 0.0);
  sum_t.assign(s, 0.0);
  sum_t2.assign(s, 0.0);
  sum_ht.assign(g * s, 0.0);
}

double CpaSums::correlation(std::size_t guess, std::size_t sample) const {
  assert(guess < num_guesses && sample < num_samples);
  if (traces < 2) return 0.0;
  const double dn = static_cast<double>(traces);
  const double sh = sum_h[guess];
  const double st = sum_t[sample];
  // Shifted-data moments: with every value entering as (x - x_first)
  // these no longer cancel catastrophically under a large DC offset.
  const double cov = dn * sum_ht[guess * num_samples + sample] - sh * st;
  const double var_h = dn * sum_h2[guess] - sh * sh;
  const double var_t = dn * sum_t2[sample] - st * st;
  if (var_h <= 0.0 || var_t <= 0.0) return 0.0;
  return cov / std::sqrt(var_h * var_t);
}

// --- CpaBatchKernel --------------------------------------------------------

CpaBatchKernel::CpaBatchKernel(std::size_t num_guesses, std::size_t num_samples,
                               CpaKernelConfig config)
    : g_(num_guesses), s_(num_samples), cfg_(config) {
  if (cfg_.batch_traces == 0) cfg_.batch_traces = 1;
  if (cfg_.guess_block == 0) cfg_.guess_block = 1;
  if (cfg_.sample_block == 0) cfg_.sample_block = 1;
  hstage_.assign(g_ * cfg_.batch_traces, 0.0);
  tstage_.assign(s_ * cfg_.batch_traces, 0.0);
  hbuf_.assign(g_ * cfg_.batch_traces, 0.0);
  tbuf_.assign(s_ * cfg_.batch_traces, 0.0);
}

void CpaBatchKernel::add_trace(CpaSums& sums, std::span<const double> hypotheses,
                               std::span<const float> samples) {
  if (hypotheses.size() != g_ || samples.size() != s_) {
    // Hard failure in every build mode: the old assert() compiled away
    // under NDEBUG and the loops below read past the spans' ends.
    throw std::invalid_argument(
        "CpaBatchKernel::add_trace: span shape mismatch (got " +
        std::to_string(hypotheses.size()) + " hypotheses x " +
        std::to_string(samples.size()) + " samples, kernel is " + std::to_string(g_) +
        " x " + std::to_string(s_) + ")");
  }
  if (sums.num_guesses != g_ || sums.num_samples != s_) sums.reset(g_, s_);
  if (!sums.have_ref) {
    for (std::size_t g = 0; g < g_; ++g) sums.ref_h[g] = hypotheses[g];
    for (std::size_t s = 0; s < s_; ++s) sums.ref_t[s] = static_cast<double>(samples[s]);
    sums.have_ref = true;
  }
  // Stage the shifted trace contiguously (streaming writes). Writing
  // straight into the per-guess fold layout instead -- one scattered
  // write per guess, stride B -- was the measured bottleneck of the
  // whole fold once the reductions were vectorized; fold_batch
  // transposes the staging area in cache-sized blocks. The shifted
  // values themselves are computed exactly as before.
  const std::size_t p = pending_;
  double* hrow = hstage_.data() + p * g_;
  for (std::size_t g = 0; g < g_; ++g) hrow[g] = hypotheses[g] - sums.ref_h[g];
  double* trow = tstage_.data() + p * s_;
  for (std::size_t s = 0; s < s_; ++s)
    trow[s] = static_cast<double>(samples[s]) - sums.ref_t[s];
  ++pending_;
  ++sums.traces;
  if (pending_ == cfg_.batch_traces) fold_batch(sums);
}

void CpaBatchKernel::flush(CpaSums& sums) {
  if (pending_ > 0) fold_batch(sums);
}

void CpaBatchKernel::fold_batch(CpaSums& sums) {
  const std::size_t b = cfg_.batch_traces;
  const std::size_t n = pending_;
  // One dispatch resolution per batch, not one atomic load per cell.
  const LanesOps& ops = active_ops();
  if (s_ == 1) {
    // Default attack shape (G x 1): no transpose at all. tstage_ IS the
    // single sample column (contiguous, same element order the
    // transposed tbuf_ row would have), and fold_s1 walks the
    // trace-major hstage_ directly -- same lane program per cell, so
    // same bits as the general path below.
    sums.sum_t[0] += ops.sum(tstage_.data(), n);
    sums.sum_t2[0] += ops.sumsq(tstage_.data(), n);
    ops.fold_s1(hstage_.data(), g_, n, tstage_.data(), sums.sum_h.data(),
                sums.sum_h2.data(), sums.sum_ht.data());
    pending_ = 0;
    return;
  }
  ops.transpose(hstage_.data(), n, g_, hbuf_.data(), b);
  ops.transpose(tstage_.data(), n, s_, tbuf_.data(), b);
  // Sample-side moments first (each cell updated once per batch).
  for (std::size_t s = 0; s < s_; ++s) {
    const double* row = tbuf_.data() + s * b;
    sums.sum_t[s] += ops.sum(row, n);
    sums.sum_t2[s] += ops.sumsq(row, n);
  }
  // Tiled H^T.S update: guess tiles x sample tiles, each sum_ht cell a
  // length-n dot product over contiguous rows. Tiling only reorders
  // *which cell* is visited next, never the reduction inside a cell, so
  // the tile sizes cannot change any value -- and the multi-cell
  // entry points below only interleave whole cells the same way.
  for (std::size_t g0 = 0; g0 < g_; g0 += cfg_.guess_block) {
    const std::size_t g1 = std::min(g_, g0 + cfg_.guess_block);
    for (std::size_t s0 = 0; s0 < s_; s0 += cfg_.sample_block) {
      const std::size_t s1 = std::min(s_, s0 + cfg_.sample_block);
      std::size_t sb = s0;
      if (s0 == 0) {
        // Guess-side moments ride the first sample tile, fused with
        // that column's dot product through the fold_h program -- the
        // fused fold runs the identical lane arithmetic for each of
        // its three sums, so fusion cannot change a bit.
        ops.fold_h_rows(hbuf_.data() + g0 * b, b, g1 - g0, tbuf_.data(), n,
                        sums.sum_h.data() + g0, sums.sum_h2.data() + g0,
                        sums.sum_ht.data() + g0 * s_, s_);
        sb = 1;
      }
      if (sb < s1) {
        for (std::size_t g = g0; g < g1; ++g) {
          ops.dot_cols(hbuf_.data() + g * b, tbuf_.data() + sb * b, b, s1 - sb, n,
                       sums.sum_ht.data() + g * s_ + sb);
        }
      }
    }
  }
  pending_ = 0;
}

}  // namespace fd::attack
