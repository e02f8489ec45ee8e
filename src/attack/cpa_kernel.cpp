#include "attack/cpa_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
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

// --- row fold ---------------------------------------------------------------
//
// The hypothesis tiles fold many guess rows against one sample column
// per block. A single-row reduction is latency-bound (one FP-add
// dependency chain per lane), so each dispatch kind carries a multi-row
// entry point that may keep several rows' chains in flight at once.
// Each row's reduction is STILL the exact lanes4_fold_h program -- the
// wrappers only interleave whole-row computations, never the arithmetic
// inside one -- so every fold_h_rows is bit-identical to looping the
// single-row primitive.

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
  // Fused hypothesis evaluation + fold (see lanes4_hyp_fold).
  void (*hyp_fold)(const HypColumn&, std::size_t, const std::uint32_t*, std::size_t, double*,
                   double*, double*);
  CpaSimd kind;
};

constexpr LanesOps kScalarOps = {scalar_sum,    scalar_sumsq,    scalar_dot,
                                 scalar_fold_h, scalar_hyp_fold, CpaSimd::kScalar};
#if defined(FD_CPA_HAVE_AVX2)
constexpr LanesOps kAvx2Ops = {avx2_sum,    avx2_sumsq,    avx2_dot,
                               avx2_fold_h, avx2_hyp_fold, CpaSimd::kAvx2};
#endif
#if defined(FD_CPA_HAVE_NEON)
constexpr LanesOps kNeonOps = {neon_sum,    neon_sumsq,    neon_dot,
                               neon_fold_h, neon_hyp_fold, CpaSimd::kNeon};
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

}  // namespace fd::attack
