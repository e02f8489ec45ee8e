// The CPA fold's contracts (cpa_kernel.h, cpa.h):
//   - equivalence: batch sizes 1/7/64 agree with the exact two-pass
//     Pearson reference at trace counts not divisible by B, and batch 1
//     reproduces the naive per-trace fold bit for bit;
//   - the cancellation bugfix: a large DC offset (samples ~ 1e8 + HW)
//     drives the legacy unshifted moment form dn*sum2 - sum*sum
//     negative (the old code silently returned r = 0) while the shifted
//     kernel still recovers the key guess;
//   - ranking: |r| ranking catches inverted leakage;
//   - a foreign-layout window (samples too short for the spec's views)
//     folds nothing and does not advance the window count;
//   - single-pass archive attack: attack_components_gated equals the
//     in-memory attack_all_components_parallel at one archive scan per
//     call, and the whole pipeline attack round costs exactly one
//     archive pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

#include "attack/cpa.h"
#include "attack/cpa_kernel.h"
#include "attack/key_recovery.h"
#include "attack/parallel_attack.h"
#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "common/shake256.h"
#include "falcon/falcon.h"
#include "obs/metrics.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

namespace fd::attack {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

sca::CampaignConfig small_config(std::uint64_t seed) {
  sca::CampaignConfig cfg;
  cfg.num_traces = 220;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = seed;
  return cfg;
}

CpaSpec exponent_spec() {
  CpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const KnownOperand& k) {
    return hyp_exponent(guess, k);
  };
  return spec;
}

// Synthetic Hamming-weight leakage: operand d leaks popcount(v_d);
// guess g predicts popcount(v_d ^ mask_g) with mask_0 = 0 (the truth).
struct SyntheticCpa {
  std::size_t num_guesses = 0;
  std::size_t num_samples = 0;
  std::vector<std::uint64_t> masks;         // per guess
  std::vector<std::vector<double>> hyps;    // [trace][guess]
  std::vector<std::vector<float>> samples;  // [trace][sample]
};

SyntheticCpa make_synthetic(std::size_t traces, std::size_t guesses, std::size_t samples,
                            double noise_sigma, double dc_offset, double gain,
                            std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  constexpr std::uint64_t kMask50 = (1ULL << 50) - 1;
  SyntheticCpa s;
  s.num_guesses = guesses;
  s.num_samples = samples;
  s.masks.push_back(0);  // guess 0 = truth
  for (std::size_t g = 1; g < guesses; ++g) s.masks.push_back(rng.next_u64() & kMask50);
  s.hyps.resize(traces);
  s.samples.resize(traces);
  for (std::size_t d = 0; d < traces; ++d) {
    const std::uint64_t v = rng.next_u64() & kMask50;
    const double hw = static_cast<double>(std::popcount(v));
    s.hyps[d].resize(guesses);
    for (std::size_t g = 0; g < guesses; ++g) {
      s.hyps[d][g] = static_cast<double>(std::popcount(v ^ s.masks[g]));
    }
    s.samples[d].resize(samples);
    for (std::size_t c = 0; c < samples; ++c) {
      const double noise = noise_sigma == 0.0 ? 0.0 : noise_sigma * rng.gaussian();
      s.samples[d][c] =
          static_cast<float>(dc_offset + 10.0 * static_cast<double>(c) + gain * hw + noise);
    }
  }
  return s;
}

// Exact two-pass mean-centered Pearson in extended precision: the
// ground truth every batched fold must agree with.
double exact_pearson(const SyntheticCpa& s, std::size_t g, std::size_t c) {
  const std::size_t d = s.hyps.size();
  long double mh = 0.0L, mt = 0.0L;
  for (std::size_t i = 0; i < d; ++i) {
    mh += s.hyps[i][g];
    mt += s.samples[i][c];
  }
  mh /= static_cast<long double>(d);
  mt /= static_cast<long double>(d);
  long double vh = 0.0L, vt = 0.0L, cov = 0.0L;
  for (std::size_t i = 0; i < d; ++i) {
    const long double a = s.hyps[i][g] - mh;
    const long double b = s.samples[i][c] - mt;
    vh += a * a;
    vt += b * b;
    cov += a * b;
  }
  if (vh <= 0.0L || vt <= 0.0L) return 0.0;
  return static_cast<double>(cov / std::sqrt(vh * vt));
}

CpaEngine fold_synthetic(const SyntheticCpa& s, std::size_t batch = kDefaultCpaBatch) {
  CpaEngine engine(s.num_guesses, s.num_samples, batch);
  for (std::size_t d = 0; d < s.hyps.size(); ++d) engine.add_trace(s.hyps[d], s.samples[d]);
  return engine;
}

// --- kernel equivalence ----------------------------------------------------

TEST(CpaKernel, BatchSizesAgreeWithExactReference) {
  // Trace counts deliberately not divisible by 7 or 64: the flush of a
  // partial tail batch must not change the statistics.
  for (const std::size_t traces : {63U, 100U, 101U}) {
    const auto s = make_synthetic(traces, 16, 3, 2.0, 0.0, 1.5, 0xA11CE + traces);
    const CpaEngine e1 = fold_synthetic(s, 1);
    const CpaEngine e7 = fold_synthetic(s, 7);
    const CpaEngine e64 = fold_synthetic(s, 64);
    ASSERT_EQ(e64.num_traces(), traces);
    for (std::size_t g = 0; g < s.num_guesses; ++g) {
      for (std::size_t c = 0; c < s.num_samples; ++c) {
        const double exact = exact_pearson(s, g, c);
        // Shifted data keeps every batch within rounding noise of the
        // two-pass reference...
        EXPECT_NEAR(e1.correlation(g, c), exact, 1e-10) << "D=" << traces;
        EXPECT_NEAR(e7.correlation(g, c), exact, 1e-10);
        EXPECT_NEAR(e64.correlation(g, c), exact, 1e-10);
        // ...and batch sizes differ from each other only by the
        // documented in-batch reassociation.
        EXPECT_NEAR(e7.correlation(g, c), e1.correlation(g, c), 1e-12);
        EXPECT_NEAR(e64.correlation(g, c), e1.correlation(g, c), 1e-12);
      }
    }
    EXPECT_EQ(e7.ranking(), e1.ranking());
    EXPECT_EQ(e64.ranking(), e1.ranking());
    EXPECT_EQ(e1.ranking().front(), 0U);  // and the fold is attacking
  }
}

TEST(CpaKernel, BatchOneReproducesNaiveFoldBitForBit) {
  const auto s = make_synthetic(101, 12, 2, 2.0, 0.0, 1.5, 0xBEE);
  const CpaEngine e1 = fold_synthetic(s, 1);

  // The naive per-trace fold, spelled out: first trace is the shift
  // reference, every later value enters the five sums as (x - ref) in
  // trace order. Batch 1 must reproduce this arithmetic exactly.
  const std::size_t gcount = s.num_guesses, scount = s.num_samples;
  std::vector<double> ref_h(gcount), ref_t(scount);
  std::vector<double> sh(gcount, 0.0), sh2(gcount, 0.0);
  std::vector<double> st(scount, 0.0), st2(scount, 0.0), sht(gcount * scount, 0.0);
  for (std::size_t d = 0; d < s.hyps.size(); ++d) {
    if (d == 0) {
      for (std::size_t g = 0; g < gcount; ++g) ref_h[g] = s.hyps[0][g];
      for (std::size_t c = 0; c < scount; ++c) ref_t[c] = s.samples[0][c];
    }
    for (std::size_t c = 0; c < scount; ++c) {
      const double t = static_cast<double>(s.samples[d][c]) - ref_t[c];
      st[c] += t;
      st2[c] += t * t;
    }
    for (std::size_t g = 0; g < gcount; ++g) {
      const double h = s.hyps[d][g] - ref_h[g];
      sh[g] += h;
      sh2[g] += h * h;
      for (std::size_t c = 0; c < scount; ++c) {
        const double t = static_cast<double>(s.samples[d][c]) - ref_t[c];
        sht[g * scount + c] += h * t;
      }
    }
  }
  const double dn = static_cast<double>(s.hyps.size());
  for (std::size_t g = 0; g < gcount; ++g) {
    for (std::size_t c = 0; c < scount; ++c) {
      const double var_h = dn * sh2[g] - sh[g] * sh[g];
      const double var_t = dn * st2[c] - st[c] * st[c];
      const double cov = dn * sht[g * scount + c] - sh[g] * st[c];
      const double r = (var_h <= 0.0 || var_t <= 0.0) ? 0.0 : cov / std::sqrt(var_h * var_t);
      EXPECT_EQ(e1.correlation(g, c), r) << "g=" << g << " c=" << c;
    }
  }
}

// --- the cancellation bugfix -----------------------------------------------

TEST(CpaKernel, DcOffsetRegressionRecoversKeyGuess) {
  // samples = 1e8 + HW, no noise. float quantization (ULP = 8 at 1e8)
  // coarsens but does not destroy the signal; what used to destroy it
  // is the legacy unshifted moment form, whose double-precision
  // accumulation error swamps the tiny true variance.
  const auto s = make_synthetic(2000, 16, 1, 0.0, 1e8, 1.0, 0xDC0FF);

  // The bug was real: the legacy form goes negative, and the old
  // correlation() then silently returned r = 0 for every guess.
  double st = 0.0, st2 = 0.0;
  for (const auto& row : s.samples) {
    const double x = row[0];
    st += x;
    st2 += x * x;
  }
  const double dn = static_cast<double>(s.samples.size());
  EXPECT_LE(dn * st2 - st * st, 0.0)
      << "DC offset no longer drives the legacy moment form negative; "
         "pick a larger offset to keep this regression meaningful";

  // The shifted kernel recovers the key guess at any batch size.
  for (const std::size_t batch : {1U, 64U}) {
    const CpaEngine e = fold_synthetic(s, batch);
    EXPECT_EQ(e.ranking().front(), 0U) << "batch=" << batch;
    EXPECT_GT(e.peak(0), 0.5) << "batch=" << batch;
    const double exact = exact_pearson(s, 0, 0);
    EXPECT_NEAR(e.correlation(0, 0), exact, 1e-6) << "batch=" << batch;
  }

  // StreamingScan shares the fix: the huge-guess-space path scores the
  // truth on top too, under the same DC offset.
  ChaCha20Prng rng(0xDC0FF);
  constexpr std::uint32_t kTruth = 0x1ABCDE1;
  KnownLanes known;
  std::vector<float> col;
  for (std::size_t t = 0; t < s.samples.size(); ++t) {
    KnownOperand k{};
    k.y0 = static_cast<std::uint32_t>(rng.next_u64()) & fpr::kMantLowMask;
    known.push_back(k);
    col.push_back(static_cast<float>(
        1e8 + std::popcount(std::uint64_t{kTruth} * k.y0) + rng.gaussian()));
  }
  std::vector<std::uint32_t> guesses = {kTruth};
  for (int g = 0; g < 15; ++g) {
    guesses.push_back(static_cast<std::uint32_t>(rng.next_u64()) & fpr::kMantLowMask);
  }
  const StreamingScan scan({{col, &known, {HypKind::kMulY0}}});
  const auto top = scan.top_k_list(guesses, guesses.size());
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().guess, kTruth);
  EXPECT_GT(top.front().score, 0.5);
}

TEST(CpaKernel, CorrelationIsShiftInvariantBitForBit) {
  // t and t - 2^26 are within a factor of two of each other, so the
  // float subtraction is exact (Sterbenz): both engines see identical
  // shifted values and must produce identical doubles.
  const auto s =
      make_synthetic(300, 8, 2, 1.0, static_cast<double>(1 << 26), 1.0, 0x5111F7);
  auto shifted = s;
  for (auto& row : shifted.samples) {
    for (auto& x : row) x -= static_cast<float>(1 << 26);
  }
  const CpaEngine a = fold_synthetic(s);
  const CpaEngine b = fold_synthetic(shifted);
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      EXPECT_EQ(a.correlation(g, c), b.correlation(g, c));
    }
  }
  EXPECT_EQ(a.ranking(), b.ranking());
}

// --- ranking ---------------------------------------------------------------

TEST(CpaKernel, AbsPeakRankingCatchesInvertedLeakage) {
  // Inverted device: amplitude DROPS with the Hamming weight. The truth
  // correlates near -1; |r| ranking is polarity-blind and still finds it.
  auto s = make_synthetic(500, 16, 1, 0.5, 0.0, 1.0, 0x1EAF);
  for (std::size_t d = 0; d < s.samples.size(); ++d) {
    s.samples[d][0] = 200.0f - s.samples[d][0];
  }
  const CpaEngine engine = fold_synthetic(s);
  EXPECT_LT(engine.correlation(0, 0), -0.9);  // the leak really is inverted
  EXPECT_EQ(engine.ranking().front(), 0U);
  EXPECT_GT(engine.peak(0), 0.9);
}

// --- foreign-layout windows (satellite bugfix) -----------------------------

TEST(CpaKernel, ForeignLayoutWindowFoldsNothingAndDoesNotCount) {
  const fpr::Fpr known = fpr::Fpr::from_bits(0x3FF8000000000000ULL);  // 1.5
  sca::TraceSet set;
  set.slot = 0;
  for (int i = 0; i < 5; ++i) {
    sca::CapturedTrace ct;
    ct.known_re = known;
    ct.known_im = known;
    ct.trace.samples.assign(4, 0.0f);  // no room for any fpr_mul view
    set.traces.push_back(ct);
  }
  const auto spec = exponent_spec();
  auto& windows = obs::MetricsRegistry::global().counter("attack.cpa.windows");

  const std::uint64_t before = windows.value();
  const CpaEngine empty = run_cpa(set, spec);
  EXPECT_EQ(empty.num_traces(), 0U);
  if (FD_OBS_ENABLED) {
    // Foreign windows must not advance the cadence/window count.
    EXPECT_EQ(windows.value() - before, 0U);
  }

  // One well-formed window among the foreign ones: exactly it counts.
  set.traces[2].trace.samples.assign(sca::window::kEventsPerMul * 6, 0.0f);
  const std::uint64_t before2 = windows.value();
  const CpaEngine one = run_cpa(set, spec);
  EXPECT_EQ(one.num_traces(), 2U);  // both views of the one good window
  if (FD_OBS_ENABLED) {
    EXPECT_EQ(windows.value() - before2, 1U);
  }
}

// --- single-pass gated component fan-out -----------------------------------

TEST(CpaKernel, SinglePassGatedMatchesLegacyAtOneScan) {
  ChaCha20Prng rng(0xD341);
  const auto kp = falcon::keygen(4, rng);
  auto cfg = small_config(0xD341);
  cfg.num_traces = 300;
  TempFile tmp("ck_gated.fdtrace");
  ASSERT_TRUE(sca::run_campaign_to_archive(kp.sk, cfg, tmp.path).ok);

  KeyRecoveryConfig krc;
  const auto config_for = [&](const ComponentIndex& ci) {
    return component_attack_config(kp.sk, krc, /*row=*/0, ci.slot, ci.imag);
  };
  QualityConfig gate;
  gate.enabled = true;

  const std::vector<std::size_t> components = {0, 3, 11};
  auto& scans = obs::MetricsRegistry::global().counter("attack.archive.scans");

  std::vector<ComponentResult> res_sp;
  std::vector<std::size_t> acc_sp;
  QualityReport q_sp;
  std::string err;
  const std::uint64_t before_sp = scans.value();
  ASSERT_TRUE(attack_components_gated(tmp.path, gate, config_for, nullptr, components,
                                      res_sp, acc_sp, &q_sp, &err))
      << err;
  if (FD_OBS_ENABLED) {
    EXPECT_EQ(scans.value() - before_sp, 1U);  // one demux scan for all 3
  }

  // The reference: the same campaign in memory (the archive stores it
  // losslessly), every slot screened once by the same gate, then the
  // in-memory component fan-out.
  std::vector<sca::TraceSet> sets = sca::run_full_campaign(kp.sk, cfg);
  std::vector<QualityReport> slot_reports;
  for (auto& set : sets) {
    slot_reports.push_back(screen_trace_set(set, gate, cfg.device.jitter_max));
  }
  const std::vector<ComponentResult> reference =
      attack_all_components_parallel(sets, config_for, nullptr);

  // Bit-identical results, accepted-trace counts, and gate report.
  ASSERT_EQ(res_sp.size(), reference.size());
  QualityReport q_ref;
  for (const std::size_t idx : components) {
    const ComponentIndex ci = component_index(idx, sets.size());
    EXPECT_EQ(res_sp[idx].bits, reference[idx].bits) << "component " << idx;
    EXPECT_EQ(res_sp[idx].sign, reference[idx].sign);
    EXPECT_EQ(res_sp[idx].exponent, reference[idx].exponent);
    EXPECT_EQ(res_sp[idx].x0, reference[idx].x0);
    EXPECT_EQ(res_sp[idx].x1, reference[idx].x1);
    EXPECT_EQ(acc_sp[idx], sets[ci.slot].traces.size());
    q_ref.add(slot_reports[ci.slot]);
  }
  EXPECT_EQ(q_sp.total, q_ref.total);
  EXPECT_EQ(q_sp.accepted, q_ref.accepted);
  EXPECT_EQ(q_sp.rejected_saturated, q_ref.rejected_saturated);
  EXPECT_EQ(q_sp.rejected_energy, q_ref.rejected_energy);
  EXPECT_EQ(q_sp.rejected_alignment, q_ref.rejected_alignment);
  EXPECT_EQ(q_sp.realigned, q_ref.realigned);
}

// --- the pipeline's one-pass-per-round pin ---------------------------------

TEST(CpaKernel, PipelineAttackRoundScansArchiveOnce) {
  if (!FD_OBS_ENABLED) GTEST_SKIP() << "built with FD_OBS=OFF";
  ChaCha20Prng rng(0xD00D);
  const auto victim = falcon::keygen(4, rng);

  TempFile tmp("ck_pipeline.fdtrace");
  RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = 400;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.seed = 0xD00D;
  cfg.archive_path = tmp.path;

  auto& scans = obs::MetricsRegistry::global().counter("attack.archive.scans");
  const std::uint64_t before = scans.value();
  const auto res = run_recovery_pipeline(victim, cfg);
  ASSERT_TRUE(res.ok) << res.error;
  // The full-key attack round (all 2N components, demuxed) is exactly
  // one archive pass.
  EXPECT_EQ(scans.value() - before, 1U);
  EXPECT_EQ(res.recovery.components_total, victim.pk.params.n);
}

// --- SIMD dispatch (tentpole): vector lanes ARE the scalar lanes -----------

// Restores the env-resolved kernel however a test exits.
struct SimdGuard {
  ~SimdGuard() { cpa_reset_simd(); }
};

CpaSimd best_vector_simd() {
  if (cpa_simd_available(CpaSimd::kAvx2)) return CpaSimd::kAvx2;
  if (cpa_simd_available(CpaSimd::kNeon)) return CpaSimd::kNeon;
  return CpaSimd::kScalar;
}

TEST(CpaSimd, VectorPrimitivesMatchScalarBitForBit) {
  const CpaSimd vec = best_vector_simd();
  if (vec == CpaSimd::kScalar) GTEST_SKIP() << "no vector unit on this host";
  SimdGuard guard;
  ChaCha20Prng rng(0x51D0);
  // Lengths straddle every tail residue (n % 4 in {0,1,2,3}) and the
  // empty fold.
  for (const std::size_t n : {0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 8U, 15U, 16U, 17U,
                              63U, 64U, 100U, 257U}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Wild magnitude spread: any reassociation or FMA contraction in
      // the vector path would show up as a differing low bit here.
      a[i] = rng.gaussian() * 1e6 + rng.gaussian();
      b[i] = rng.gaussian() * 1e-3 + rng.gaussian() * 1e4;
    }
    ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
    const double s_sum = lanes4_sum(a.data(), n);
    const double s_sumsq = lanes4_sumsq(a.data(), n);
    const double s_dot = lanes4_dot(a.data(), b.data(), n);
    const HFold s_fold = lanes4_fold_h(a.data(), b.data(), n);
    ASSERT_TRUE(cpa_force_simd(vec));
    EXPECT_EQ(lanes4_sum(a.data(), n), s_sum) << "n=" << n;
    EXPECT_EQ(lanes4_sumsq(a.data(), n), s_sumsq) << "n=" << n;
    EXPECT_EQ(lanes4_dot(a.data(), b.data(), n), s_dot) << "n=" << n;
    const HFold v_fold = lanes4_fold_h(a.data(), b.data(), n);
    EXPECT_EQ(v_fold.sh, s_fold.sh) << "n=" << n;
    EXPECT_EQ(v_fold.sh2, s_fold.sh2) << "n=" << n;
    EXPECT_EQ(v_fold.sht, s_fold.sht) << "n=" << n;
  }
}

TEST(CpaSimd, EngineCorrelationsIdenticalAcrossKernels) {
  const CpaSimd vec = best_vector_simd();
  if (vec == CpaSimd::kScalar) GTEST_SKIP() << "no vector unit on this host";
  SimdGuard guard;
  // 101 traces (tail batch), 17 guesses x 3 samples (odd shapes).
  const auto s = make_synthetic(101, 17, 3, 2.0, 0.0, 1.5, 0x51D1);

  ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
  const CpaEngine scalar = fold_synthetic(s, 64);
  std::vector<double> scalar_r;
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      scalar_r.push_back(scalar.correlation(g, c));
    }
  }
  const auto scalar_rank = scalar.ranking();

  ASSERT_TRUE(cpa_force_simd(vec));
  EXPECT_EQ(cpa_active_simd(), vec);
  const CpaEngine vector = fold_synthetic(s, 64);
  std::size_t i = 0;
  for (std::size_t g = 0; g < s.num_guesses; ++g) {
    for (std::size_t c = 0; c < s.num_samples; ++c) {
      EXPECT_EQ(vector.correlation(g, c), scalar_r[i++]) << "g=" << g << " c=" << c;
    }
  }
  EXPECT_EQ(vector.ranking(), scalar_rank);
}

TEST(CpaSimd, EnvOverrideHonored) {
  SimdGuard guard;
  ::setenv("FD_CPA_KERNEL", "scalar", 1);
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), CpaSimd::kScalar);
  EXPECT_STREQ(cpa_simd_name(cpa_active_simd()), "scalar");

  if (cpa_simd_available(CpaSimd::kAvx2)) {
    ::setenv("FD_CPA_KERNEL", "avx2", 1);
    cpa_reset_simd();
    EXPECT_EQ(cpa_active_simd(), CpaSimd::kAvx2);
    EXPECT_STREQ(cpa_simd_name(cpa_active_simd()), "avx2");
  }

  // Unknown names fall back to auto-detection, never crash.
  ::setenv("FD_CPA_KERNEL", "quantum", 1);
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), best_vector_simd());

  ::unsetenv("FD_CPA_KERNEL");
  cpa_reset_simd();
  EXPECT_EQ(cpa_active_simd(), best_vector_simd());

  // Forcing an unavailable kernel is refused without changing state.
  if (!cpa_simd_available(CpaSimd::kNeon)) {
    const CpaSimd before = cpa_active_simd();
    EXPECT_FALSE(cpa_force_simd(CpaSimd::kNeon));
    EXPECT_EQ(cpa_active_simd(), before);
  }
}

// --- sharded StreamingScan (tentpole): byte-identical top-k ----------------

TEST(CpaShards, StreamingScanShardingIsByteIdentical) {
  const auto s = make_synthetic(120, 200, 2, 2.0, 0.0, 1.2, 0x5AAD);
  ChaCha20Prng rng(0x5AAD);
  KnownLanes known;
  std::vector<std::vector<float>> cols(s.num_samples);
  for (std::size_t t = 0; t < s.samples.size(); ++t) {
    known.push_back(
        KnownOperand::from(fpr::Fpr::from_bits((rng.next_u64() >> 2) | (1ULL << 62))));
    for (std::size_t c = 0; c < s.num_samples; ++c) cols[c].push_back(s.samples[t][c]);
  }
  StreamingScan scan(
      {{cols[0], &known, {HypKind::kMulY0}}, {cols[1], &known, {HypKind::kMulY1}}});

  // A guess list with DUPLICATES: equal scores are guaranteed, so the
  // arrival-order tiebreak itself is under test (and g, 2g, 4g, ...
  // predict identical weights, so shift-family ties are too).
  std::vector<std::uint32_t> guesses;
  for (std::uint32_t g = 0; g < s.num_guesses; ++g) guesses.push_back(g);
  for (std::uint32_t g = 0; g < 40; ++g) guesses.push_back(g);  // repeats

  const auto serial = scan.top_k_list(guesses, 24);
  ASSERT_EQ(serial.size(), 24U);

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool3(3);
  for (const std::size_t shards : {2U, 3U, 7U, 64U}) {
    for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr), &pool1, &pool3}) {
      scan.set_parallelism(shards, pool);
      const auto sharded = scan.top_k_list(guesses, 24);
      ASSERT_EQ(sharded.size(), serial.size()) << "shards=" << shards;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(sharded[i].guess, serial[i].guess) << "shards=" << shards << " i=" << i;
        EXPECT_EQ(sharded[i].score, serial[i].score) << "shards=" << shards << " i=" << i;
      }
      // top_k over a contiguous range shards identically too.
      scan.set_parallelism(1, nullptr);
      const auto range_serial = scan.top_k(0, s.num_guesses, 16);
      scan.set_parallelism(shards, pool);
      const auto range_sharded = scan.top_k(0, s.num_guesses, 16);
      ASSERT_EQ(range_sharded.size(), range_serial.size());
      for (std::size_t i = 0; i < range_serial.size(); ++i) {
        EXPECT_EQ(range_sharded[i].guess, range_serial[i].guess);
        EXPECT_EQ(range_sharded[i].score, range_serial[i].score);
      }
    }
  }
}

TEST(CpaShards, ComponentAttackShardingIsByteIdentical) {
  ChaCha20Prng rng(0xC0A7);
  const auto kp = falcon::keygen(4, rng);
  auto camp = small_config(0xC0A7);
  camp.num_traces = 250;
  const auto sets = sca::run_full_campaign(kp.sk, camp);
  const ComponentDataset ds = build_component_dataset(sets[1], /*imag_part=*/false);

  KeyRecoveryConfig krc;
  ComponentAttackConfig serial_cfg =
      component_attack_config(kp.sk, krc, /*row=*/0, /*slot=*/1, /*imag=*/false);
  const ComponentResult serial = attack_component(ds, serial_cfg);

  exec::ThreadPool pool(2);
  for (const std::size_t shards : {2U, 7U}) {
    ComponentAttackConfig cfg = serial_cfg;
    cfg.cpa_shards = shards;
    cfg.scan_pool = &pool;
    const ComponentResult sharded = attack_component(ds, cfg);
    EXPECT_EQ(sharded.bits, serial.bits) << "shards=" << shards;
    EXPECT_EQ(sharded.sign, serial.sign);
    EXPECT_EQ(sharded.exponent, serial.exponent);
    EXPECT_EQ(sharded.x0, serial.x0);
    EXPECT_EQ(sharded.x1, serial.x1);
    // Every phase's ranked list is byte-identical, not just the winner.
    const PhaseOutcome* serial_phases[] = {&serial.sign_phase, &serial.exp_phase,
                                           &serial.low_extend, &serial.low_prune,
                                           &serial.high_extend, &serial.high_prune};
    const PhaseOutcome* sharded_phases[] = {&sharded.sign_phase, &sharded.exp_phase,
                                            &sharded.low_extend, &sharded.low_prune,
                                            &sharded.high_extend, &sharded.high_prune};
    for (int p = 0; p < 6; ++p) {
      ASSERT_EQ(sharded_phases[p]->top.size(), serial_phases[p]->top.size()) << "phase " << p;
      for (std::size_t i = 0; i < serial_phases[p]->top.size(); ++i) {
        EXPECT_EQ(sharded_phases[p]->top[i].guess, serial_phases[p]->top[i].guess);
        EXPECT_EQ(sharded_phases[p]->top[i].score, serial_phases[p]->top[i].score);
      }
    }
  }
}

// --- score pins --------------------------------------------------------------
//
// The digests below were recorded from the per-(guess, trace, column)
// model-lambda scan that preceded the hypothesis tiles. Any scan
// optimisation must reproduce every phase's ranked list bit for bit, at
// every dispatch kind, batch size and shard count, including trace
// counts that leave a partial batch and a partial 4-lane group.

struct ScanPin {
  std::size_t traces;
  std::size_t batch;
  std::uint64_t digest;
};

constexpr ScanPin kScanPins[] = {
    {256, 64, 0x9829bbd99af230a3ULL},
    {256, 1, 0x9829bbd99af230a3ULL},
    {203, 64, 0x1f20ea1dbc878cc3ULL},
    {203, 1, 0x1f20ea1dbc878cc3ULL},
};

struct ScanPinRig {
  falcon::KeyPair kp;
  std::vector<sca::TraceSet> sets;

  ScanPinRig() {
    ChaCha20Prng rng(0x5CA9);
    kp = falcon::keygen(4, rng);
    auto camp = small_config(0x5CA9);
    camp.num_traces = 256;
    sets = sca::run_full_campaign(kp.sk, camp);
  }

  // First 64 bits of SHAKE256 over every phase's top list (guess, score
  // bit pattern) of two components, one per dataset part.
  [[nodiscard]] std::uint64_t digest(std::size_t traces, std::size_t batch, std::size_t shards,
                                     exec::ThreadPool* pool) const {
    Shake256 sh;
    const auto put = [&sh](std::uint64_t v) {
      std::uint8_t b[8];
      for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
      sh.inject(b);
    };
    for (const auto& [slot, imag] : {std::pair{std::size_t{1}, false}, {std::size_t{2}, true}}) {
      const ComponentDataset ds = build_component_dataset(sets[slot], imag, traces);
      KeyRecoveryConfig krc;
      krc.cpa_batch = batch;
      ComponentAttackConfig cfg = component_attack_config(kp.sk, krc, 0, slot, imag);
      cfg.cpa_shards = shards;
      cfg.scan_pool = pool;
      const ComponentResult r = attack_component(ds, cfg);
      for (const PhaseOutcome* p : {&r.sign_phase, &r.exp_phase, &r.low_extend, &r.low_prune,
                                    &r.high_extend, &r.high_prune}) {
        put(p->top.size());
        for (const auto& s : p->top) {
          put(s.guess);
          put(std::bit_cast<std::uint64_t>(s.score));
        }
      }
      put(r.bits);
    }
    sh.flip();
    return sh.extract_u64();
  }
};

TEST(ScanPins, ScoresMatchReferenceAtEveryKernel) {
  SimdGuard guard;
  const ScanPinRig rig;
  for (const CpaSimd kind : {CpaSimd::kScalar, CpaSimd::kAvx2, CpaSimd::kNeon}) {
    if (!cpa_force_simd(kind)) continue;
    for (const ScanPin& pin : kScanPins) {
      const std::uint64_t d = rig.digest(pin.traces, pin.batch, 1, nullptr);
      EXPECT_EQ(d, pin.digest) << std::hex << "0x" << d << std::dec << " at kernel "
                               << cpa_simd_name(kind) << ", traces " << pin.traces
                               << ", batch " << pin.batch;
    }
  }
}

TEST(ScanPins, ShardedScoresMatchReference) {
  SimdGuard guard;
  const ScanPinRig rig;
  exec::ThreadPool pool(2);
  for (const CpaSimd kind : {CpaSimd::kScalar, CpaSimd::kAvx2, CpaSimd::kNeon}) {
    if (!cpa_force_simd(kind)) continue;
    for (const ScanPin& pin : kScanPins) {
      const std::uint64_t d = rig.digest(pin.traces, pin.batch, 3, &pool);
      EXPECT_EQ(d, pin.digest) << std::hex << "0x" << d << std::dec << " at kernel "
                               << cpa_simd_name(kind) << ", traces " << pin.traces
                               << ", batch " << pin.batch << ", 3 shards";
    }
  }
}

// The campaign above leaks small integers, so its sums are exact in any
// order and the pins cannot see a reordered fold. Sample magnitudes
// spread over many binades can: here every model kind is scored against the per-guess program
// spelled out -- materialise h - h0 per block, lanes4_fold_h it, sum the
// blocks in order -- at every dispatch kind, at batch sizes that leave a
// partial block and a partial 4-lane group (203 traces), and through
// both the one-guess and the two-guess groups of the fused kernel.
TEST(HypTiles, EveryKindMatchesPerGuessFoldBitForBit) {
  SimdGuard guard;
  ChaCha20Prng rng(0x711E);
  constexpr std::size_t kD = 203;
  KnownLanes known;
  std::vector<float> col(kD);
  for (std::size_t t = 0; t < kD; ++t) {
    KnownOperand k{};
    k.y0 = static_cast<std::uint32_t>(rng.next_u64()) & fpr::kMantLowMask;
    k.y1 = (1U << 27) | (static_cast<std::uint32_t>(rng.next_u64()) & ((1U << 27) - 1));
    k.exponent = 1000 + static_cast<unsigned>(rng.uniform(60));
    k.sign = (rng.next_u64() & 1) != 0;
    known.push_back(k);
    // Magnitudes spread over 2^-20..2^20: float samples of one magnitude
    // have too few bits for any sum of h * t to round, so only a spread
    // makes the order of the additions visible.
    col[t] = static_cast<float>(
        std::ldexp(rng.gaussian(), static_cast<int>(rng.uniform(41)) - 20));
  }
  std::vector<std::uint32_t> guesses = {0, 1, 1029, 0xFFFFFFFF};
  for (int g = 0; g < 8; ++g) guesses.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  const std::uint32_t x0 = 0x1234567;

  const auto reference = [&](const HypModel& m, std::uint32_t g, std::size_t batch) {
    std::vector<double> c(kD);
    for (std::size_t t = 0; t < kD; ++t) {
      c[t] = static_cast<double>(col[t]) - static_cast<double>(col[0]);
    }
    const double dn = static_cast<double>(kD);
    const double st = lanes4_sum(c.data(), kD);
    const double var_t = dn * lanes4_sumsq(c.data(), kD) - st * st;
    const double h0 = hyp_model(m, g, known[0]);
    double sh = 0.0, sh2 = 0.0, sht = 0.0;
    std::vector<double> hblk(batch);
    for (std::size_t t0 = 0; t0 < kD; t0 += batch) {
      const std::size_t n = std::min(batch, kD - t0);
      for (std::size_t b = 0; b < n; ++b) hblk[b] = hyp_model(m, g, known[t0 + b]) - h0;
      const HFold f = lanes4_fold_h(hblk.data(), c.data() + t0, n);
      sh += f.sh;
      sh2 += f.sh2;
      sht += f.sht;
    }
    const double var_h = dn * sh2 - sh * sh;
    const double cov = dn * sht - sh * st;
    const double denom = var_h * var_t;
    return denom > 0.0 ? cov / std::sqrt(denom) : 0.0;
  };

  for (const HypKind kind : {HypKind::kSign, HypKind::kExpSum, HypKind::kMulY0, HypKind::kMulY1,
                             HypKind::kAccZ1a, HypKind::kAccZ1b, HypKind::kAccZu}) {
    const HypModel m{kind, x0};
    for (const std::size_t batch : {1U, 7U, 64U}) {
      ASSERT_TRUE(cpa_force_simd(CpaSimd::kScalar));
      std::vector<double> want;
      for (const std::uint32_t g : guesses) want.push_back(reference(m, g, batch));
      for (const CpaSimd simd : {CpaSimd::kScalar, CpaSimd::kAvx2, CpaSimd::kNeon}) {
        if (!cpa_force_simd(simd)) continue;
        const StreamingScan scan({{col, &known, m}}, batch);
        const auto top = scan.top_k_list(guesses, guesses.size());
        ASSERT_EQ(top.size(), guesses.size());
        for (std::size_t i = 0; i < guesses.size(); ++i) {
          const auto it = std::find_if(top.begin(), top.end(),
                                       [&](const auto& s) { return s.guess == guesses[i]; });
          ASSERT_NE(it, top.end());
          EXPECT_EQ(it->score, want[i])
              << "kind " << static_cast<int>(kind) << ", batch " << batch << ", kernel "
              << cpa_simd_name(simd) << ", guess 0x" << std::hex << guesses[i];
          EXPECT_EQ(scan.score_one(guesses[i]), want[i]);
        }
      }
    }
  }
}

// --- engine pins --------------------------------------------------------------
//
// CpaEngine's correlations pinned by digest: a synthetic fold under a
// 1e6 DC offset at one and at three sample columns, at batch sizes 1, 7
// and 64, over a trace count that leaves a partial batch and a partial
// 4-lane group. Integer hypotheses against float samples would sum
// exactly in any order, so each hypothesis is scaled by a per-trace
// factor near 1: the products then round, and a reordered fold changes
// the digest (the batch sizes pin different values). The digests were
// recorded from the batch-staging engine that preceded the lanes4
// accumulator; every dispatch kind must reproduce them bit for bit.

struct CpaPin {
  std::size_t samples;
  std::size_t batch;
  std::uint64_t digest;
};

constexpr CpaPin kCpaPins[] = {
    {1, 1, 0xb5d54083fbbaa6e7ULL}, {1, 7, 0x036c47764d891c8cULL},
    {1, 64, 0x6aa4991f7867a059ULL}, {3, 1, 0xcbebbeafce337fabULL},
    {3, 7, 0x45e001581b927c58ULL}, {3, 64, 0xb1008c33d670ec2dULL},
};

// First 64 bits of SHAKE256 over every correlation(g, c) bit pattern,
// guess-major.
std::uint64_t engine_digest(const CpaEngine& e) {
  Shake256 sh;
  for (std::size_t g = 0; g < e.num_guesses(); ++g) {
    for (std::size_t c = 0; c < e.num_samples(); ++c) {
      const auto v = std::bit_cast<std::uint64_t>(e.correlation(g, c));
      std::uint8_t b[8];
      for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
      sh.inject(b);
    }
  }
  sh.flip();
  return sh.extract_u64();
}

TEST(CpaPins, CorrelationsMatchReferenceAtEveryKernel) {
  SimdGuard guard;
  for (const CpaSimd kind : {CpaSimd::kScalar, CpaSimd::kAvx2, CpaSimd::kNeon}) {
    if (!cpa_force_simd(kind)) continue;
    for (const CpaPin& pin : kCpaPins) {
      // 201 traces: 201 % 7 = 5, 201 % 64 = 9, 201 % 4 = 1.
      auto s = make_synthetic(201, 19, pin.samples, 2.0, 1e6, 1.5, 0xC9A + pin.samples);
      ChaCha20Prng rng(0xC9A);
      for (auto& row : s.hyps) {
        const double scale = 1.0 + 0.01 * rng.gaussian();
        for (double& h : row) h *= scale;
      }
      const std::uint64_t d = engine_digest(fold_synthetic(s, pin.batch));
      EXPECT_EQ(d, pin.digest) << std::hex << "0x" << d << std::dec << " at kernel "
                               << cpa_simd_name(kind) << ", samples " << pin.samples
                               << ", batch " << pin.batch;
    }
  }
}

// --- release-mode contract pins (satellite bugfixes) -----------------------
//
// The default build defines NDEBUG, so these tests exercise exactly the
// release-mode behavior: each contract violation must be a checked
// error, not a skipped assert followed by out-of-bounds access.

TEST(CpaRelease, AddTraceShapeMismatchThrowsInEveryBuildMode) {
  CpaEngine engine(4, 3);
  const std::vector<double> good_h(4, 1.0);
  const std::vector<float> good_t(3, 1.0F);
  const std::vector<double> short_h(3, 1.0);
  const std::vector<float> short_t(2, 1.0F);
  const std::vector<double> long_h(5, 1.0);

  EXPECT_THROW(engine.add_trace(short_h, good_t), std::invalid_argument);
  EXPECT_THROW(engine.add_trace(good_h, short_t), std::invalid_argument);
  EXPECT_THROW(engine.add_trace(long_h, good_t), std::invalid_argument);
  // Refused traces left no partial state behind: a good trace still
  // folds into a clean accumulator.
  EXPECT_EQ(engine.num_traces(), 0U);
  engine.add_trace(good_h, good_t);
  EXPECT_EQ(engine.num_traces(), 1U);
}

TEST(CpaRelease, StreamingScanShapeMismatchThrowsInEveryBuildMode) {
  KnownLanes known;
  for (int t = 0; t < 4; ++t) known.push_back(KnownOperand{});
  const std::vector<float> four(4, 1.0F), five(5, 1.0F);
  const HypModel m{HypKind::kMulY0};
  // Ragged columns, and more samples than known operands.
  EXPECT_THROW(StreamingScan({{four, &known, m}, {five, &known, m}}), std::invalid_argument);
  EXPECT_THROW(StreamingScan({{five, &known, m}}), std::invalid_argument);
  EXPECT_THROW(StreamingScan({{four, nullptr, m}}), std::invalid_argument);
  EXPECT_NO_THROW(StreamingScan({{four, &known, m}}));
}

#ifdef FD_ATTACK_BIN

// --- e2e: fd-attack --cpa-shards -------------------------------------------

std::string run_cmd(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) out.append(buf, n);
  const int rc = ::pclose(p);
  EXPECT_EQ(rc, 0) << cmd << "\n" << out;
  return out;
}

TEST(CpaShards, FdAttackCpaShardsIsByteIdenticalEndToEnd) {
  const std::string base = std::string(FD_ATTACK_BIN) +
                           " recover --logn 4 --traces 260 --seed 0xE2E --json"
                           " --archive ck_e2e_shards.fdtrace";
  const std::string one = run_cmd(base + " --cpa-shards 1 2>/dev/null");
  const std::string two = run_cmd(base + " --threads 2 --cpa-shards 7 2>/dev/null");
  ASSERT_FALSE(one.empty());
  // The JSON echoes cpa_shards (and threads), which legitimately
  // differ; every recovery field must not. Compare with those two knobs
  // normalized out.
  const auto normalize = [](std::string s) {
    // Also drop the stage_*_ms wall-clock fields -- the only fields a
    // deterministic run is allowed to vary.
    for (const char* key : {"\"cpa_shards\":", "\"threads\":", "\"stage_"}) {
      std::size_t pos = 0;
      while ((pos = s.find(key, pos)) != std::string::npos) {
        auto end = s.find_first_of(",}", pos);
        s.erase(pos, end - pos + 1);
      }
    }
    return s;
  };
  EXPECT_EQ(normalize(one), normalize(two));
  EXPECT_NE(one.find("\"cpa_shards\":1"), std::string::npos);
  EXPECT_NE(two.find("\"cpa_shards\":7"), std::string::npos);
}

#endif  // FD_ATTACK_BIN

}  // namespace
}  // namespace fd::attack
