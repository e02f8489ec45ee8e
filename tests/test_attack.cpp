// Attack-layer tests: CPA statistics, hypothesis-model exactness, the
// false-positive structure, and single-component extend-and-prune on
// real captured traces.

#include <gtest/gtest.h>

#include <cmath>

#include "attack/cpa.h"
#include "attack/extend_prune.h"
#include "attack/hypothesis.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"

namespace fd::attack {
namespace {

using fpr::Fpr;

TEST(Cpa, ConfidenceZKnownValues) {
  EXPECT_NEAR(confidence_z(0.95), 1.9600, 1e-3);
  EXPECT_NEAR(confidence_z(0.99), 2.5758, 1e-3);
  EXPECT_NEAR(confidence_z(0.9999), 3.8906, 1e-3);
}

TEST(Cpa, PerfectCorrelationDetected) {
  CpaEngine eng(2, 1);
  ChaCha20Prng rng(0xB001);
  for (int i = 0; i < 200; ++i) {
    const double h = static_cast<double>(rng.uniform(9));
    const double wrong = static_cast<double>(rng.uniform(9));
    const float sample = static_cast<float>(3.0 * h + 1.0);
    const double hyps[2] = {h, wrong};
    eng.add_trace(hyps, {&sample, 1});
  }
  EXPECT_NEAR(eng.correlation(0, 0), 1.0, 1e-9);
  EXPECT_LT(std::fabs(eng.correlation(1, 0)), 0.25);
  EXPECT_EQ(eng.ranking()[0], 0U);
}

TEST(Cpa, ConstantHypothesisGivesZero) {
  CpaEngine eng(1, 1);
  for (int i = 0; i < 50; ++i) {
    const double h = 4.0;
    const float s = static_cast<float>(i);
    eng.add_trace({&h, 1}, {&s, 1});
  }
  EXPECT_EQ(eng.correlation(0, 0), 0.0);
}

TEST(Cpa, NegativeCorrelation) {
  CpaEngine eng(1, 1);
  for (int i = 0; i < 100; ++i) {
    const double h = i;
    const float s = static_cast<float>(-2.0 * i);
    eng.add_trace({&h, 1}, {&s, 1});
  }
  EXPECT_NEAR(eng.correlation(0, 0), -1.0, 1e-9);
}

TEST(Cpa, StreamingScanMatchesEngine) {
  ChaCha20Prng rng(0xB002);
  constexpr std::size_t kD = 300;
  std::vector<float> col(kD);
  KnownLanes known;
  for (std::size_t i = 0; i < kD; ++i) {
    KnownOperand k{};
    k.y0 = static_cast<std::uint32_t>(rng.next_u64()) & fpr::kMantLowMask;
    known.push_back(k);
    col[i] = static_cast<float>(std::popcount(std::uint64_t{k.y0} * 0xABCDU)) +
             static_cast<float>(rng.gaussian());
  }
  // Engine path.
  CpaEngine eng(3, 1);
  const std::uint32_t guesses[3] = {0xABCD, 0x1234, 0x9999};
  for (std::size_t i = 0; i < kD; ++i) {
    double hyps[3];
    for (int g = 0; g < 3; ++g) hyps[g] = std::popcount(std::uint64_t{known.y0[i]} * guesses[g]);
    eng.add_trace(hyps, {&col[i], 1});
  }
  // Streaming path.
  StreamingScan scan({{col, &known, {HypKind::kMulY0}}});
  const auto top = scan.top_k_list(guesses, 3);
  ASSERT_EQ(top.size(), 3U);
  EXPECT_EQ(top[0].guess, 0xABCDU);
  for (int g = 0; g < 3; ++g) {
    const double eng_r = eng.correlation(static_cast<std::size_t>(g), 0);
    double scan_r = 0.0;
    for (const auto& s : top) {
      if (s.guess == guesses[g]) scan_r = s.score;
    }
    EXPECT_NEAR(eng_r, scan_r, 1e-9);
  }
}

TEST(Hypothesis, Z1aIndependentOfHighHalf) {
  // The low-prune model assumes z1a does not depend on x1; verify across
  // random operands.
  ChaCha20Prng rng(0xB003);
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t x0 = static_cast<std::uint32_t>(rng.next_u64()) & fpr::kMantLowMask;
    const std::uint32_t x1a = (1U << 27) | (static_cast<std::uint32_t>(rng.next_u64()) & ((1U << 27) - 1));
    const std::uint32_t x1b = (1U << 27) | (static_cast<std::uint32_t>(rng.next_u64()) & ((1U << 27) - 1));
    const std::uint64_t ym = (rng.next_u64() & 0x000FFFFFFFFFFFFFULL) | (1ULL << 52);
    const std::uint64_t xma = (static_cast<std::uint64_t>(x1a) << 25) | x0;
    const std::uint64_t xmb = (static_cast<std::uint64_t>(x1b) << 25) | x0;
    ASSERT_EQ(fpr::mul_mantissa_steps(xma, ym).z1a, fpr::mul_mantissa_steps(xmb, ym).z1a);
  }
}

TEST(Hypothesis, ModelsMatchDeviceEvents) {
  // Predictions must equal the leaked values exactly for the true key.
  ChaCha20Prng rng(0xB004);
  const auto kp = falcon::keygen(4, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 4;
  cfg.device.noise_sigma = 0.0;
  const auto set = sca::run_signing_campaign(kp.sk, 1, cfg);
  const ComponentDataset ds = build_component_dataset(set, /*imag_part=*/false);

  const Fpr secret = kp.sk.b01[1];
  const KnownOperand secret_split = KnownOperand::from(secret);
  for (std::size_t t = 0; t < ds.num_traces; ++t) {
    for (unsigned v = 0; v < 2; ++v) {
      const KnownOperand& k = ds.views[v].known[t];
      EXPECT_FLOAT_EQ(ds.views[v].samples[sca::window::kOffSign][t],
                      static_cast<float>(hyp_sign(secret.sign(), k)));
      EXPECT_FLOAT_EQ(ds.views[v].samples[sca::window::kOffExpSum][t],
                      static_cast<float>(hyp_exponent(secret.biased_exponent(), k)));
      EXPECT_FLOAT_EQ(ds.views[v].samples[sca::window::kOffProdLL][t],
                      static_cast<float>(hyp_low_mul_ll(secret_split.y0, k)));
      EXPECT_FLOAT_EQ(ds.views[v].samples[sca::window::kOffAccZ1a][t],
                      static_cast<float>(hyp_low_add_z1a(secret_split.y0, k)));
      EXPECT_FLOAT_EQ(ds.views[v].samples[sca::window::kOffProdHH][t],
                      static_cast<float>(hyp_high_mul_hh(secret_split.y1, k)));
      EXPECT_FLOAT_EQ(
          ds.views[v].samples[sca::window::kOffAccZu][t],
          static_cast<float>(hyp_high_add_zu(secret_split.y1, secret_split.y0, k)));
    }
  }
}

TEST(Candidates, AdversarialContainsTruthAndShifts) {
  const std::uint32_t truth = 0x00012340;  // shiftable both ways
  const auto cands = MantissaCandidates::adversarial(truth, false, 50, 1);
  const auto has = [&](std::uint32_t v) {
    return std::find(cands.begin(), cands.end(), v) != cands.end();
  };
  EXPECT_TRUE(has(truth));
  EXPECT_TRUE(has(truth << 1));
  EXPECT_TRUE(has(truth >> 4));  // trailing zeros: exact right shift
  EXPECT_GE(cands.size(), 50U);
  for (const auto v : cands) EXPECT_LT(v, 1U << 25);
}

TEST(Candidates, HighSpaceKeepsTopBit) {
  const std::uint32_t truth = (1U << 27) | 0x123456;
  const auto cands = MantissaCandidates::adversarial(truth, true, 30, 2);
  for (const auto v : cands) {
    EXPECT_GE(v, 1U << 27);
    EXPECT_LT(v, 1U << 28);
  }
}

TEST(Assemble, RoundTripsPaperCoefficient) {
  const Fpr x = Fpr::from_bits(0xC06017BC8036B580ULL);
  const KnownOperand s = KnownOperand::from(x);
  EXPECT_EQ(assemble_bits(x.sign(), x.biased_exponent(), s.y1, s.y0), x.bits());
}

// End-to-end on one component with realistic noise.
TEST(ComponentAttack, RecoversComponentFromNoisyTraces) {
  ChaCha20Prng rng(0xB005);
  const auto kp = falcon::keygen(5, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 900;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0xB005;
  const std::size_t slot = 3;
  const auto set = sca::run_signing_campaign(kp.sk, slot, cfg);

  for (const bool imag : {false, true}) {
    const Fpr truth = kp.sk.b01[slot + (imag ? kp.sk.params.n / 2 : 0)];
    const KnownOperand split = KnownOperand::from(truth);
    const ComponentDataset ds = build_component_dataset(set, imag);

    ComponentAttackConfig cac;
    cac.low_candidates = MantissaCandidates::adversarial(split.y0, false, 120, 11);
    cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 120, 12);
    const ComponentResult r = attack_component(ds, cac);

    EXPECT_EQ(r.sign, truth.sign()) << "imag=" << imag;
    // The exponent phase guarantees membership in its alias tie class;
    // exact resolution happens in key recovery's integrality repair.
    bool truth_in_class = false;
    for (const auto& s : r.exp_phase.top) {
      truth_in_class = truth_in_class || s.guess == truth.biased_exponent();
    }
    EXPECT_TRUE(truth_in_class) << "imag=" << imag;
    EXPECT_EQ(r.x0, split.y0) << "imag=" << imag;
    EXPECT_EQ(r.x1, split.y1) << "imag=" << imag;
    // Everything but the exponent assembles exactly.
    EXPECT_EQ(assemble_bits(r.sign, truth.biased_exponent(), r.x1, r.x0), truth.bits())
        << "imag=" << imag;
  }
}

// The paper's Section III.B claim, as a test: the multiplication-only
// attack cannot separate the shift family (false positives), while the
// full extend-and-prune pipeline resolves it.
TEST(ComponentAttack, MulOnlyHasFalsePositivesPruneResolvesThem) {
  ChaCha20Prng rng(0xB006);
  const auto kp = falcon::keygen(5, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = 1200;
  cfg.device.noise_sigma = 1.0;
  cfg.seed = 0xB006;

  int shift_families_tested = 0;
  int mul_only_ties = 0;
  for (std::size_t slot = 0; slot < 8 && shift_families_tested < 4; ++slot) {
    const auto set = sca::run_signing_campaign(kp.sk, slot, cfg);
    const Fpr truth = kp.sk.b01[slot];
    const KnownOperand split = KnownOperand::from(truth);
    // Need a truth whose shift stays in range (x0 < 2^24) to have a
    // guaranteed structural false positive.
    if (split.y0 >= (1U << 24) || split.y0 == 0) continue;
    ++shift_families_tested;

    const ComponentDataset ds = build_component_dataset(set, false);
    const std::uint32_t cands[2] = {split.y0, split.y0 << 1};

    // Extend only: scores must tie (exactly equal Hamming weights).
    const PhaseOutcome mul_only = attack_low_mul_only(ds, cands, 2);
    ASSERT_EQ(mul_only.top.size(), 2U);
    if (std::fabs(mul_only.top[0].score - mul_only.top[1].score) < 1e-12) ++mul_only_ties;

    // Prune: must prefer the truth.
    ComponentAttackConfig cac;
    cac.low_candidates = {split.y0, split.y0 << 1};
    cac.high_candidates = MantissaCandidates::adversarial(split.y1, true, 40, 77);
    const ComponentResult r = attack_component(ds, cac);
    EXPECT_EQ(r.x0, split.y0) << "slot=" << slot;
  }
  ASSERT_GE(shift_families_tested, 1);
  EXPECT_EQ(mul_only_ties, shift_families_tested);
}

}  // namespace
}  // namespace fd::attack
