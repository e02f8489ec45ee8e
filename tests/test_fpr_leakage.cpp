// Leakage hook behaviour: event ordering, values, nesting, the arming
// rule for trigger-scoped sinks, and the guarantee that hypothesis
// models (mul_mantissa_steps) see exactly what the instrumented fpr_mul
// emits.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fpr/fpr.h"

namespace fd::fpr {
namespace {

class Recorder final : public LeakageSink {
 public:
  void on_event(const LeakageEvent& ev) override { events.push_back(ev); }
  std::vector<LeakageEvent> events;

  [[nodiscard]] const LeakageEvent* find(LeakageTag tag) const {
    for (const auto& e : events) {
      if (e.tag == tag) return &e;
    }
    return nullptr;
  }
};

// A trigger-scoped sink whose arming the test drives by hand.
class ScopedRecorder final : public LeakageSink {
 public:
  ScopedRecorder() : LeakageSink(/*trigger_scoped=*/true) {}
  void on_event(const LeakageEvent& ev) override { events.push_back(ev); }
  using LeakageSink::arm;
  using LeakageSink::disarm;
  std::vector<LeakageEvent> events;
};

void one_mul() { (void)fpr_mul(Fpr::from_double(1.5), Fpr::from_double(2.5)); }

TEST(FprLeakage, NoSinkNoEvents) {
  ASSERT_EQ(leakage_sink(), nullptr);
  (void)fpr_mul(Fpr::from_double(1.5), Fpr::from_double(2.5));  // must not crash
}

TEST(FprLeakage, ScopedSinkRestores) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    EXPECT_EQ(leakage_sink(), &r);
    {
      ScopedLeakageSink inner(nullptr);
      EXPECT_EQ(leakage_sink(), nullptr);
    }
    EXPECT_EQ(leakage_sink(), &r);
  }
  EXPECT_EQ(leakage_sink(), nullptr);
}

TEST(FprLeakage, WholeRunSinkIsArmedWhileInstalled) {
  Recorder r;
  EXPECT_FALSE(r.trigger_scoped());
  {
    ScopedLeakageSink scope(&r);
    EXPECT_EQ(armed_leakage_sink(), &r);
    leak_trigger(LeakageTag::kTriggerBegin, 3);
    one_mul();
    leak_trigger(LeakageTag::kTriggerEnd, 3);
  }
  EXPECT_EQ(armed_leakage_sink(), nullptr);
  // Every event, in emission order: trigger, the 17 fpr_mul events, trigger.
  ASSERT_EQ(r.events.size(), 19U);
  EXPECT_EQ(r.events.front().tag, LeakageTag::kTriggerBegin);
  EXPECT_EQ(r.events[1].tag, LeakageTag::kMulSign);
  EXPECT_EQ(r.events[17].tag, LeakageTag::kMulResult);
  EXPECT_EQ(r.events.back().tag, LeakageTag::kTriggerEnd);
}

TEST(FprLeakage, TriggerScopedSinkGetsTriggersButDataOnlyWhenArmed) {
  ScopedRecorder r;
  ScopedLeakageSink scope(&r);
  EXPECT_EQ(leakage_sink(), &r);
  EXPECT_EQ(armed_leakage_sink(), nullptr);
  leak_trigger(LeakageTag::kTriggerBegin, 0);
  one_mul();
  ASSERT_EQ(r.events.size(), 1U);  // the trigger only
  r.arm();
  EXPECT_EQ(armed_leakage_sink(), &r);
  one_mul();
  EXPECT_EQ(r.events.size(), 18U);
  r.disarm();
  one_mul();
  leak_trigger(LeakageTag::kTriggerEnd, 0);
  ASSERT_EQ(r.events.size(), 19U);
  EXPECT_EQ(r.events.back().tag, LeakageTag::kTriggerEnd);
}

TEST(FprLeakage, ArmingAnUninstalledSinkIsANoOp) {
  ScopedRecorder installed;
  ScopedRecorder stranger;
  ScopedLeakageSink scope(&installed);
  stranger.arm();
  EXPECT_EQ(armed_leakage_sink(), nullptr);
  one_mul();
  EXPECT_TRUE(installed.events.empty());
  EXPECT_TRUE(stranger.events.empty());
}

TEST(FprLeakage, ArmingUnderAWholeRunSinkIsANoOp) {
  Recorder whole;
  ScopedRecorder stranger;
  ScopedLeakageSink scope(&whole);
  stranger.arm();
  stranger.disarm();
  EXPECT_EQ(armed_leakage_sink(), &whole);
  one_mul();
  EXPECT_EQ(whole.events.size(), 17U);
  EXPECT_TRUE(stranger.events.empty());
}

TEST(FprLeakage, NestedScopesRestoreInstalledAndArmedState) {
  ScopedRecorder outer;
  Recorder whole;
  ScopedRecorder inner;
  {
    ScopedLeakageSink s1(&outer);
    outer.arm();
    {
      ScopedLeakageSink s2(&whole);
      EXPECT_EQ(leakage_sink(), &whole);
      EXPECT_EQ(armed_leakage_sink(), &whole);
      {
        ScopedLeakageSink s3(nullptr);
        EXPECT_EQ(leakage_sink(), nullptr);
        EXPECT_EQ(armed_leakage_sink(), nullptr);
      }
      EXPECT_EQ(leakage_sink(), &whole);
      EXPECT_EQ(armed_leakage_sink(), &whole);
      {
        ScopedLeakageSink s4(&inner);
        EXPECT_EQ(leakage_sink(), &inner);
        EXPECT_EQ(armed_leakage_sink(), nullptr);  // starts disarmed
        inner.arm();
        EXPECT_EQ(armed_leakage_sink(), &inner);
      }
      EXPECT_EQ(armed_leakage_sink(), &whole);
    }
    // The outer sink comes back armed, as it was left.
    EXPECT_EQ(leakage_sink(), &outer);
    EXPECT_EQ(armed_leakage_sink(), &outer);
    outer.disarm();
    {
      ScopedLeakageSink s5(&whole);
    }
    // ... and disarmed, as it was left the second time.
    EXPECT_EQ(leakage_sink(), &outer);
    EXPECT_EQ(armed_leakage_sink(), nullptr);
  }
  EXPECT_EQ(leakage_sink(), nullptr);
  EXPECT_EQ(armed_leakage_sink(), nullptr);
}

TEST(FprLeakage, NoEventReachesAnArmedSinkAfterItsScope) {
  ScopedRecorder r;
  {
    ScopedLeakageSink scope(&r);
    r.arm();
    one_mul();
  }
  const std::size_t seen = r.events.size();
  EXPECT_EQ(seen, 17U);
  EXPECT_EQ(armed_leakage_sink(), nullptr);
  one_mul();
  leak_trigger(LeakageTag::kTriggerBegin, 0);
  r.arm();  // not installed any more: a no-op
  one_mul();
  EXPECT_EQ(r.events.size(), seen);
}

TEST(FprLeakage, MulEmitsPipelineInOrder) {
  Recorder r;
  const Fpr x = Fpr::from_bits(0xC06017BC8036B580ULL);  // the paper's example
  const Fpr y = Fpr::from_double(1.75);
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_mul(x, y);
  }
  // Expected order: sign, exponents, operand splits, products/accs, result.
  const std::vector<LeakageTag> expect = {
      LeakageTag::kMulSign,      LeakageTag::kMulExpX,      LeakageTag::kMulExpY,
      LeakageTag::kMulExpSum,    LeakageTag::kMulOperandXLo, LeakageTag::kMulOperandXHi,
      LeakageTag::kMulOperandYLo, LeakageTag::kMulOperandYHi, LeakageTag::kMulProdLL,
      LeakageTag::kMulProdLH,    LeakageTag::kMulAccZ1a,    LeakageTag::kMulProdHL,
      LeakageTag::kMulAccZ1b,    LeakageTag::kMulAccZ2,     LeakageTag::kMulProdHH,
      LeakageTag::kMulAccZu,     LeakageTag::kMulResult};
  ASSERT_EQ(r.events.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r.events[i].tag, expect[i]) << "at " << i;
  }
}

TEST(FprLeakage, MulEventValuesMatchStepsFunction) {
  ChaCha20Prng rng(0x3001);
  for (int i = 0; i < 500; ++i) {
    const double a = (static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 - 0.5) * 256.0;
    const double b = (static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53 - 0.5) * 256.0;
    if (a == 0.0 || b == 0.0) continue;
    const Fpr x = Fpr::from_double(a);
    const Fpr y = Fpr::from_double(b);

    Recorder r;
    {
      ScopedLeakageSink scope(&r);
      (void)fpr_mul(x, y);
    }
    const MulMantissaSteps st = mul_mantissa_steps(x.significand(), y.significand());
    ASSERT_NE(r.find(LeakageTag::kMulProdLL), nullptr);
    EXPECT_EQ(r.find(LeakageTag::kMulProdLL)->value, st.prod_ll);
    EXPECT_EQ(r.find(LeakageTag::kMulProdLH)->value, st.prod_lh);
    EXPECT_EQ(r.find(LeakageTag::kMulProdHL)->value, st.prod_hl);
    EXPECT_EQ(r.find(LeakageTag::kMulProdHH)->value, st.prod_hh);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZ1a)->value, st.z1a);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZ1b)->value, st.z1b);
    EXPECT_EQ(r.find(LeakageTag::kMulAccZu)->value, st.zu);
    EXPECT_EQ(r.find(LeakageTag::kMulOperandXLo)->value, st.x0);
    EXPECT_EQ(r.find(LeakageTag::kMulOperandXHi)->value, st.x1);
    EXPECT_EQ(r.find(LeakageTag::kMulSign)->value,
              static_cast<std::uint64_t>(x.sign() != y.sign()));
    EXPECT_EQ(r.find(LeakageTag::kMulExpSum)->value,
              static_cast<std::uint32_t>(static_cast<std::int32_t>(x.biased_exponent() +
                                                                   y.biased_exponent()) -
                                         2100));
  }
}

TEST(FprLeakage, AddEmitsEvents) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_add(Fpr::from_double(1.0), Fpr::from_double(1e-3));
  }
  ASSERT_NE(r.find(LeakageTag::kAddAlignShift), nullptr);
  ASSERT_NE(r.find(LeakageTag::kAddMantSum), nullptr);
  ASSERT_NE(r.find(LeakageTag::kAddResult), nullptr);
  EXPECT_EQ(r.find(LeakageTag::kAddAlignShift)->value, 10U);  // 2^-10 apart
}

TEST(FprLeakage, ZeroMulShortCircuitsAfterSign) {
  Recorder r;
  {
    ScopedLeakageSink scope(&r);
    (void)fpr_mul(Fpr::from_double(-2.0), kZero);
  }
  ASSERT_EQ(r.events.size(), 1U);
  EXPECT_EQ(r.events[0].tag, LeakageTag::kMulSign);
  EXPECT_EQ(r.events[0].value, 1U);
}

TEST(FprLeakage, TagNamesAreUnique) {
  for (unsigned i = 0; i < static_cast<unsigned>(LeakageTag::kNumTags); ++i) {
    for (unsigned j = i + 1; j < static_cast<unsigned>(LeakageTag::kNumTags); ++j) {
      EXPECT_STRNE(leakage_tag_name(static_cast<LeakageTag>(i)),
                   leakage_tag_name(static_cast<LeakageTag>(j)));
    }
  }
}

}  // namespace
}  // namespace fd::fpr
