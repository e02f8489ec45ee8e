// Event-stream parser: segmentation of raw captures into op records,
// including the data-dependent short forms (zero-operand multiplies,
// cancelled adds).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "falcon/falcon.h"
#include "fft/fft.h"
#include "sca/capture.h"
#include "sca/op_parser.h"

namespace fd::sca {
namespace {

using fpr::Fpr;

std::vector<fpr::LeakageEvent> capture(auto&& fn) {
  FullRecorder rec;
  {
    fpr::ScopedLeakageSink scope(&rec);
    fn();
  }
  return rec.events();
}

TEST(OpParser, SingleMul) {
  const auto ev = capture([] { (void)fpr::fpr_mul(Fpr::from_double(1.5), Fpr::from_double(2.5)); });
  const auto ops = parse_op_records(ev);
  ASSERT_EQ(ops.size(), 1U);
  EXPECT_EQ(ops[0].kind, OpRecord::Kind::kMul);
  EXPECT_EQ(ops[0].num_events, 17U);
}

TEST(OpParser, ZeroOperandMul) {
  const auto ev = capture([] { (void)fpr::fpr_mul(fpr::kZero, Fpr::from_double(2.5)); });
  const auto ops = parse_op_records(ev);
  ASSERT_EQ(ops.size(), 1U);
  EXPECT_EQ(ops[0].kind, OpRecord::Kind::kMulZero);
  EXPECT_EQ(ops[0].num_events, 1U);
}

TEST(OpParser, AddAndCancelledAdd) {
  const auto ev = capture([] {
    (void)fpr::fpr_add(Fpr::from_double(1.0), Fpr::from_double(2.0));   // 3 events
    (void)fpr::fpr_add(Fpr::from_double(1.0), Fpr::from_double(-1.0));  // cancels: 2
  });
  const auto ops = parse_op_records(ev);
  ASSERT_EQ(ops.size(), 2U);
  EXPECT_EQ(ops[0].kind, OpRecord::Kind::kAdd);
  EXPECT_EQ(ops[0].num_events, 3U);
  EXPECT_EQ(ops[1].kind, OpRecord::Kind::kAdd);
  EXPECT_EQ(ops[1].num_events, 2U);
}

TEST(OpParser, MixedSequenceWithTriggers) {
  const auto ev = capture([] {
    fpr::leak_trigger(fpr::LeakageTag::kTriggerBegin, 7);
    (void)fpr::fpr_mul(Fpr::from_double(3.0), Fpr::from_double(4.0));
    (void)fpr::fpr_add(Fpr::from_double(3.0), Fpr::from_double(4.0));
    fpr::leak_trigger(fpr::LeakageTag::kTriggerEnd, 7);
  });
  const auto ops = parse_op_records(ev);
  ASSERT_EQ(ops.size(), 4U);
  EXPECT_EQ(ops[0].kind, OpRecord::Kind::kTrigger);
  EXPECT_EQ(ops[1].kind, OpRecord::Kind::kMul);
  EXPECT_EQ(ops[2].kind, OpRecord::Kind::kAdd);
  EXPECT_EQ(ops[3].kind, OpRecord::Kind::kTrigger);
}

TEST(OpParser, FftRecordCountIsControlFlowDetermined) {
  // Regardless of zero coefficients, an n-point FFT segments into
  // exactly (logn-1) * n/4 butterflies of 10 records each -- the
  // alignment invariant the single-trace key-load attack relies on.
  for (const unsigned logn : {3U, 5U, 6U}) {
    const std::size_t n = std::size_t{1} << logn;
    ChaCha20Prng rng(0x09A + logn);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<Fpr> f(n);
      for (auto& c : f) {
        // Mix zeros in deliberately.
        const auto v = static_cast<std::int64_t>(rng.uniform(7)) - 3;
        c = fpr::fpr_of(v);
      }
      const auto ev = capture([&] { fft::fft(f, logn); });
      const auto ops = parse_op_records(ev);
      EXPECT_EQ(ops.size(), (logn - 1) * (n / 4) * 10) << "logn=" << logn;
    }
  }
}

TEST(OpParser, EmptyStream) {
  EXPECT_TRUE(parse_op_records({}).empty());
}

}  // namespace
}  // namespace fd::sca
