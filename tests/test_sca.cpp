// Capture rig and device model: trigger windowing, event schedules,
// leakage-to-trace synthesis, countermeasure knobs, campaign structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "common/shake256.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "falcon/masked_sign.h"
#include "sca/campaign.h"
#include "sca/capture.h"
#include "sca/device.h"
#include "sca/faults.h"

namespace fd::sca {
namespace {

using fpr::Fpr;
using fpr::LeakageEvent;
using fpr::LeakageTag;

std::vector<LeakageEvent> synthetic_window(std::uint64_t base_value, std::size_t count) {
  std::vector<LeakageEvent> ev(count);
  for (std::size_t i = 0; i < count; ++i) {
    ev[i] = {LeakageTag::kMulProdLL, base_value + i};
  }
  return ev;
}

TEST(EventWindowRecorder, CapturesOnlyTargetWindow) {
  EventWindowRecorder rec(/*slot=*/1);
  rec.on_event({LeakageTag::kTriggerBegin, 0});
  rec.on_event({LeakageTag::kMulProdLL, 111});
  rec.on_event({LeakageTag::kTriggerEnd, 0});
  rec.on_event({LeakageTag::kTriggerBegin, 1});
  rec.on_event({LeakageTag::kMulProdLL, 222});
  rec.on_event({LeakageTag::kTriggerEnd, 1});
  ASSERT_TRUE(rec.complete());
  ASSERT_EQ(rec.events().size(), 1U);
  EXPECT_EQ(rec.events()[0].value, 222U);
}

TEST(EventWindowRecorder, OccurrenceSelection) {
  EventWindowRecorder rec(/*slot=*/0, /*occurrence=*/1);
  for (int occ = 0; occ < 3; ++occ) {
    rec.on_event({LeakageTag::kTriggerBegin, 0});
    rec.on_event({LeakageTag::kMulProdLL, static_cast<std::uint64_t>(100 + occ)});
    rec.on_event({LeakageTag::kTriggerEnd, 0});
  }
  ASSERT_TRUE(rec.complete());
  // occurrence 1 captured; occurrence 2 must not overwrite it.
  ASSERT_EQ(rec.events().size(), 1U);
  EXPECT_EQ(rec.events()[0].value, 101U);
}

TEST(EmDeviceModel, NoiselessAmplitudeIsHammingWeight) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.alpha = 2.0;
  EmDeviceModel dev(cfg);
  const auto tr = dev.synthesize(synthetic_window(0b1011, 1));  // HW 3
  ASSERT_EQ(tr.samples.size(), 1U);
  EXPECT_FLOAT_EQ(tr.samples[0], 6.0F);
}

TEST(EmDeviceModel, NoiseHasConfiguredSpread) {
  DeviceConfig cfg;
  cfg.noise_sigma = 5.0;
  EmDeviceModel dev(cfg, /*noise_seed=*/7);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const auto tr = dev.synthesize(synthetic_window(0xFF, 1));  // HW 8
    sum += tr.samples[0];
    sum2 += static_cast<double>(tr.samples[0]) * tr.samples[0];
  }
  const double mean = sum / kDraws;
  const double sd = std::sqrt(sum2 / kDraws - mean * mean);
  EXPECT_NEAR(mean, 8.0, 0.2);
  EXPECT_NEAR(sd, 5.0, 0.2);
}

TEST(EmDeviceModel, ConstantWeightHidesData) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.constant_weight = true;
  EmDeviceModel dev(cfg);
  const auto t1 = dev.synthesize(synthetic_window(0x0, 1));
  const auto t2 = dev.synthesize(synthetic_window(0xFFFFFFFFFFFFFFFFULL, 1));
  EXPECT_FLOAT_EQ(t1.samples[0], t2.samples[0]);
}

TEST(EmDeviceModel, JitterShiftsWindow) {
  DeviceConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.jitter_max = 4;
  EmDeviceModel dev(cfg, 9);
  bool saw_shift = false;
  for (int i = 0; i < 50 && !saw_shift; ++i) {
    const auto tr = dev.synthesize(synthetic_window(0xFF, 1));
    ASSERT_EQ(tr.samples.size(), 5U);  // 1 event + jitter margin
    saw_shift = tr.samples[0] == 0.0F && tr.samples[1] + tr.samples[2] + tr.samples[3] +
                                                 tr.samples[4] >
                                             0.0F;
  }
  EXPECT_TRUE(saw_shift);
}

TEST(Campaign, WindowHasExpectedSchedule) {
  ChaCha20Prng rng(0xA001);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 3;
  cfg.device.noise_sigma = 0.0;
  const TraceSet set = run_signing_campaign(kp.sk, /*slot=*/2, cfg);
  ASSERT_EQ(set.traces.size(), 3U);
  for (const auto& ct : set.traces) {
    // 4 muls x 17 events + 2 adds x 3 events.
    EXPECT_EQ(ct.trace.samples.size(), window::kEventsPerWindow);
    // The known FFT(c) slot is a real nonzero floating-point value.
    EXPECT_NE(ct.known_re.to_double(), 0.0);
    EXPECT_NE(ct.known_im.to_double(), 0.0);
  }
}

TEST(Campaign, NoiselessTraceMatchesPredictedLeakage) {
  // With zero noise, the sample at the ProdLL offset of mul block 0 must
  // equal HW(x0 * y0) where x is the secret FFT(-f)[slot] and y the
  // adversary-recomputed FFT(c)[slot].
  ChaCha20Prng rng(0xA002);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 5;
  cfg.device.noise_sigma = 0.0;
  const std::size_t slot = 1;
  const TraceSet set = run_signing_campaign(kp.sk, slot, cfg);

  const Fpr secret_re = kp.sk.b01[slot];
  for (const auto& ct : set.traces) {
    const auto st = fpr::mul_mantissa_steps(secret_re.significand(), ct.known_re.significand());
    const float expect = static_cast<float>(std::popcount(st.prod_ll));
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffProdLL], expect);
    const float expect_zu = static_cast<float>(std::popcount(st.zu));
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffAccZu], expect_zu);
    // Sign event: HW(sx ^ sy).
    const float expect_sign =
        static_cast<float>(secret_re.sign() != ct.known_re.sign());
    EXPECT_FLOAT_EQ(ct.trace.samples[window::kOffSign], expect_sign);
  }
}

TEST(Campaign, KnownInputsVaryAcrossTraces) {
  ChaCha20Prng rng(0xA003);
  const auto kp = falcon::keygen(4, rng);
  CampaignConfig cfg;
  cfg.num_traces = 8;
  const TraceSet set = run_signing_campaign(kp.sk, 0, cfg);
  int distinct = 0;
  for (std::size_t i = 1; i < set.traces.size(); ++i) {
    distinct += set.traces[i].known_re.bits() != set.traces[0].known_re.bits();
  }
  EXPECT_GE(distinct, 6);
}

TEST(Campaign, FullCampaignCoversAllSlots) {
  ChaCha20Prng rng(0xA004);
  const auto kp = falcon::keygen(3, rng);
  CampaignConfig cfg;
  cfg.num_traces = 2;
  const auto sets = run_full_campaign(kp.sk, cfg);
  ASSERT_EQ(sets.size(), 4U);  // n/2 = 4 complex slots
  for (std::size_t s = 0; s < sets.size(); ++s) {
    EXPECT_EQ(sets[s].slot, s);
    ASSERT_EQ(sets[s].traces.size(), 2U);
    EXPECT_EQ(sets[s].traces[0].trace.samples.size(), window::kEventsPerWindow);
  }
}

// --- trigger-armed recorder vs the whole-run stream ------------------------

// Cuts the windows LastWindowRecorder keeps out of a complete event
// stream: per slot, the last occurrence of the row's parity.
std::vector<std::vector<LeakageEvent>> cut_windows(const std::vector<LeakageEvent>& stream,
                                                   std::size_t hn, unsigned row) {
  std::vector<std::vector<LeakageEvent>> out(hn);
  std::vector<unsigned> occurrence(hn, 0);
  std::vector<LeakageEvent>* current = nullptr;
  for (const LeakageEvent& ev : stream) {
    if (ev.tag == LeakageTag::kTriggerBegin) {
      current = nullptr;
      if (ev.value < hn && occurrence[ev.value]++ % 2 == row) {
        current = &out[ev.value];
        current->clear();
      }
    } else if (ev.tag == LeakageTag::kTriggerEnd) {
      current = nullptr;
    } else if (current != nullptr) {
      current->push_back(ev);
    }
  }
  return out;
}

std::size_t count_triggers(const std::vector<LeakageEvent>& stream) {
  std::size_t n = 0;
  for (const LeakageEvent& ev : stream) n += ev.tag == LeakageTag::kTriggerBegin;
  return n;
}

// The armed recorder sees only its windows' events, yet keeps exactly
// the windows a whole-run recording would cut at the same triggers --
// for both basis rows, the plain and the masked signer, and signing runs
// with internal salt retries (where an earlier attempt's window must be
// replaced by the final one's).
TEST(LastWindowRecorder, MatchesWindowsCutFromTheFullStream) {
  ChaCha20Prng keyrng(0xA005);
  const auto kp = falcon::keygen(4, keyrng);
  const std::size_t hn = kp.sk.params.n >> 1;
  const SignerFn signers[2] = {&falcon::sign, &falcon::sign_masked};
  std::size_t retried_runs = 0;
  for (const unsigned row : {0U, 1U}) {
    for (std::size_t which = 0; which < 2; ++which) {
      ChaCha20Prng rng_full(0x5A17 + which);
      ChaCha20Prng rng_armed(0x5A17 + which);
      LastWindowRecorder armed(hn, row);
      for (std::size_t d = 0; d < 48; ++d) {
        const std::string message = "eq-" + std::to_string(d);
        FullRecorder full;
        falcon::Signature sig_full;
        {
          fpr::ScopedLeakageSink scope(&full);
          sig_full = signers[which](kp.sk, message, rng_full);
        }
        armed.start_run();
        falcon::Signature sig_armed;
        {
          fpr::ScopedLeakageSink scope(&armed);
          sig_armed = signers[which](kp.sk, message, rng_armed);
        }
        ASSERT_TRUE(std::equal(std::begin(sig_full.salt), std::end(sig_full.salt),
                               std::begin(sig_armed.salt)));
        const std::size_t attempts = count_triggers(full.events()) / (2 * hn);
        ASSERT_EQ(armed.run_attempts(), attempts);
        retried_runs += attempts > 1;
        const auto want = cut_windows(full.events(), hn, row);
        for (std::size_t s = 0; s < hn; ++s) {
          const auto& got = armed.window(s);
          ASSERT_FALSE(got.empty()) << "slot " << s;
          ASSERT_EQ(got.size(), want[s].size()) << "slot " << s;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].tag, want[s][i].tag) << "slot " << s << " event " << i;
            ASSERT_EQ(got[i].value, want[s][i].value) << "slot " << s << " event " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(retried_runs, 0U) << "no signing run retried its salt; pick more messages";
}

// --- capture bytes pinned --------------------------------------------------
//
// The digests below were recorded from the byte-wise reference capture
// path (every leakage event dispatched, one-shard captures re-encoded by
// merge_archives). Any optimisation of capture must reproduce these
// archives bit for bit: same records, same chunking, same header flags.

struct TempArchive {
  explicit TempArchive(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempArchive() { std::remove(path.c_str()); }
  std::string path;
};

// First 64 bits of SHAKE256 over the file's bytes.
std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  Shake256 sh;
  sh.inject(bytes);
  sh.flip();
  return sh.extract_u64();
}

constexpr const char* kPinFaultPlan = "drop=0.1,desync=0.05,sat=0.02,glitch=0.01,chunk=0.02";

ShardedCampaignConfig pin_config(std::size_t shards, bool faulted, unsigned row = 0) {
  ShardedCampaignConfig cfg;
  cfg.base.num_traces = 40;
  cfg.base.device.noise_sigma = 2.0;
  cfg.base.device.jitter_max = 2;
  cfg.base.seed = 0x9A11;
  cfg.base.row = row;
  if (faulted) {
    std::string err;
    EXPECT_TRUE(parse_fault_plan(kPinFaultPlan, cfg.base.faults, &err)) << err;
  }
  cfg.num_shards = shards;
  return cfg;
}

falcon::KeyPair pin_key() {
  ChaCha20Prng rng(0xB17E);
  return falcon::keygen(4, rng);
}

struct CapturePin {
  std::size_t shards;
  bool faulted;
  unsigned row;
  std::uint64_t digest;
};

constexpr CapturePin kCapturePins[] = {
    {1, false, 0, 0x94c80a7f70b965b1ULL},
    {3, false, 0, 0x78908dddfa1fb0e1ULL},
    {1, true, 0, 0xa6a61f54f33ca31bULL},
    {3, true, 0, 0xcfac5aa86a460058ULL},
    {1, false, 1, 0xf0e69d3f16593187ULL},
};

TEST(CapturePins, ArchiveBytesMatchReferenceAtAnyWorkerCount) {
  const auto kp = pin_key();
  for (const CapturePin& pin : kCapturePins) {
    const auto cfg = pin_config(pin.shards, pin.faulted, pin.row);
    for (const std::size_t workers : {0UL, 2UL, 7UL}) {
      std::unique_ptr<exec::ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<exec::ThreadPool>(workers);
      TempArchive out("pin_archive.fdtrace");
      const auto res = run_campaign_sharded(kp.sk, cfg, out.path, pool.get());
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_EQ(file_digest(out.path), pin.digest)
          << std::hex << "0x" << file_digest(out.path) << std::dec << " at shards "
          << pin.shards << ", faulted " << pin.faulted << ", row " << pin.row << ", workers "
          << workers;
    }
  }
}

// keep_shards leaves the untouched shard files next to an archive that
// is still the pinned one.
TEST(CapturePins, KeptShardsMatchReference) {
  const auto kp = pin_key();
  constexpr std::uint64_t kShard0Digest[] = {0x27a97b972ff0d7fbULL, 0x19de7730c534b952ULL};  // 1 shard, 3 shards
  for (const std::size_t i : {0UL, 1UL}) {
    auto cfg = pin_config(i == 0 ? 1 : 3, /*faulted=*/false);
    cfg.keep_shards = true;
    TempArchive out("pin_kept.fdtrace");
    const auto res = run_campaign_sharded(kp.sk, cfg, out.path, nullptr);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.shard_paths.size(), cfg.num_shards);
    EXPECT_EQ(file_digest(out.path), kCapturePins[i].digest);
    EXPECT_EQ(file_digest(res.shard_paths[0]), kShard0Digest[i])
        << std::hex << "0x" << file_digest(res.shard_paths[0]);
    for (const auto& p : res.shard_paths) std::remove(p.c_str());
  }
}

// --- in-memory capture pinned ----------------------------------------------
//
// The in-memory campaigns share the archive path's capture loop; these
// digests pin their TraceSets the same way the archive pins pin files.

void inject_u64(Shake256& sh, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  sh.inject(b);
}

// First 64 bits of SHAKE256 over every trace's sample bits and its
// known-operand bits, set by set, in capture order.
std::uint64_t trace_sets_digest(const std::vector<TraceSet>& sets) {
  Shake256 sh;
  for (const TraceSet& set : sets) {
    inject_u64(sh, set.slot);
    inject_u64(sh, set.traces.size());
    for (const CapturedTrace& ct : set.traces) {
      for (const float v : ct.trace.samples) inject_u64(sh, std::bit_cast<std::uint32_t>(v));
      inject_u64(sh, ct.known_re.bits());
      inject_u64(sh, ct.known_im.bits());
    }
  }
  sh.flip();
  return sh.extract_u64();
}

struct InMemoryPin {
  bool faulted;
  unsigned row;
  std::uint64_t digest;
};

constexpr InMemoryPin kInMemoryPins[] = {
    {false, 0, 0xeed7aeb0a9c7e829ULL},
    {true, 0, 0x9d3c4f3bd8a3c80dULL},
    {false, 1, 0x6bdcdaf579032fc4ULL},
    {true, 1, 0xf5a9c0ed0b12f253ULL},
};

TEST(CapturePins, InMemoryFullCampaignMatchesReference) {
  const auto kp = pin_key();
  for (const InMemoryPin& pin : kInMemoryPins) {
    const auto cfg = pin_config(1, pin.faulted, pin.row).base;
    const std::uint64_t got = trace_sets_digest(run_full_campaign(kp.sk, cfg));
    EXPECT_EQ(got, pin.digest) << std::hex << "0x" << got << std::dec << " faulted "
                               << pin.faulted << ", row " << pin.row;
  }
}

TEST(CapturePins, InMemoryMaskedSignerMatchesReference) {
  const auto kp = pin_key();
  auto cfg = pin_config(1, /*faulted=*/false).base;
  cfg.signer = &falcon::sign_masked;
  const std::uint64_t got = trace_sets_digest(run_full_campaign(kp.sk, cfg));
  EXPECT_EQ(got, 0x7f7c940c5ecab475ULL) << std::hex << "0x" << got;
}

TEST(CapturePins, InMemoryOneSlotCampaignMatchesReference) {
  const auto kp = pin_key();
  const auto cfg = pin_config(1, /*faulted=*/false).base;
  const std::uint64_t got = trace_sets_digest({run_signing_campaign(kp.sk, 2, cfg)});
  EXPECT_EQ(got, 0x6880af904fe53b23ULL) << std::hex << "0x" << got;
}

// A one-slot campaign runs the same fault plan as the full campaign: a
// dropped query is missing from both, so the slot keeps exactly the
// full campaign's queries and known operands. (Its samples differ: the
// device synthesizes only the requested slot's window per query.)
TEST(Campaign, OneSlotCampaignDropsTheFullCampaignsQueries) {
  const auto kp = pin_key();
  auto cfg = pin_config(1, /*faulted=*/false).base;
  std::string err;
  ASSERT_TRUE(parse_fault_plan("drop=0.3", cfg.faults, &err)) << err;
  const std::size_t slot = 2;
  const TraceSet one = run_signing_campaign(kp.sk, slot, cfg);
  const auto full = run_full_campaign(kp.sk, cfg);
  const TraceSet& want = full[slot];
  EXPECT_EQ(one.slot, slot);
  ASSERT_LT(want.traces.size(), cfg.num_traces) << "no query dropped; raise the drop rate";
  ASSERT_EQ(one.traces.size(), want.traces.size());
  for (std::size_t t = 0; t < want.traces.size(); ++t) {
    EXPECT_EQ(one.traces[t].known_re.bits(), want.traces[t].known_re.bits()) << "trace " << t;
    EXPECT_EQ(one.traces[t].known_im.bits(), want.traces[t].known_im.bits()) << "trace " << t;
  }
}

}  // namespace
}  // namespace fd::sca
