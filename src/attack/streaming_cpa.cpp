#include "attack/streaming_cpa.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "sca/device.h"

namespace fd::attack {

namespace {

namespace ww = sca::window;

// Folds one captured window into the accumulator: one add_trace per
// view, with hypotheses recomputed from that view's known operand. The
// streamed and in-memory paths share this fold so their floating-point
// operation order is identical by construction.
class CpaFold {
 public:
  explicit CpaFold(const StreamingCpaSpec& spec)
      : spec_(spec),
        engine_(spec.guesses.size(), spec.sample_offsets.size(), spec.kernel),
        hyps_(spec.guesses.size()),
        samps_(spec.sample_offsets.size()) {
    assert(!spec.guesses.empty() && !spec.sample_offsets.empty() && spec.model);
  }

  void add_window(fpr::Fpr known_re, fpr::Fpr known_im, std::span<const float> samples) {
    bool contributed = false;
    for (unsigned v = 0; v < 2; ++v) {
      const std::size_t block = ww::mul_block_for(spec_.imag_part, v);
      const std::size_t base = ww::mul_base(static_cast<unsigned>(block));
      if (base + ww::kEventsPerMul > samples.size()) continue;  // foreign layout
      const fpr::Fpr known = (block == 0 || block == 3) ? known_re : known_im;
      const KnownOperand k = KnownOperand::from(known);
      for (std::size_t g = 0; g < spec_.guesses.size(); ++g) {
        hyps_[g] = spec_.model(spec_.guesses[g], k);
      }
      for (std::size_t c = 0; c < spec_.sample_offsets.size(); ++c) {
        samps_[c] = samples[base + spec_.sample_offsets[c]];
      }
      engine_.add_trace(hyps_, samps_);
      contributed = true;
    }
    // A window whose layout had no room for either view folded nothing:
    // it must not advance attack.cpa.windows or the snapshot cadence.
    if (!contributed) return;
    ++windows_;
    if (spec_.snapshot_every != 0 && windows_ % spec_.snapshot_every == 0) {
      snapshot();
      snapshot_emitted_ = true;
    } else if (spec_.snapshot_every != 0) {
      snapshot_emitted_ = false;
    }
  }

  [[nodiscard]] CpaEngine take() {
    // Final snapshot so the end state is always on record, even when
    // the trace count is not a multiple of the cadence.
    if (spec_.snapshot_every != 0 && !snapshot_emitted_ && windows_ > 0) snapshot();
    obs::MetricsRegistry::global().counter("attack.cpa.windows").add(windows_);
    return std::move(engine_);
  }

 private:
  // Reads the accumulator (never mutates it) and emits one
  // "cpa.snapshot" event: the guess-rank state after `windows_` traces.
  void snapshot() const {
    if (obs::sink() == nullptr) return;
    const std::vector<std::size_t> order = engine_.ranking();
    const double top1_r = engine_.peak(order[0]);
    const double top2_r = order.size() > 1 ? engine_.peak(order[1]) : top1_r;
    std::int64_t truth_rank = -1;
    double truth_r = 0.0;
    if (spec_.truth_guess >= 0) {
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (spec_.guesses[order[pos]] == static_cast<std::uint32_t>(spec_.truth_guess)) {
          truth_rank = static_cast<std::int64_t>(pos);
          truth_r = engine_.peak(order[pos]);
          break;
        }
      }
    }
    obs::event("cpa.snapshot")
        .with("label", spec_.label)
        .with("traces", windows_)
        .with("guesses", spec_.guesses.size())
        .with("top1_guess", spec_.guesses[order[0]])
        .with("top1_r", top1_r)
        .with("top2_r", top2_r)
        .with("margin", top1_r - top2_r)
        .with("truth_rank", truth_rank)
        .with("truth_r", truth_r)
        .emit();
  }

  const StreamingCpaSpec& spec_;
  CpaEngine engine_;
  std::vector<double> hyps_;
  std::vector<float> samps_;
  std::size_t windows_ = 0;
  bool snapshot_emitted_ = false;
};

void count_archive_scan() {
  obs::MetricsRegistry::global().counter("attack.archive.scans").add(1);
}

}  // namespace

CpaEngine run_cpa_streaming(tracestore::ArchiveReader& reader,
                            const StreamingCpaSpec& spec) {
  CpaFold fold(spec);
  reader.rewind();
  count_archive_scan();
  tracestore::TraceRecord rec;
  std::size_t used = 0;
  while ((spec.max_traces == 0 || used < spec.max_traces) && reader.next(rec)) {
    if (rec.slot != spec.slot) continue;
    fold.add_window(fpr::Fpr::from_bits(rec.known_re_bits),
                    fpr::Fpr::from_bits(rec.known_im_bits), rec.samples);
    ++used;
  }
  return fold.take();
}

CpaEngine run_cpa_inmemory(const sca::TraceSet& set, const StreamingCpaSpec& spec) {
  CpaFold fold(spec);
  const std::size_t limit = spec.max_traces == 0
                                ? set.traces.size()
                                : std::min(spec.max_traces, set.traces.size());
  for (std::size_t t = 0; t < limit; ++t) {
    const auto& ct = set.traces[t];
    fold.add_window(ct.known_re, ct.known_im, ct.trace.samples);
  }
  return fold.take();
}

}  // namespace fd::attack
