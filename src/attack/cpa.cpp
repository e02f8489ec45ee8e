#include "attack/cpa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "sca/device.h"

namespace fd::attack {

double confidence_z(double confidence) {
  // Inverse normal CDF at (1 + confidence) / 2 via bisection on erf --
  // evaluated rarely, so simplicity beats speed.
  assert(confidence > 0.0 && confidence < 1.0);
  const double target = (1.0 + confidence) / 2.0;
  double lo = 0.0;
  double hi = 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 0.5 * (1.0 + std::erf(mid / std::sqrt(2.0)));
    if (cdf < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

CpaEngine::CpaEngine(std::size_t num_guesses, std::size_t num_samples,
                     std::size_t batch_traces)
    : g_(num_guesses),
      s_(num_samples),
      batch_(batch_traces == 0 ? 1 : batch_traces),
      ref_h_(g_),
      ref_t_(s_),
      hbuf_(g_ * batch_),
      tbuf_(s_ * batch_),
      sum_h_(g_),
      sum_h2_(g_),
      sum_t_(s_),
      sum_t2_(s_),
      sum_ht_(g_ * s_) {}

void CpaEngine::add_trace(std::span<const double> hypotheses, std::span<const float> samples) {
  if (hypotheses.size() != g_ || samples.size() != s_) {
    throw std::invalid_argument("CpaEngine::add_trace: span shape mismatch (got " +
                                std::to_string(hypotheses.size()) + " hypotheses x " +
                                std::to_string(samples.size()) + " samples, engine is " +
                                std::to_string(g_) + " x " + std::to_string(s_) + ")");
  }
  if (traces_ == 0) {
    for (std::size_t g = 0; g < g_; ++g) ref_h_[g] = hypotheses[g];
    for (std::size_t s = 0; s < s_; ++s) ref_t_[s] = static_cast<double>(samples[s]);
  }
  for (std::size_t g = 0; g < g_; ++g) hbuf_[g * batch_ + pending_] = hypotheses[g] - ref_h_[g];
  for (std::size_t s = 0; s < s_; ++s) {
    tbuf_[s * batch_ + pending_] = static_cast<double>(samples[s]) - ref_t_[s];
  }
  ++traces_;
  if (++pending_ == batch_) flush();
}

void CpaEngine::flush() const {
  const std::size_t n = pending_;
  if (n == 0) return;
  for (std::size_t s = 0; s < s_; ++s) {
    const double* row = tbuf_.data() + s * batch_;
    sum_t_[s] += lanes4_sum(row, n);
    sum_t2_[s] += lanes4_sumsq(row, n);
  }
  // Guess-side moments ride sample 0's covariance (the fused fold runs
  // the identical lane program for each of its three sums).
  for (std::size_t g = 0; g < g_ && s_ > 0; ++g) {
    const double* h = hbuf_.data() + g * batch_;
    double* ht = sum_ht_.data() + g * s_;
    const HFold f = lanes4_fold_h(h, tbuf_.data(), n);
    sum_h_[g] += f.sh;
    sum_h2_[g] += f.sh2;
    ht[0] += f.sht;
    for (std::size_t s = 1; s < s_; ++s) ht[s] += lanes4_dot(h, tbuf_.data() + s * batch_, n);
  }
  pending_ = 0;
}

double CpaEngine::correlation(std::size_t guess, std::size_t sample) const {
  assert(guess < g_ && sample < s_);
  flush();
  if (traces_ < 2) return 0.0;
  const double dn = static_cast<double>(traces_);
  const double sh = sum_h_[guess];
  const double st = sum_t_[sample];
  const double cov = dn * sum_ht_[guess * s_ + sample] - sh * st;
  const double var_h = dn * sum_h2_[guess] - sh * sh;
  const double var_t = dn * sum_t2_[sample] - st * st;
  if (var_h <= 0.0 || var_t <= 0.0) return 0.0;
  return cov / std::sqrt(var_h * var_t);
}

double CpaEngine::peak(std::size_t guess) const {
  double best = -2.0;
  for (std::size_t s = 0; s < s_; ++s) best = std::max(best, std::fabs(correlation(guess, s)));
  return best;
}

std::vector<std::size_t> CpaEngine::ranking() const {
  std::vector<double> peaks(g_);
  for (std::size_t g = 0; g < g_; ++g) peaks[g] = peak(g);
  std::vector<std::size_t> order(g_);
  for (std::size_t g = 0; g < g_; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return peaks[a] > peaks[b]; });
  return order;
}

namespace {

// Reads the accumulator (never mutates its statistics) and emits one
// "cpa.snapshot" event: the guess-rank state after `windows` windows.
void emit_snapshot(const CpaEngine& engine, const CpaSpec& spec, std::size_t windows) {
  if (obs::sink() == nullptr) return;
  const std::vector<std::size_t> order = engine.ranking();
  const double top1_r = engine.peak(order[0]);
  const double top2_r = order.size() > 1 ? engine.peak(order[1]) : top1_r;
  std::int64_t truth_rank = -1;
  double truth_r = 0.0;
  if (spec.truth_guess >= 0) {
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      if (spec.guesses[order[pos]] == static_cast<std::uint32_t>(spec.truth_guess)) {
        truth_rank = static_cast<std::int64_t>(pos);
        truth_r = engine.peak(order[pos]);
        break;
      }
    }
  }
  obs::event("cpa.snapshot")
      .with("label", spec.label)
      .with("traces", windows)
      .with("guesses", spec.guesses.size())
      .with("top1_guess", spec.guesses[order[0]])
      .with("top1_r", top1_r)
      .with("top2_r", top2_r)
      .with("margin", top1_r - top2_r)
      .with("truth_rank", truth_rank)
      .with("truth_r", truth_r)
      .emit();
}

}  // namespace

CpaEngine run_cpa(const sca::TraceSet& set, const CpaSpec& spec) {
  namespace ww = sca::window;
  assert(!spec.guesses.empty() && !spec.sample_offsets.empty() && spec.model);
  CpaEngine engine(spec.guesses.size(), spec.sample_offsets.size(), spec.batch_traces);
  std::vector<double> hyps(spec.guesses.size());
  std::vector<float> samps(spec.sample_offsets.size());
  std::size_t windows = 0;
  bool snapshot_emitted = false;
  for (const sca::CapturedTrace& ct : set.traces) {
    const std::vector<float>& samples = ct.trace.samples;
    bool contributed = false;
    for (unsigned v = 0; v < 2; ++v) {
      const std::size_t block = ww::mul_block_for(spec.imag_part, v);
      const std::size_t base = ww::mul_base(static_cast<unsigned>(block));
      if (base + ww::kEventsPerMul > samples.size()) continue;  // foreign layout
      const KnownOperand k =
          KnownOperand::from((block == 0 || block == 3) ? ct.known_re : ct.known_im);
      for (std::size_t g = 0; g < hyps.size(); ++g) hyps[g] = spec.model(spec.guesses[g], k);
      for (std::size_t c = 0; c < samps.size(); ++c) {
        samps[c] = samples[base + spec.sample_offsets[c]];
      }
      engine.add_trace(hyps, samps);
      contributed = true;
    }
    // A window whose layout had no room for either view folded nothing:
    // it must not advance attack.cpa.windows or the snapshot cadence.
    if (!contributed) continue;
    ++windows;
    if (spec.snapshot_every != 0) {
      snapshot_emitted = windows % spec.snapshot_every == 0;
      if (snapshot_emitted) emit_snapshot(engine, spec, windows);
    }
  }
  // Final snapshot so the end state is always on record, even when the
  // window count is not a multiple of the cadence.
  if (spec.snapshot_every != 0 && !snapshot_emitted && windows > 0) {
    emit_snapshot(engine, spec, windows);
  }
  obs::MetricsRegistry::global().counter("attack.cpa.windows").add(windows);
  return engine;
}

StreamingScan::StreamingScan(const std::vector<Column>& columns, std::size_t batch_traces)
    : batch_(batch_traces == 0 ? 1 : batch_traces) {
  d_ = columns.empty() ? 0 : columns[0].samples.size();
  const double dn = static_cast<double>(d_);
  for (const Column& src : columns) {
    if (src.samples.size() != d_ || src.known == nullptr || src.known->size() < d_) {
      throw std::invalid_argument(
          "StreamingScan: every column needs " + std::to_string(d_) +
          " samples and known operands (got " + std::to_string(src.samples.size()) +
          " samples, " + std::to_string(src.known == nullptr ? 0 : src.known->size()) +
          " operands)");
    }
    // Store the column shifted by its first trace: Pearson r is
    // shift-invariant, and the dn*st2 - st*st form below no longer
    // cancels catastrophically when the raw samples carry a large DC
    // offset (the old float-column code silently zeroed r there).
    auto& col = cols_.emplace_back(d_);
    const double t0 = d_ > 0 ? static_cast<double>(src.samples[0]) : 0.0;
    for (std::size_t t = 0; t < d_; ++t) col[t] = static_cast<double>(src.samples[t]) - t0;
    const double st = lanes4_sum(col.data(), d_);
    const double st2 = lanes4_sumsq(col.data(), d_);
    col_sum_.push_back(st);
    col_var_.push_back(dn * st2 - st * st);
    known_.push_back(src.known);
    models_.push_back(src.model);
  }
}

std::vector<StreamingScan::Scored> StreamingScan::top_k(std::uint64_t guess_begin,
                                                        std::uint64_t guess_end,
                                                        std::size_t keep) const {
  return scan(guess_end - guess_begin, guess_begin, {}, keep);
}

std::vector<StreamingScan::Scored> StreamingScan::top_k_list(
    std::span<const std::uint32_t> guesses, std::size_t keep) const {
  return scan(guesses.size(), 0, guesses, keep);
}

double StreamingScan::score_one(std::uint32_t guess) const {
  const std::uint32_t list[1] = {guess};
  const auto r = top_k_list(list, 1);
  return r.empty() ? 0.0 : r[0].score;
}

std::vector<StreamingScan::Scored> StreamingScan::scan(std::uint64_t count, std::uint64_t first,
                                                       std::span<const std::uint32_t> list,
                                                       std::size_t keep) const {
  const double dn = static_cast<double>(d_);
  const std::size_t ncols = cols_.size();
  // Guesses per lanes4_hyp_fold call: enough rows to amortise the call
  // and keep the evaluate-then-fold tile (kGuessTile x batch doubles)
  // cache-resident; the prune phases score exactly one tile.
  constexpr std::size_t kGuessTile = 16;
  // The serial scorer over one guess range, with its own keep-list. The
  // keep-list holds the range's top `keep` under the total order (score
  // descending, arrival ascending): the sorted insert walks past every
  // equal-or-better score, so an equal-scoring later guess ranks after
  // the earlier one, and pop_back evicts the worst under that same
  // order. Per guess, the column contributions are summed in column
  // order exactly as a one-guess-at-a-time loop would.
  const auto scan_range = [&](std::uint64_t begin, std::uint64_t end) {
    std::vector<Scored> best;
    best.reserve(keep + 1);
    std::uint32_t tile[kGuessTile];
    double sh[kGuessTile], sh2[kGuessTile], sht[kGuessTile], score_sum[kGuessTile];
    for (std::uint64_t g0 = begin; g0 < end; g0 += kGuessTile) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kGuessTile, end - g0));
      for (std::size_t i = 0; i < n; ++i) {
        tile[i] = list.empty() ? static_cast<std::uint32_t>(first + g0 + i) : list[g0 + i];
        score_sum[i] = 0.0;
      }
      for (std::size_t c = 0; c < ncols; ++c) {
        const HypColumn col{models_[c], known_[c], cols_[c].data(), d_};
        lanes4_hyp_fold(col, batch_, tile, n, sh, sh2, sht);
        for (std::size_t i = 0; i < n; ++i) {
          const double var_h = dn * sh2[i] - sh[i] * sh[i];
          const double cov = dn * sht[i] - sh[i] * col_sum_[c];
          const double denom = var_h * col_var_[c];
          score_sum[i] += denom > 0.0 ? cov / std::sqrt(denom) : 0.0;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double score = score_sum[i] / static_cast<double>(ncols);
        if (best.size() < keep || score > best.back().score) {
          // Insert in sorted (descending) order.
          auto it = best.begin();
          while (it != best.end() && it->score >= score) ++it;
          best.insert(it, {tile[i], score});
          if (best.size() > keep) best.pop_back();
        }
      }
    }
    return best;
  };
  if (shards_ <= 1 || count < 2) return scan_range(0, count);

  // Sharded scan: per-guess scores are independent of one another, so
  // each chunk's keep-list is EXACTLY what the serial scan would have
  // kept from that range. Concatenating the lists in chunk-index order
  // keeps equal scores in arrival order (within a chunk by the insert
  // rule; across chunks because ranges are ascending), so the stable
  // sort below reproduces the serial result byte for byte at any shard
  // or worker count.
  const auto plan = exec::static_chunks(static_cast<std::size_t>(count), shards_);
  const auto parts = exec::parallel_map<std::vector<Scored>>(
      pool_, plan.size(),
      [&](std::size_t c) { return scan_range(plan[c].begin, plan[c].end); });
  std::vector<Scored> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const Scored& a, const Scored& b) { return a.score > b.score; });
  if (all.size() > keep) all.resize(keep);
  return all;
}

}  // namespace fd::attack
