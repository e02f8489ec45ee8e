#include "distinguisher/lr_backend.h"

#include <cassert>
#include <cmath>

#include "attack/cpa_kernel.h"

namespace fd::distinguisher {

LrHead train_lr_head(std::span<const double> samples, std::span<const double> targets,
                     double max_hw, const BackendSelection& sel) {
  assert(samples.size() == targets.size());
  LrHead head;
  head.max_hw = max_hw;
  const std::size_t n = samples.size();
  if (n < 8) return head;  // unmodeled column: w stays 0
  const double dn = static_cast<double>(n);

  // Standardize the feature (fixed-order sums).
  double s = 0.0, s2 = 0.0;
  for (const double v : samples) {
    s += v;
    s2 += v * v;
  }
  head.mean = s / dn;
  const double var = s2 / dn - head.mean * head.mean;
  head.sd = var > 1e-12 ? std::sqrt(var) : 1.0;

  // Full-batch gradient descent on cross-entropy + L2: deterministic
  // by zero init, fixed iteration count, and in-order accumulation.
  double w = 0.0, b = 0.0;
  for (std::size_t it = 0; it < sel.lr_iters; ++it) {
    double gw = 0.0, gb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double z = (samples[i] - head.mean) / head.sd;
      const double p = 1.0 / (1.0 + std::exp(-(w * z + b)));
      const double err = p - targets[i];
      gw += err * z;
      gb += err;
    }
    w -= sel.lr_rate * (gw / dn + sel.lr_l2 * w);
    b -= sel.lr_rate * (gb / dn + sel.lr_l2 * b);
  }
  head.w = w;
  head.b = b;
  // Training means of target and logit: the centers that turn the raw
  // likelihood into a prior-free covariance score (see header).
  double hs = 0.0, us = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    hs += targets[i];
    us += w * (samples[i] - head.mean) / head.sd + b;
  }
  head.h_mean = hs / dn;
  head.u_mean = us / dn;
  return head;
}

LrDistinguisher::LrDistinguisher(std::size_t num_guesses, std::vector<LrHead> heads,
                                 std::size_t batch_traces)
    : heads_(std::move(heads)),
      batch_traces_(batch_traces == 0 ? 1 : batch_traces),
      sum_(num_guesses, 0.0),
      sumsq_(num_guesses, 0.0),
      hyp_energy_(num_guesses, 0.0),
      stage_(num_guesses * (batch_traces == 0 ? 1 : batch_traces)),
      stage_hh_(num_guesses * (batch_traces == 0 ? 1 : batch_traces)),
      u_(heads_.size()) {}

void LrDistinguisher::observe(std::span<const double> hypotheses,
                              std::span<const float> samples) {
  const std::size_t c_ = heads_.size();
  const std::size_t g_ = sum_.size();
  assert(hypotheses.size() == g_ * c_ && samples.size() >= c_);
  // Guess-independent part of every contribution: the centered logit,
  // computed once per trace.
  for (std::size_t c = 0; c < c_; ++c) {
    const LrHead& h = heads_[c];
    const double z = (static_cast<double>(samples[c]) - h.mean) / h.sd;
    u_[c] = h.w * z + h.b - h.u_mean;
  }
  // Stage one contribution per guess at batch slot `pending_` --
  // guess-major rows, contiguous over the batch index, the CPA kernel's
  // tiling transposed onto per-guess scores.
  for (std::size_t g = 0; g < g_; ++g) {
    const double* hyp = hypotheses.data() + g * c_;
    double ll = 0.0, hh = 0.0;
    for (std::size_t c = 0; c < c_; ++c) {
      const double hc = hyp[c] / heads_[c].max_hw - heads_[c].h_mean;
      ll += hc * u_[c];
      hh += hc * hc;
    }
    stage_[g * batch_traces_ + pending_] = ll;
    stage_hh_[g * batch_traces_ + pending_] = hh;
  }
  ++traces_;
  if (++pending_ == batch_traces_) flush();
}

void LrDistinguisher::flush() const {
  if (pending_ == 0) return;
  for (std::size_t g = 0; g < sum_.size(); ++g) {
    const double* row = stage_.data() + g * batch_traces_;
    sum_[g] += attack::lanes4_sum(row, pending_);
    sumsq_[g] += attack::lanes4_sumsq(row, pending_);
    hyp_energy_[g] += attack::lanes4_sum(stage_hh_.data() + g * batch_traces_, pending_);
  }
  pending_ = 0;
}

double LrDistinguisher::score(std::size_t guess) const {
  flush();
  if (traces_ == 0 || hyp_energy_[guess] <= 0.0) return 0.0;
  const double dn = static_cast<double>(traces_);
  // Mean centered contribution over the guess's own hypothesis sd --
  // the per-guess half of the Pearson normalization (see header).
  return sum_[guess] / dn / std::sqrt(hyp_energy_[guess] / dn);
}

double LrDistinguisher::score_sd(std::size_t guess) const {
  flush();
  if (traces_ < 2 || hyp_energy_[guess] <= 0.0) return 0.0;
  const double dn = static_cast<double>(traces_);
  const double mean = sum_[guess] / dn;
  const double var = sumsq_[guess] / dn - mean * mean;
  // Same normalizer as score() so gap / sd ratios are scale-free.
  return var > 0.0 ? std::sqrt(var) / std::sqrt(hyp_energy_[guess] / dn) : 0.0;
}

}  // namespace fd::distinguisher
