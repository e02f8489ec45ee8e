#pragma once
// Pooled-covariance Gaussian template distinguisher.
//
// Scores guess g on trace s (columns c = a phase's sample offsets) by
// the joint Gaussian log-likelihood of the residual vector
//     e_c = s_c - (alpha_c * h_{g,c} + beta_c)
// under the pooled residual covariance of the profiling campaign:
//     ll_g(trace) = -1/2 e^T P e
// with P the phase-restricted precision (pooled_profile.h). The
// distinguisher accumulates per-guess sum and sum-of-squares of these
// per-trace log-likelihoods, so score() is the mean ll per trace and
// score_sd() its per-trace standard deviation -- the quantity the
// calibrated confidence criterion needs (quality.cpp).
//
// Accumulation order is trace order, guess-major inside a trace, so the
// scores are a pure function of the observation stream.

#include <cstddef>
#include <span>
#include <vector>

namespace fd::distinguisher {

class TemplateDistinguisher {
 public:
  // alpha/beta: per-column linear fits; precision: row-major C x C
  // phase precision.
  TemplateDistinguisher(std::size_t num_guesses, std::vector<double> alpha,
                        std::vector<double> beta, std::vector<double> precision);

  // Folds one trace: `hypotheses` is guess-major, C predictions per
  // guess (one per column); `samples` holds the C measured values.
  void observe(std::span<const double> hypotheses, std::span<const float> samples);

  // Mean per-trace log-likelihood of a guess (higher is better) and its
  // per-trace standard deviation.
  [[nodiscard]] double score(std::size_t guess) const;
  [[nodiscard]] double score_sd(std::size_t guess) const;

 private:
  std::vector<double> alpha_, beta_;
  std::vector<double> prec_;  // C x C row-major
  std::vector<double> ll_sum_, ll_sumsq_;  // per guess
  std::size_t traces_ = 0;
  std::vector<double> resid_;  // scratch, C
};

}  // namespace fd::distinguisher
