#include "distinguisher/template_backend.h"

#include <cassert>
#include <cmath>

namespace fd::distinguisher {

TemplateDistinguisher::TemplateDistinguisher(std::size_t num_guesses,
                                             std::vector<double> alpha,
                                             std::vector<double> beta,
                                             std::vector<double> precision)
    : alpha_(std::move(alpha)),
      beta_(std::move(beta)),
      prec_(std::move(precision)),
      ll_sum_(num_guesses, 0.0),
      ll_sumsq_(num_guesses, 0.0),
      resid_(alpha_.size()) {
  assert(beta_.size() == alpha_.size());
  assert(prec_.size() == alpha_.size() * alpha_.size());
}

void TemplateDistinguisher::observe(std::span<const double> hypotheses,
                                    std::span<const float> samples) {
  const std::size_t c_ = alpha_.size();
  const std::size_t g_ = ll_sum_.size();
  assert(hypotheses.size() == g_ * c_ && samples.size() >= c_);
  for (std::size_t g = 0; g < g_; ++g) {
    const double* h = hypotheses.data() + g * c_;
    for (std::size_t c = 0; c < c_; ++c) {
      resid_[c] = static_cast<double>(samples[c]) - (alpha_[c] * h[c] + beta_[c]);
    }
    // ll = -1/2 e^T P e, accumulated row by row (fixed order).
    double quad = 0.0;
    for (std::size_t a = 0; a < c_; ++a) {
      double row = 0.0;
      const double* pr = prec_.data() + a * c_;
      for (std::size_t b = 0; b < c_; ++b) row += pr[b] * resid_[b];
      quad += resid_[a] * row;
    }
    const double ll = -0.5 * quad;
    ll_sum_[g] += ll;
    ll_sumsq_[g] += ll * ll;
  }
  ++traces_;
}

double TemplateDistinguisher::score(std::size_t guess) const {
  return traces_ == 0 ? 0.0 : ll_sum_[guess] / static_cast<double>(traces_);
}

double TemplateDistinguisher::score_sd(std::size_t guess) const {
  if (traces_ < 2) return 0.0;
  const double dn = static_cast<double>(traces_);
  const double mean = ll_sum_[guess] / dn;
  const double var = ll_sumsq_[guess] / dn - mean * mean;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace fd::distinguisher
