#include "attack/cpa.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
                     CpaKernelConfig kernel)
    : kernel_(num_guesses, num_samples, kernel) {
  sums_.reset(num_guesses, num_samples);
}

void CpaEngine::add_trace(std::span<const double> hypotheses, std::span<const float> samples) {
  kernel_.add_trace(sums_, hypotheses, samples);
}

double CpaEngine::correlation(std::size_t guess, std::size_t sample) const {
  kernel_.flush(sums_);
  return sums_.correlation(guess, sample);
}

double CpaEngine::peak(std::size_t guess) const {
  kernel_.flush(sums_);
  double best = -2.0;
  for (std::size_t s = 0; s < sums_.num_samples; ++s) {
    best = std::max(best, std::fabs(sums_.correlation(guess, s)));
  }
  return best;
}

std::vector<std::size_t> CpaEngine::ranking() const {
  const std::size_t g_ = sums_.num_guesses;
  std::vector<double> peaks(g_);
  for (std::size_t g = 0; g < g_; ++g) peaks[g] = peak(g);
  std::vector<std::size_t> order(g_);
  for (std::size_t g = 0; g < g_; ++g) order[g] = g;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return peaks[a] > peaks[b]; });
  return order;
}

StreamingScan::StreamingScan(std::vector<std::vector<float>> sample_columns,
                             CpaKernelConfig kernel)
    : kernel_(kernel) {
  assert(!sample_columns.empty());
  d_ = sample_columns[0].size();
  cols_.resize(sample_columns.size());
  col_sum_.resize(sample_columns.size());
  col_var_.resize(sample_columns.size());
  const double dn = static_cast<double>(d_);
  for (std::size_t c = 0; c < sample_columns.size(); ++c) {
    const auto& src = sample_columns[c];
    assert(src.size() == d_);
    // Store the column shifted by its first trace: Pearson r is
    // shift-invariant, and the dn*st2 - st*st form below no longer
    // cancels catastrophically when the raw samples carry a large DC
    // offset (the old float-column code silently zeroed r there).
    auto& col = cols_[c];
    col.resize(d_);
    const double t0 = d_ > 0 ? static_cast<double>(src[0]) : 0.0;
    for (std::size_t t = 0; t < d_; ++t) col[t] = static_cast<double>(src[t]) - t0;
    const double st = lanes4_sum(col.data(), d_);
    const double st2 = lanes4_sumsq(col.data(), d_);
    col_sum_[c] = st;
    col_var_[c] = dn * st2 - st * st;
  }
}

}  // namespace fd::attack
