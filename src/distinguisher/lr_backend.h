#pragma once
// Learned distinguisher: per-column logistic-regression heads.
//
// Profiling (deterministic, plain C++): for each sample column the
// known-value events of the profiling campaign give pairs
// (standardized sample z, normalized predicted Hamming weight
// h~ = h / max_hw). A logistic head p = sigmoid(w z + b) is fitted to
// h~ by full-batch gradient descent on the cross-entropy -- zero init,
// fixed iteration count and rate, fixed accumulation order -- so two
// trainings from the same selection are bit-identical (the determinism
// rule of DESIGN.md section 14; the GALACTICS-style learned-scorer
// extension).
//
// Attack scoring: guess g earns, per trace and column,
//     (h~_{g,c} - hbar_c) * (u_c - ubar_c),   u_c = w_c z_c + b_c
// where hbar_c / ubar_c are the training means of the target and of
// the logit. The centering is the pointwise-mutual-information
// correction to the raw likelihood h~ u - softplus(u): that raw form
// is linear in h~, so whenever the mean logit is positive it is
// maximized by whichever guess predicts the most one-bits -- a
// label-prior bias that drowns the data term (an early build picked
// the all-ones mantissa for every component). Centered, a
// constant-hypothesis guess scores ~0; dividing the accumulated sum by
// the guess's own hypothesis standard deviation (the per-guess factor
// of the Pearson denominator -- the sample-side factor is
// guess-independent and cancels in the ranking) removes the remaining
// variance bias, making the score a learned, column-weighted analogue
// of CPA. Per-guess accumulation
// is batch-tiled: contributions are staged into a guess-major
// contiguous block and reduced with the same lanes4 fixed-order
// primitives as the CPA kernel's H^T.S fold, so the backend rides the
// blocked-kernel speed work and inherits its determinism contract.
//
// Like Pearson (and unlike the template backend), the centered score
// is blind to affine hypothesis shifts, so the exponent stage's alias
// tie class reappears; the staged attack resolves it with the same
// self-calibrated absolute-level template match the CPA staging uses.

#include <cstddef>
#include <span>
#include <vector>

#include "distinguisher/types.h"

namespace fd::distinguisher {

// One trained head per sample column.
struct LrHead {
  double w = 0.0;
  double b = 0.0;
  double mean = 0.0;  // feature standardization
  double sd = 1.0;
  double max_hw = 1.0;  // normalizes predictions to [0, 1]
  double h_mean = 0.0;  // training mean of the normalized target
  double u_mean = 0.0;  // training mean logit (centers the score)
};

// Deterministic full-batch GD fit of one head. `samples`/`targets` are
// the column's profiling pairs (targets already normalized to [0, 1]).
[[nodiscard]] LrHead train_lr_head(std::span<const double> samples,
                                   std::span<const double> targets, double max_hw,
                                   const BackendSelection& sel);

class LrDistinguisher {
 public:
  LrDistinguisher(std::size_t num_guesses, std::vector<LrHead> heads,
                  std::size_t batch_traces);

  // Folds one trace: `hypotheses` is guess-major, C predictions per
  // guess (one per head); `samples` holds the C measured values.
  void observe(std::span<const double> hypotheses, std::span<const float> samples);

  // Centered, energy-normalized score of a guess (higher is better; see
  // above) and its per-trace standard deviation on the same scale.
  // Reads fold any staged partial batch first.
  [[nodiscard]] double score(std::size_t guess) const;
  [[nodiscard]] double score_sd(std::size_t guess) const;

 private:
  void flush() const;

  std::vector<LrHead> heads_;
  std::size_t batch_traces_;
  // Folded per-guess sums; reads fold the staged tail in, so they are
  // mutable behind the const score accessors.
  mutable std::vector<double> sum_, sumsq_;
  mutable std::vector<double> hyp_energy_;  // sum of (h~ - hbar)^2
  std::size_t traces_ = 0;
  // Batch staging: per-guess contiguous contribution rows (G x B),
  // folded through lanes4_sum / lanes4_sumsq when full -- the same
  // tiled layout and reduction order as CpaBatchKernel.
  mutable std::vector<double> stage_, stage_hh_;
  mutable std::size_t pending_ = 0;
  std::vector<double> u_;  // scratch, C
};

}  // namespace fd::distinguisher
