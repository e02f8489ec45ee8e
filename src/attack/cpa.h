#pragma once
// Correlation power/EM analysis (CPA) engine.
//
// Implements the paper's distinguisher (eq. (1)): Pearson correlation
// between per-guess Hamming-weight predictions and trace samples,
// accumulated incrementally so that the correlation-vs-trace-count
// evolution (Fig. 4 e-h) falls out of snapshots of the same pass.
//
// The accumulation itself lives in cpa_kernel.h: traces are buffered in
// batches and folded blocked (see that header for the canonical-order
// and shifted-data contracts). Two entry points of that kernel feed two
// owners here: CpaEngine folds its G x S CpaSums through CpaBatchKernel
// (the archive-streaming and in-memory CPA of streaming_cpa.h), while
// StreamingScan -- what extend-and-prune runs -- evaluates closed
// hypothesis kinds in guess tiles and folds them through the dispatched
// lanes4_hyp_fold entry (DESIGN.md section 16.5). They are separate
// code paths, not one kernel behind two thin owners.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/cpa_kernel.h"
#include "attack/hypothesis.h"
#include "exec/parallel_for.h"

namespace fd::attack {

// Two-sided normal quantile for the given confidence (e.g. 0.9999).
// The paper draws its confidence interval at +-z/sqrt(D).
[[nodiscard]] double confidence_z(double confidence);
[[nodiscard]] inline double confidence_interval(double confidence, std::size_t num_traces) {
  return confidence_z(confidence) / std::sqrt(static_cast<double>(num_traces));
}

// Incremental Pearson-correlation accumulator over G guesses x S samples.
class CpaEngine {
 public:
  explicit CpaEngine(std::size_t num_guesses, std::size_t num_samples,
                     CpaKernelConfig kernel = {});

  // hypotheses: G predicted leakage values; samples: S trace samples.
  void add_trace(std::span<const double> hypotheses, std::span<const float> samples);

  [[nodiscard]] std::size_t num_traces() const { return sums_.traces; }
  [[nodiscard]] std::size_t num_guesses() const { return sums_.num_guesses; }
  [[nodiscard]] std::size_t num_samples() const { return sums_.num_samples; }

  // Pearson r for one (guess, sample); 0 when either side is constant.
  // Reads flush any batched tail first, so they are always exact.
  [[nodiscard]] double correlation(std::size_t guess, std::size_t sample) const;
  // The "leakiest point" score: max over samples of |r|. Paper-faithful
  // and polarity-blind: an inverted leakage model (HW anti-correlated
  // with the measured amplitude) leaks exactly as much as the upright
  // one.
  [[nodiscard]] double peak(std::size_t guess) const;
  // Guess indices sorted by descending peak(); ties keep index order.
  [[nodiscard]] std::vector<std::size_t> ranking() const;

 private:
  // Reads must fold the buffered tail; the buffer is pure caching
  // state, so it is mutable behind the const accessors.
  mutable CpaBatchKernel kernel_;
  mutable CpaSums sums_;
};

// Memory-light streaming scan for huge guess spaces (the 2^25 / 2^27
// exhaustive enumerations): traces are stored once, then each guess is
// scored in a single pass without per-guess state. Scores are the mean,
// over the columns, of the Pearson correlation between the column's
// samples and its model's predictions.
//
// Columns are stored shifted by their first trace (doubles). Guesses
// are scored in tiles through lanes4_hyp_fold (cpa_kernel.h), which
// evaluates each column's closed model kind and folds it block-batched
// in the kernel's 4-lane order, so scores are a pure function of
// (columns, kernel.batch_traces) at any dispatch kind -- same contract
// as CpaEngine.
class StreamingScan {
 public:
  // One scored column: D samples, the known operands of the same D
  // traces, and the model that predicts the samples from a guess.
  struct Column {
    std::span<const float> samples;
    const KnownLanes* known = nullptr;  // not owned; must outlive the scan
    HypModel model;
  };
  // Throws std::invalid_argument unless every column has the same
  // number of samples and at least as many known operands.
  explicit StreamingScan(const std::vector<Column>& columns, CpaKernelConfig kernel = {});

  // Shard top_k/top_k_list over `shards` contiguous guess chunks run
  // through `pool` (exec::static_chunks plan; nullptr = inline). Every
  // guess's score is computed independently of every other guess, so
  // sharding is EXACTLY invariant -- not just plan-deterministic: the
  // result is byte-identical to the serial scan at ANY shard count and
  // ANY worker count.
  void set_parallelism(std::size_t shards, exec::ThreadPool* pool) {
    shards_ = shards == 0 ? 1 : shards;
    pool_ = pool;
  }

  struct Scored {
    std::uint32_t guess;
    double score;
  };
  // The keep highest-scoring guesses of [guess_begin, guess_end) or of
  // the list, in descending order.
  [[nodiscard]] std::vector<Scored> top_k(std::uint64_t guess_begin, std::uint64_t guess_end,
                                          std::size_t keep) const;
  [[nodiscard]] std::vector<Scored> top_k_list(std::span<const std::uint32_t> guesses,
                                               std::size_t keep) const;

  // Correlation of a single guess (diagnostics).
  [[nodiscard]] double score_one(std::uint32_t guess) const;

  [[nodiscard]] std::size_t num_traces() const { return d_; }

 private:
  // Scores guess i = list.empty() ? first + i : list[i] for i < count.
  [[nodiscard]] std::vector<Scored> scan(std::uint64_t count, std::uint64_t first,
                                         std::span<const std::uint32_t> list,
                                         std::size_t keep) const;

  CpaKernelConfig kernel_;
  std::vector<std::vector<double>> cols_;   // shifted by the first trace
  std::vector<double> col_sum_, col_var_;   // shifted sums / dn*var forms
  std::vector<const KnownLanes*> known_;
  std::vector<HypModel> models_;
  std::size_t d_ = 0;
  std::size_t shards_ = 1;                  // guess-chunk count for top_k
  exec::ThreadPool* pool_ = nullptr;        // not owned; nullptr = inline
};

}  // namespace fd::attack
