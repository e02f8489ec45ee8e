#pragma once
// Correlation power/EM analysis (CPA) engine.
//
// Implements the paper's distinguisher (eq. (1)): Pearson correlation
// between per-guess Hamming-weight predictions and trace samples,
// accumulated incrementally so that the correlation-vs-trace-count
// evolution (Fig. 4 e-h) falls out of snapshots of the same pass.
//
// One fold API, two owners. Both classes below fold through the lanes4
// primitives of cpa_kernel.h under its canonical-order and shifted-data
// contracts: CpaEngine buffers explicit (hypotheses, samples) traces in
// batches and folds each batch with lanes4_sum / lanes4_sumsq /
// lanes4_fold_h / lanes4_dot; StreamingScan -- what extend-and-prune
// runs -- evaluates closed hypothesis kinds in guess tiles and folds
// them through lanes4_hyp_fold (DESIGN.md section 16.5).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "attack/cpa_kernel.h"
#include "attack/hypothesis.h"
#include "exec/parallel_for.h"
#include "sca/campaign.h"

namespace fd::attack {

// Two-sided normal quantile for the given confidence (e.g. 0.9999).
// The paper draws its confidence interval at +-z/sqrt(D).
[[nodiscard]] double confidence_z(double confidence);
[[nodiscard]] inline double confidence_interval(double confidence, std::size_t num_traces) {
  return confidence_z(confidence) / std::sqrt(static_cast<double>(num_traces));
}

// Incremental Pearson-correlation accumulator over G guesses x S samples.
// Traces are buffered guess-major (hypotheses) and sample-major
// (samples), shifted by the first trace, and folded batch_traces at a
// time: per sample row lanes4_sum / lanes4_sumsq, per guess row
// lanes4_fold_h against sample 0 and lanes4_dot against every later
// sample. Correlations are a pure function of (trace stream,
// batch_traces) at any dispatch kind; batch 1 is the per-trace fold.
class CpaEngine {
 public:
  explicit CpaEngine(std::size_t num_guesses, std::size_t num_samples,
                     std::size_t batch_traces = kDefaultCpaBatch);

  // hypotheses: G predicted leakage values; samples: S trace samples.
  // Throws std::invalid_argument unless the spans are G and S long -- a
  // hard failure in every build mode, leaving the engine untouched.
  void add_trace(std::span<const double> hypotheses, std::span<const float> samples);

  [[nodiscard]] std::size_t num_traces() const { return traces_; }
  [[nodiscard]] std::size_t num_guesses() const { return g_; }
  [[nodiscard]] std::size_t num_samples() const { return s_; }

  // Pearson r for one (guess, sample); 0 when either side is constant.
  // Reads fold any buffered tail first, so they are always exact.
  [[nodiscard]] double correlation(std::size_t guess, std::size_t sample) const;
  // The "leakiest point" score: max over samples of |r|. Paper-faithful
  // and polarity-blind: an inverted leakage model (HW anti-correlated
  // with the measured amplitude) leaks exactly as much as the upright
  // one.
  [[nodiscard]] double peak(std::size_t guess) const;
  // Guess indices sorted by descending peak(); ties keep index order.
  [[nodiscard]] std::vector<std::size_t> ranking() const;

 private:
  // Folds the buffered traces into the sums. The buffer is pure caching
  // state, so the sums and the fill level are mutable behind the const
  // accessors.
  void flush() const;

  std::size_t g_, s_, batch_;
  std::size_t traces_ = 0;             // folded + still buffered
  std::vector<double> ref_h_, ref_t_;  // first-trace shift references
  std::vector<double> hbuf_;           // G rows x batch, shifted hypotheses
  std::vector<double> tbuf_;           // S rows x batch, shifted samples
  mutable std::size_t pending_ = 0;
  mutable std::vector<double> sum_h_, sum_h2_;  // per guess
  mutable std::vector<double> sum_t_, sum_t2_;  // per sample
  mutable std::vector<double> sum_ht_;          // guess-major G x S
};

// One CPA pass over a captured trace set: which component, which sample
// offsets inside each fpr_mul block, and how a guess predicts leakage
// from the trace's known operand.
struct CpaSpec {
  bool imag_part = false;  // attack Im FFT(-row)[slot] instead of Re
  // Offsets within one fpr_mul block (sca::window::kOff*); each offset
  // contributes one sample column per view (both views are folded in,
  // like the extend-and-prune scans).
  std::vector<std::size_t> sample_offsets;
  std::vector<std::uint32_t> guesses;
  // model(guess, known operand) -> predicted Hamming-weight leakage.
  std::function<double(std::uint32_t, const KnownOperand&)> model;
  // Fold batch (part of the statistics' identity, see cpa_kernel.h).
  std::size_t batch_traces = kDefaultCpaBatch;

  // --- telemetry (no effect on the accumulated statistics) ---------------
  //
  // When `snapshot_every` > 0 and a telemetry sink is installed
  // (obs::set_sink), a "cpa.snapshot" event is emitted after every that
  // many windows folded, and once more at the end of the pass: current
  // trace count, top-1 guess and peak correlation, top-1/top-2 margin,
  // and -- if `truth_guess` names a member of `guesses` -- the rank and
  // peak of the true value. A file of these snapshots is enough to
  // reconstruct the paper's Fig. 4 e-h convergence curves offline
  // (fd-report renders them). Only windows that actually contributed at
  // least one add_trace count toward the cadence, the `traces` field and
  // the attack.cpa.windows counter (a record whose sample layout has no
  // room for this spec's views folds nothing).
  std::size_t snapshot_every = 0;
  std::int64_t truth_guess = -1;  // guess *value* to track, -1 = none
  std::string label;              // event tag, e.g. "slot3.im"
};

// Folds every window of `set` (one add_trace per view, hypotheses
// recomputed from that view's known operand) and returns the filled
// accumulator. Guess i of the engine is spec.guesses[i]. Archive inputs
// go through sca::load_trace_sets_for first; the archive stores samples
// and known operands losslessly, so the result is bit-identical to the
// same campaign captured in memory.
[[nodiscard]] CpaEngine run_cpa(const sca::TraceSet& set, const CpaSpec& spec);

// Memory-light streaming scan for huge guess spaces (the 2^25 / 2^27
// exhaustive enumerations): traces are stored once, then each guess is
// scored in a single pass without per-guess state. Scores are the mean,
// over the columns, of the Pearson correlation between the column's
// samples and its model's predictions.
//
// Columns are stored shifted by their first trace (doubles). Guesses
// are scored in tiles through lanes4_hyp_fold (cpa_kernel.h), which
// evaluates each column's closed model kind and folds it block-batched
// in the 4-lane order, so scores are a pure function of (columns,
// batch_traces) at any dispatch kind -- same contract as CpaEngine.
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
  explicit StreamingScan(const std::vector<Column>& columns,
                         std::size_t batch_traces = kDefaultCpaBatch);

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

  std::size_t batch_;
  std::vector<std::vector<double>> cols_;   // shifted by the first trace
  std::vector<double> col_sum_, col_var_;   // shifted sums / dn*var forms
  std::vector<const KnownLanes*> known_;
  std::vector<HypModel> models_;
  std::size_t d_ = 0;
  std::size_t shards_ = 1;                  // guess-chunk count for top_k
  exec::ThreadPool* pool_ = nullptr;        // not owned; nullptr = inline
};

}  // namespace fd::attack
