#include "attack/recovery_pipeline.h"

#include <bit>
#include <memory>
#include <stdexcept>

#include "attack/cpa_kernel.h"
#include "attack/stage_driver.h"
#include "exec/seed_split.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fd::attack {

// The CPA fold batch DOES participate: reassociation inside a batch
// shifts correlations at the ULP level (cpa_kernel.h).
std::uint64_t hash_experiment(const falcon::KeyPair& victim,
                              const RecoveryPipelineConfig& config) {
  std::uint64_t h = 0x46444350;  // "FDCP"
  const auto mix = [&h](std::uint64_t v) { h = exec::mix64(h ^ exec::mix64(v)); };
  const auto mixd = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  const KeyRecoveryConfig& a = config.attack;
  mix(a.num_traces);
  mixd(a.device.alpha);
  mixd(a.device.noise_sigma);
  mix(a.device.samples_per_event);
  mix(a.device.jitter_max);
  mix(a.device.constant_weight ? 1 : 0);
  mix(a.extend_top_k);
  mix(a.adversarial_random);
  mix(a.cpa_batch);
  mix(a.seed);
  // Backend selection: a different distinguisher (or a different
  // profiling recipe) is a different experiment -- its checkpoints and
  // rankings are not interchangeable with another backend's.
  mix(static_cast<std::uint64_t>(a.backend.backend));
  mix(a.backend.profile_seed);
  mix(a.backend.profile_traces);
  mix(a.backend.profile_components);
  mix(a.backend.lr_iters);
  mixd(a.backend.lr_rate);
  mixd(a.backend.lr_l2);
  mix(config.capture_shards);
  const sca::FaultConfig& fc = config.faults;
  mixd(fc.drop_rate);
  mixd(fc.desync_rate);
  mix(fc.desync_min);
  mix(fc.desync_max);
  mixd(fc.saturate_rate);
  mixd(fc.saturate_level);
  mixd(fc.glitch_rate);
  mixd(fc.glitch_amplitude);
  mixd(fc.chunk_corrupt_rate);
  mixd(fc.capture_fail_rate);
  mix(fc.seed);
  const QualityConfig& q = config.quality;
  mix(q.enabled ? 1 : 0);
  mixd(q.saturation_pinned_frac);
  mix(q.saturation_min_pinned);
  mixd(q.energy_mad_k);
  mix(q.max_lag);
  mixd(q.min_alignment_corr);
  mix(q.refine_iters);
  mix(config.adaptive ? 1 : 0);
  mix(config.remeasure.max_rounds);
  mix(config.remeasure.round_traces);
  mixd(config.remeasure.confidence.confidence);
  mixd(config.remeasure.confidence.margin_factor);
  for (const std::uint32_t c : victim.pk.h) mix(c);
  return h;
}

std::uint64_t experiment_trace_id(std::uint64_t experiment) {
  // Domain separation from the experiment digest ("TRAC" in ASCII).
  return exec::mix64(experiment ^ 0x54524143ULL);
}

namespace {

// The in-process executor: capture shards and component attacks both
// run on the pipeline's thread pool.
class InlineExecutor final : public StageExecutor {
 public:
  InlineExecutor(const falcon::KeyPair& victim, const RecoveryPipelineConfig& config,
                 exec::ThreadPool* pool)
      : victim_(victim), config_(config), pool_(pool) {}

  std::vector<sca::ArchiveCampaignResult> capture(const sca::ShardPlan& plan) override {
    return sca::run_shards(victim_.sk, plan, pool_);
  }

  std::vector<std::size_t> attack(const AttackRound& round, CheckpointState& st,
                                  QualityReport& quality) override {
    const auto config_for = [&](const ComponentIndex& ci) {
      ComponentAttackConfig cac =
          component_attack_config(victim_.sk, config_.attack, /*row=*/0, ci.slot, ci.imag);
      cac.scan_pool = pool_;  // nested parallel_map runs inline
      return cac;
    };
    std::string err;
    if (!attack_checkpointed(round.archive, config_.quality, config_for, pool_,
                             round.components, round.batch_size, st, quality, round.hooks,
                             &err)) {
      throw std::runtime_error(
          (round.round == 0 ? "component attack failed: " : "re-measurement attack failed: ") +
          err);
    }
    return {};
  }

 private:
  const falcon::KeyPair& victim_;
  const RecoveryPipelineConfig& config_;
  exec::ThreadPool* pool_;
};

}  // namespace

RecoveryPipelineResult run_recovery_pipeline(const falcon::KeyPair& victim,
                                             const RecoveryPipelineConfig& config) {
  RecoveryPipelineResult out;
  const std::uint64_t experiment = hash_experiment(victim, config);
  // Root the trace in the experiment (the fleet coordinator derives the
  // same id), so the pipeline produces replay-stable span ids.
  obs::set_trace_root(experiment_trace_id(experiment));
  obs::Span span("attack.pipeline", obs::Span::Root::kAdopt);
  span.note("cpa_kernel", cpa_simd_name(cpa_active_simd()));

  std::unique_ptr<exec::ThreadPool> pool;
  if (config.attack.threads > 1) pool = std::make_unique<exec::ThreadPool>(config.attack.threads);
  InlineExecutor executor(victim, config, pool.get());
  run_stage_plan(victim, config, experiment, executor, pool.get(), out);
  obs::MetricsRegistry::global().counter("attack.pipeline.runs").add(1);
  return out;
}

}  // namespace fd::attack
