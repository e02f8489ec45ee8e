#include "attack/stage_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "exec/job_graph.h"
#include "exec/retry.h"
#include "exec/seed_split.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "tracestore/archive.h"

namespace fd::attack {

namespace {

std::size_t count_archive_records(const std::string& path) {
  tracestore::ArchiveReader reader;
  if (!reader.open(path)) return 0;
  tracestore::TraceRecord rec;
  std::size_t count = 0;
  while (reader.next(rec)) ++count;
  return count;
}

}  // namespace

void run_stage_plan(const falcon::KeyPair& victim, const RecoveryPipelineConfig& config,
                    std::uint64_t experiment, StageExecutor& executor, exec::ThreadPool* pool,
                    RecoveryPipelineResult& out, const std::function<void()>& spawn) {
  if (config.archive_path.empty()) {
    out.error = "recovery pipeline needs an archive_path";
    return;
  }
  const unsigned logn = victim.sk.params.logn;
  const std::size_t n = victim.sk.params.n;
  const KeyRecoveryConfig& atk = config.attack;
  const std::string& archive = config.archive_path;
  const sca::FaultPlan fplan(config.faults);
  const bool checkpointing = config.checkpoint || config.resume;
  if (checkpointing) out.checkpoint_path = archive + ".fdckpt";

  // The per-component state every stage reads and writes -- also what
  // a checkpoint persists.
  CheckpointState st;
  st.reset(n);
  st.config_hash = experiment;
  st.backend = static_cast<std::uint8_t>(atk.backend.backend);
  std::vector<std::size_t> given_up;  // components an executor could not finish

  const auto persist = [&] {
    if (!checkpointing) return;
    std::string err;
    if (!save_checkpoint(out.checkpoint_path, st, &err)) throw std::runtime_error(err);
  };

  // Cooperative-shutdown check, called at batch boundaries: persists a
  // final checkpoint first so the interrupt never strands a finished
  // batch, then unwinds through the stage-failure path.
  const auto check_interrupt = [&] {
    if (config.interrupt_flag == nullptr || *config.interrupt_flag == 0) return;
    persist();
    out.interrupted = true;
    obs::event("pipeline.interrupted")
        .with("completed", st.completed())
        .with("checkpoint", out.checkpoint_path)
        .emit();
    throw std::runtime_error("interrupted by signal");
  };

  // One capture round: the initial campaign (round 0) or a
  // re-measurement top-up (round >= 1, its own seed lane and a
  // fault-plan query offset past everything captured before it).
  // Rig-down simulation retries under the shared bounded-retry policy.
  const auto capture_round = [&](std::size_t round, std::size_t num_traces,
                                 std::size_t query_offset, const std::string& path) {
    sca::ShardedCampaignConfig camp;
    camp.base.num_traces = num_traces;
    camp.base.device = atk.device;
    camp.base.seed = round == 0 ? atk.seed : exec::split_seed(atk.seed, 0xAD0 + round);
    camp.base.row = 0;
    camp.base.faults = config.faults;
    camp.base.fault_query_offset = query_offset;
    camp.num_shards = config.capture_shards;
    exec::RetryPolicy retry;
    retry.max_attempts = std::max<std::size_t>(1, config.remeasure.max_capture_attempts);
    retry.base_ms = config.remeasure.backoff_base_ms;
    for (std::size_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
      ++out.capture_attempts;
      if (fplan.capture_fails(round, attempt)) {
        obs::MetricsRegistry::global().counter("attack.pipeline.capture_failures").add(1);
        const std::size_t wait_ms = retry.backoff_ms(attempt + 1, round);
        if (wait_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        }
        continue;
      }
      const sca::ShardPlan plan = sca::plan_shards(camp, path);
      const auto res = sca::finalize_shards(plan, executor.capture(plan));
      if (!res.ok) throw std::runtime_error("capture failed: " + res.error);
      return res.records;
    }
    throw std::runtime_error(
        "capture round " + std::to_string(round) + ": rig down after " +
        std::to_string(retry.max_attempts) + " attempts");
  };

  const auto attack_round = [&](std::size_t round, std::span<const std::size_t> components,
                                std::size_t batch_size, BatchHooks hooks) {
    const AttackRound req{round, archive, components, batch_size, std::move(hooks)};
    const auto failed = executor.attack(req, st, out.quality);
    given_up.insert(given_up.end(), failed.begin(), failed.end());
  };

  const auto low_confidence_set = [&] {
    std::vector<std::size_t> low;
    if (!config.adaptive) return low;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (!component_confidence(st.results[idx], st.accepted_traces[idx],
                                config.remeasure.confidence)
               .confident) {
        low.push_back(idx);
      }
    }
    return low;
  };

  exec::JobGraph graph;
  std::vector<exec::JobGraph::JobId> lead;
  if (spawn) lead.push_back(graph.add("spawn", spawn));

  const auto capture = graph.add("capture", [&] {
    if (config.resume && std::filesystem::exists(archive)) {
      CheckpointState loaded;
      if (load_checkpoint(out.checkpoint_path, loaded) && loaded.config_hash == experiment &&
          loaded.backend == st.backend && loaded.done.size() == n) {
        // Same experiment, archive still on disk (including any merged
        // re-measurement rounds): reuse both instead of recapturing.
        st = std::move(loaded);
        out.resumed = true;
        out.captured_records = count_archive_records(archive);
        obs::MetricsRegistry::global().counter("attack.pipeline.resumes").add(1);
        return;
      }
      // Incompatible or unreadable checkpoint: fall through to a clean
      // capture (the stale file is overwritten at the first batch).
    }
    out.captured_records = capture_round(0, atk.num_traces, 0, archive);
  }, lead);

  const auto attack = graph.add("attack", [&] {
    std::vector<std::size_t> todo;
    for (std::size_t idx = 0; idx < n; ++idx) {
      if (st.done[idx] == 0) todo.push_back(idx);
    }
    BatchHooks hooks;
    hooks.before = [&] {
      check_interrupt();
      const std::size_t completed = st.completed();
      if (config.abort_after_components != 0 && completed >= config.abort_after_components) {
        throw std::runtime_error("aborted after " + std::to_string(completed) +
                                 " components (simulated kill)");
      }
    };
    hooks.after = [&](std::span<const std::size_t>) { persist(); };
    // Without checkpointing there is nothing to persist between
    // batches, so the whole todo set runs as one batch -- which makes
    // the attack round exactly ONE archive scan.
    attack_round(0, todo, checkpointing ? config.checkpoint_every : 0, std::move(hooks));
  }, {capture});

  const auto remeasure = graph.add("remeasure", [&] {
    if (config.adaptive) {
      std::size_t round = st.remeasure_round;
      std::vector<std::size_t> low = low_confidence_set();
      const std::size_t round_traces = config.remeasure.round_traces == 0
                                           ? atk.num_traces
                                           : config.remeasure.round_traces;
      while (!low.empty() && round < config.remeasure.max_rounds) {
        check_interrupt();
        ++round;
        obs::event("attack.remeasure.round")
            .with("round", round)
            .with("low_confidence", low.size())
            .emit();
        // Top-up capture under the round's own seed lane; its fault-plan
        // offset starts past every query captured in earlier rounds.
        const std::string extra = archive + ".r" + std::to_string(round);
        const std::size_t offset = atk.num_traces + (round - 1) * round_traces;
        capture_round(round, round_traces, offset, extra);
        // Merge into the main archive (merge cannot write in place).
        const std::string merged = archive + ".merge";
        const std::string inputs[] = {archive, extra};
        std::string err;
        const bool ok = tracestore::merge_archives(inputs, merged, &err);
        std::remove(extra.c_str());
        if (!ok) throw std::runtime_error("re-measurement merge failed: " + err);
        if (std::rename(merged.c_str(), archive.c_str()) != 0) {
          std::remove(merged.c_str());
          throw std::runtime_error("re-measurement merge rename failed");
        }
        // Only the doubtful components re-run, now over the larger D.
        attack_round(round, low, 0, {});
        st.remeasure_round = static_cast<std::uint32_t>(round);
        persist();
        low = low_confidence_set();
      }
      out.remeasure_rounds = round;
      out.flagged_components = std::move(low);
    }
    // Budget exhausted or a component given up on: degrade gracefully.
    // The flagged components ride into assemble, where the exponent-
    // alias repair gets a shot at them; the result is marked partial.
    auto& flagged = out.flagged_components;
    flagged.insert(flagged.end(), given_up.begin(), given_up.end());
    std::sort(flagged.begin(), flagged.end());
    flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());
    out.partial = !flagged.empty();
    if (out.partial) {
      obs::MetricsRegistry::global()
          .counter("attack.pipeline.flagged_components")
          .add(flagged.size());
    }
  }, {attack});

  const auto assemble = graph.add("assemble", [&] {
    // Snapshot the per-component state before assemble_row's in-place
    // alias repair mutates it.
    out.results = st.results;
    out.accepted_traces = st.accepted_traces;
    const RowAssembly assembled = assemble_row(st.results, logn, /*row=*/0);
    const auto& secret_row = victim.sk.b01;
    out.recovery.components_total = n;
    for (std::size_t idx = 0; idx < n; ++idx) {
      out.recovery.components_correct +=
          assembled.recovered[idx].bits() == secret_row[idx].bits();
    }
    out.recovery.recovered_f = assembled.poly;
    out.recovery.f_exact = std::equal(assembled.poly.begin(), assembled.poly.end(),
                                      victim.sk.f.begin(), victim.sk.f.end());
  }, {remeasure});

  graph.add("forge", [&] {
    auto forged = forge_key(out.recovery.recovered_f, victim.pk);
    if (!forged) return;  // attack failed to land; not a pipeline error
    out.recovery.ntru_solved = true;
    out.recovery.derived_g = forged->g;
    ChaCha20Prng rng(atk.seed ^ 0xF04C3);
    const auto sig = falcon::sign(*forged, "forged by the falcon-down adversary", rng);
    out.recovery.forgery_verified =
        falcon::verify(victim.pk, "forged by the falcon-down adversary", sig);
  }, {assemble});

  // Collected, never thrown: a failed stage leaves its message in
  // `error` and the downstream reports with ran == false.
  out.stages = graph.run_collect(pool, &out.error);
  out.ok = out.error.empty();

  // A finished run's checkpoint must not shadow a future experiment. On
  // failure with checkpointing on, BOTH the archive and the .fdckpt stay
  // behind -- that pair is what --resume picks back up.
  if (out.ok && checkpointing) std::remove(out.checkpoint_path.c_str());
  if (!config.keep_archive && (out.ok || !checkpointing)) std::remove(archive.c_str());
}

}  // namespace fd::attack
