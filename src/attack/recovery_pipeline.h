#pragma once
// End-to-end recovery as a staged job graph over the exec pool.
//
// The pipeline is the attack of key_recovery.h restructured for
// production-scale runs: capture streams to a .fdtrace archive in
// parallel shards (bounded memory), the per-component attack fans out
// across the pool reading that archive, and assembly/forging complete
// the key. Stages are a linear exec::JobGraph -- each stage runs inline
// while its *inside* (shards, components) uses the pool -- and every
// stage's wall time is reported, which is what bench_parallel_scaling
// measures.
//
// Robustness layer (DESIGN.md section 10): the pipeline survives a
// hostile rig instead of assuming a pristine one.
//   - `faults` injects the deterministic failure plan of sca/faults.h
//     into capture (drops, desync, clipping, glitches, chunk damage,
//     whole-round capture failures);
//   - `quality` screens each slot's traces before CPA (attack/quality.h)
//     and realigns jittered windows;
//   - `adaptive` gates every component on the paper's 99.99%-confidence
//     top1/top2 margin and re-measures the doubtful ones: bounded extra
//     capture rounds (retried with exponential backoff when the rig is
//     down) merged into the archive, after which only the low-confidence
//     components are re-attacked. Components still unconvincing when the
//     budget runs out are *flagged* (partial = true) and handed to the
//     assemble-stage alias repair rather than silently trusted;
//   - `checkpoint` persists per-component results to an .fdckpt beside
//     the archive after every batch; `resume` picks a killed run back up
//     bit-identically, skipping finished components.
//
// Stage failures are collected, never thrown: a missing archive
// directory or an exhausted capture budget lands in `error` with the
// partial stage reports intact.
//
// Determinism: the result is a pure function of (victim key, config) --
// the worker count changes wall time only. The capture shard count IS
// part of the config (different shard seeds => different traces), the
// thread count is not; fault plans and re-measurement rounds derive
// from seeds, so a faulted adaptive run is as reproducible as a clean
// one.

#include <csignal>
#include <cstddef>
#include <string>
#include <vector>

#include "attack/key_recovery.h"
#include "attack/quality.h"
#include "exec/job_graph.h"
#include "sca/faults.h"

namespace fd::attack {

// Budget for the adaptive re-measurement controller.
struct RemeasureConfig {
  std::size_t max_rounds = 2;     // extra capture rounds after the first
  std::size_t round_traces = 0;   // queries per round; 0 = attack.num_traces
  std::size_t max_capture_attempts = 5;  // per round, incl. the first try
  std::size_t backoff_base_ms = 0;       // attempt k sleeps base << k; 0 = no sleep
  ConfidenceConfig confidence;           // the acceptance criterion
};

struct RecoveryPipelineConfig {
  KeyRecoveryConfig attack;       // attack.threads sizes the shared pool
  std::size_t capture_shards = 1; // sharded-capture fan-out (seed plan)
  std::string archive_path;       // where the campaign archive lives
  bool keep_archive = false;      // leave the .fdtrace behind for reuse

  sca::FaultConfig faults;        // injected rig failures (default: pristine)
  QualityConfig quality;          // trace gate in front of CPA
  RemeasureConfig remeasure;
  bool adaptive = false;          // confidence gating + re-measurement

  bool checkpoint = false;        // persist .fdckpt progress
  bool resume = false;            // reuse a compatible .fdckpt + archive
  std::size_t checkpoint_every = 8;  // components per checkpointed batch
  // Test hook simulating a kill: once this many components have been
  // checkpointed the attack stage throws. 0 = never.
  std::size_t abort_after_components = 0;

  // Cooperative shutdown: when non-null and the pointee becomes nonzero
  // (a signal handler flipping a sig_atomic_t), the pipeline stops at
  // the next batch boundary -- after persisting a final checkpoint and
  // emitting `pipeline.interrupted` -- and fails with result.interrupted
  // set. A later resume run continues bit-identically (the kill-then-
  // resume contract of tools/fd_attack.cpp's SIGTERM handler).
  const volatile std::sig_atomic_t* interrupt_flag = nullptr;
};

struct RecoveryPipelineResult {
  KeyRecoveryResult recovery;
  std::vector<exec::JobGraph::JobReport> stages;  // capture/attack/remeasure/assemble/forge
  std::size_t captured_records = 0;

  QualityReport quality;               // aggregate gate counts (all rounds)
  std::size_t capture_attempts = 0;    // capture tries incl. rig-down retries
  std::size_t remeasure_rounds = 0;    // extra rounds actually run
  std::vector<std::size_t> flagged_components;  // low confidence at budget end
  bool partial = false;                // flagged_components nonempty
  bool resumed = false;                // a checkpoint was loaded
  bool interrupted = false;            // stopped by config.interrupt_flag
  std::string checkpoint_path;         // set when checkpointing was on

  bool ok = false;
  std::string error;
};

// Runs capture -> component attack -> (remeasure) -> assemble -> forge
// against the victim. Recovers row 0 (f); g/F/G come from the public
// machinery as in recover_key.
[[nodiscard]] RecoveryPipelineResult run_recovery_pipeline(const falcon::KeyPair& victim,
                                                           const RecoveryPipelineConfig& config);

}  // namespace fd::attack
