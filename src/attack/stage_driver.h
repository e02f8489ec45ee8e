#pragma once
// The one stage plan of a recovery run (DESIGN.md section 10.5):
// run_recovery_pipeline and fleet::run_fleet both run capture -> attack
// -> remeasure -> assemble -> forge through run_stage_plan, which owns
// every decision that shapes the result (capture retries, seed lanes,
// the shard plan and its finalize step, checkpoints, re-measurement,
// assembly, forgery). The modes differ only in WHERE the two heavy
// operations run -- the StageExecutor: the thread pool in-process,
// worker processes in a fleet -- so "single-process == fleet" holds by
// construction.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "attack/checkpoint.h"
#include "attack/parallel_attack.h"
#include "attack/recovery_pipeline.h"
#include "sca/campaign.h"

namespace fd::attack {

// One "attack these components against this archive" request.
struct AttackRound {
  std::size_t round = 0;  // 0 = the attack stage; r >= 1 = re-measurement round r
  std::string archive;
  std::span<const std::size_t> components;
  // In-process checkpoint cadence: components per batch (0 = one batch)
  // and the persist / interrupt hooks around each batch. A fleet shards
  // and checkpoints per task instead and ignores both.
  std::size_t batch_size = 0;
  BatchHooks hooks;
};

class StageExecutor {
 public:
  virtual ~StageExecutor() = default;
  // Writes every shard file of `plan`, in any order; one result per
  // shard, in shard-index order (a failed shard reports ok == false).
  virtual std::vector<sca::ArchiveCampaignResult> capture(const sca::ShardPlan& plan) = 0;
  // Attacks round.components, recording each finished component into
  // `st` (done, results, accepted_traces) and the gate counts into
  // `quality`. Returns the components it gave up on (a fleet shard that
  // exhausted its retries); throws when the round cannot run at all.
  virtual std::vector<std::size_t> attack(const AttackRound& round, CheckpointState& st,
                                          QualityReport& quality) = 0;
};

// Runs the stage plan of `config` against `victim` through `executor`
// and fills `out` (stages, error and ok included; failures are
// collected, never thrown). `experiment` binds checkpoints to the run;
// `pool` (may be null) runs the job graph. `spawn`, when set, runs as a
// leading "spawn" stage (the fleet's worker start-up).
void run_stage_plan(const falcon::KeyPair& victim, const RecoveryPipelineConfig& config,
                    std::uint64_t experiment, StageExecutor& executor, exec::ThreadPool* pool,
                    RecoveryPipelineResult& out, const std::function<void()>& spawn = {});

}  // namespace fd::attack
