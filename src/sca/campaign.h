#pragma once
// Measurement campaigns: run the victim signer under the capture rig and
// produce aligned, per-coefficient trace sets together with the
// adversary's known inputs.
//
// The known-plaintext model of the paper: the adversary sees each output
// signature (salt r, s) and the EM emission of the signing run. From
// (r, message) it recomputes c = HashToPoint(r||m) and FFT(c) with the
// public code, so for every captured window it knows the exact 64-bit
// operand that was multiplied with the secret FFT(f) coefficient.
//
// The three campaign entry points below -- one slot in memory, every
// slot in memory, every slot to an archive -- run one and the same
// per-query capture loop and differ only in which slots they keep and
// where the windows go. All three apply `faults`, call `progress` and
// emit the sca.campaign telemetry.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "falcon/keys.h"
#include "falcon/sign.h"
#include "fpr/fpr.h"
#include "sca/device.h"
#include "sca/faults.h"
#include "tracestore/archive.h"

namespace fd::sca {

// The victim operation driven by a campaign; defaults to falcon::sign.
// Countermeasure studies substitute falcon::sign_masked here.
using SignerFn = std::function<falcon::Signature(const falcon::SecretKey&, std::string_view,
                                                 RandomSource&)>;

struct CapturedTrace {
  Trace trace;
  fpr::Fpr known_re;  // Re FFT(c)[slot], recomputed by the adversary
  fpr::Fpr known_im;  // Im FFT(c)[slot]
};

struct TraceSet {
  std::size_t slot = 0;  // complex slot index in [0, n/2)
  std::vector<CapturedTrace> traces;
};

struct CampaignConfig {
  std::size_t num_traces = 1000;
  DeviceConfig device;
  std::uint64_t seed = 1;  // drives victim randomness and device noise
  SignerFn signer;         // empty -> falcon::sign
  // Which basis-row multiplication to capture: each signing run triggers
  // every slot once per row, f-row (t1, FFT(-f)) first then F-row (t0,
  // FFT(-F)). 0 captures the f-row windows, 1 the F-row windows.
  unsigned row = 0;
  // Observability hook (no effect on captured data): when
  // `progress_every` > 0 and `progress` is set, the callback fires
  // after every that many signing queries, and once more at
  // completion. Campaigns also feed the global obs::MetricsRegistry
  // (sca.campaign.* counters/gauges) and the span histograms.
  std::function<void(std::size_t done, std::size_t total)> progress;
  std::size_t progress_every = 0;
  // Deterministic rig-failure injection (sca/faults.h). The all-zero
  // default is the pristine rig: capture behaves bit-identically to a
  // build without the fault layer. Every campaign applies the in-band
  // modes (drop/desync/saturate/glitch); the archive path also applies
  // chunk damage post-write. capture_fail_rate is the *caller's* retry
  // surface (recovery pipeline), never acted on here.
  FaultConfig faults;
  // Campaign-global index of this run's first query: sharded capture
  // sets it to the shard's range start so the fault plan keys on global
  // query indices and the shard decomposition never changes which
  // queries fault.
  std::size_t fault_query_offset = 0;
};

// Captures the FFT(c) (.) FFT(-f) window of one complex slot over
// `num_traces` signing queries on distinct messages. Only that slot's
// window is synthesized per query, so its samples differ from slot
// `slot` of run_full_campaign (the device noise stream is drawn per
// window) while the kept queries and known operands are the same.
[[nodiscard]] TraceSet run_signing_campaign(const falcon::SecretKey& sk, std::size_t slot,
                                            const CampaignConfig& config);

// Captures every slot's window in each signing run (one signature feeds
// all n/2 per-coefficient trace sets). Memory is O(num_traces * n * 40).
[[nodiscard]] std::vector<TraceSet> run_full_campaign(const falcon::SecretKey& sk,
                                                      const CampaignConfig& config);

// --- persistent capture (capture once, attack many) -----------------------
//
// The archive mode is the bit-exact twin of run_full_campaign by
// construction: both run the same capture loop (same victim/device RNG
// streams, same per-query slot order, same faults), but every
// (query, slot) window goes straight to disk as a tracestore record, so
// capture memory is O(n) per query regardless of num_traces. Shards
// captured under different seeds merge with tracestore::merge_archives.

struct ArchiveCampaignResult {
  std::size_t queries = 0;  // signing runs captured
  std::size_t records = 0;  // (query, slot) windows written
  bool ok = false;
  std::string error;
};
// Runs the campaign and streams it into `path` (.fdtrace). The trace
// length is taken from the first captured window; a signer whose window
// length varies across queries is rejected rather than written ragged.
[[nodiscard]] ArchiveCampaignResult run_campaign_to_archive(
    const falcon::SecretKey& sk, const CampaignConfig& config, const std::string& path,
    std::size_t traces_per_chunk = tracestore::kDefaultTracesPerChunk);

// --- sharded capture (src/exec) -------------------------------------------
//
// Parallel capture with a deterministic contract: the campaign's
// `num_traces` queries are cut into `num_shards` contiguous ranges, and
// shard i runs `run_campaign_to_archive` under the derived seed
// exec::split_seed(config.seed, i) -- an independent victim/device
// randomness stream per shard, fixed by (seed, shard index) alone.
// Shards execute in any order -- on a pool (run_shards) or in fleet
// workers -- and finalize_shards reduces them in shard-index order, so
// the archive's bytes are a pure function of (key, config, num_shards)
// at ANY worker count. tests/test_exec.cpp pins this byte-for-byte at
// 1, 2, and 7 workers, tests/test_fleet.cpp across worker processes.
//
// Note the shard count, not the worker count, is part of the
// experiment's identity: resizing the pool never changes the data,
// changing num_shards deliberately does (different RNG streams).

struct ShardedCampaignConfig {
  CampaignConfig base;          // base.seed is the root seed of the shard tree
  std::size_t num_shards = 1;   // fixed shard plan (capped at base.num_traces)
  bool keep_shards = false;     // leave <path>.shard<i> files behind after the merge
};

struct ShardedCampaignResult {
  std::size_t queries = 0;   // signing runs captured across all shards
  std::size_t records = 0;   // (query, slot) windows written
  std::size_t shards = 0;
  std::vector<std::string> shard_paths;  // populated when keep_shards
  bool ok = false;
  std::string error;
};

// One shard's campaign: `base` narrowed to `traces` queries under
// `seed`, faults keyed from global query `query_offset`, chunk damage
// deferred to the finalized archive. plan_shards and fleet workers
// both build shards with it.
[[nodiscard]] CampaignConfig shard_campaign(const CampaignConfig& base, std::size_t traces,
                                            std::uint64_t seed, std::size_t query_offset);

struct ShardPlan {
  std::vector<CampaignConfig> shards;    // in shard-index order
  std::vector<std::string> shard_paths;  // shard i writes <path>.shard<i>
  std::string path;                      // the archive finalize_shards writes
  FaultConfig faults;                    // finalize applies its chunk damage
  bool keep_shards = false;
  std::chrono::steady_clock::time_point start;  // the finalize event's wall_us counts from here
};

// Cuts `config` into its shards. Progress callbacks of `config.base`
// are wrapped so they fire with campaign-global query counts (from
// worker threads under a pool; the callback must be thread-safe).
[[nodiscard]] ShardPlan plan_shards(const ShardedCampaignConfig& config, const std::string& path);

// Writes every shard of `plan` on `pool` (null -> serial, same files);
// one result per shard, in shard-index order.
[[nodiscard]] std::vector<ArchiveCampaignResult> run_shards(
    const falcon::SecretKey& sk, const ShardPlan& plan, exec::ThreadPool* pool,
    std::size_t traces_per_chunk = tracestore::kDefaultTracesPerChunk);

// Turns the written shard files into plan.path -- one shard is promoted
// by rename (copied under keep_shards), several merge in shard-index
// order -- then applies the plan's chunk damage and emits
// `sca.campaign.sharded`. Shard files go unless keep_shards.
[[nodiscard]] ShardedCampaignResult finalize_shards(
    const ShardPlan& plan, std::span<const ArchiveCampaignResult> shard_results);

// plan_shards + run_shards + finalize_shards: the whole sharded
// campaign in this process, on `pool` (null -> serial, same archive).
[[nodiscard]] ShardedCampaignResult run_campaign_sharded(
    const falcon::SecretKey& sk, const ShardedCampaignConfig& config, const std::string& path,
    exec::ThreadPool* pool, std::size_t traces_per_chunk = tracestore::kDefaultTracesPerChunk);

// Adversary-side reload: ONE rewind+scan of the archive fills out[i]
// with slot slots[i]'s records, in archive order -- the in-memory
// TraceSet run_full_campaign would have returned for that slot. Slots
// must be unique and in range. Memory is O(records of the requested
// slots).
[[nodiscard]] bool load_trace_sets_for(tracestore::ArchiveReader& reader,
                                       std::span<const std::size_t> slots,
                                       std::vector<TraceSet>& out);

}  // namespace fd::sca
