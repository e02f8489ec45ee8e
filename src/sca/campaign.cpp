#include "sca/campaign.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "exec/parallel_for.h"
#include "exec/seed_split.h"
#include "falcon/sign.h"
#include "fft/fft.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sca/capture.h"

namespace fd::sca {

namespace {

using fpr::Fpr;

// Per-campaign telemetry of the capture loop: query/record/retry
// counters, end-of-campaign throughput gauges, per-phase wall time, and
// the user-facing progress callback.
// The callback fires in every build; the metric calls compile to
// no-ops under FD_OBS=OFF.
class CampaignTelemetry {
 public:
  // Capture phases whose wall time accumulates over the campaign and is
  // reported once, on the sca.campaign event (never a span per query).
  enum Phase { kSign, kSynth, kWrite, kNumPhases };

  CampaignTelemetry(const CampaignConfig& config, std::string_view mode)
      : config_(config),
        mode_(mode),
        span_("sca.campaign"),
        queries_(obs::MetricsRegistry::global().counter("sca.campaign.queries")),
        records_(obs::MetricsRegistry::global().counter("sca.campaign.records")),
        retries_(obs::MetricsRegistry::global().counter("sca.campaign.sign_retries")) {}

  void on_query(const LastWindowRecorder& recorder, std::size_t done,
                std::size_t records_added) {
    queries_.add(1);
    records_.add(records_added);
    const std::size_t attempts = recorder.run_attempts();
    if (attempts > 1) retries_.add(attempts - 1);
    if (config_.progress_every != 0 && config_.progress &&
        (done % config_.progress_every == 0 || done == config_.num_traces)) {
      config_.progress(done, config_.num_traces);
    }
  }

  // Restarts the phase clock without charging anyone.
  void mark() { last_ = std::chrono::steady_clock::now(); }
  // Charges the time since the last mark()/charge() to `phase`.
  void charge(Phase phase) {
    const auto now = std::chrono::steady_clock::now();
    phase_us_[phase] += std::chrono::duration<double, std::micro>(now - last_).count();
    last_ = now;
  }

  void finish(std::size_t queries, std::size_t records) {
    const double us = span_.elapsed_us();
    if (us > 0.0) {
      auto& reg = obs::MetricsRegistry::global();
      reg.gauge("sca.campaign.queries_per_s").set(static_cast<double>(queries) * 1e6 / us);
      reg.gauge("sca.campaign.records_per_s").set(static_cast<double>(records) * 1e6 / us);
    }
    obs::event("sca.campaign")
        .with("mode", mode_)
        .with("queries", queries)
        .with("records", records)
        .with("wall_us", us)
        .with("sign_us", phase_us_[kSign])
        .with("synth_us", phase_us_[kSynth])
        .with("write_us", phase_us_[kWrite])
        .emit();
  }

 private:
  const CampaignConfig& config_;
  std::string_view mode_;
  obs::Span span_;
  obs::Counter& queries_;
  obs::Counter& records_;
  obs::Counter& retries_;
  std::chrono::steady_clock::time_point last_;
  double phase_us_[kNumPhases] = {};
};

// Adversary-side recomputation of FFT(c)[*] from public data.
std::vector<Fpr> known_fft_of_hash(const falcon::Signature& sig, std::string_view message,
                                   unsigned logn) {
  const auto c = falcon::hash_to_point(sig.salt, message, logn);
  std::vector<Fpr> cf(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) cf[i] = fpr::fpr_of(c[i]);
  fft::fft(cf, logn);
  return cf;
}

// The one capture loop (the paper's known-plaintext measurement): per
// query, sign a fresh message under the trigger-armed recorder, draw the
// fault plan on the campaign-global query index, recompute FFT(c) from
// the salt and the message, then synthesize each slot in
// [first_slot, end_slot), apply its in-band faults and hand it to
// `sink`. Every campaign runs this function, so the victim and device
// RNG streams and the per-query slot order are the same whatever the
// sink keeps -- the in-memory and archive campaigns are bit-exact twins
// by construction. A Sink provides
//   bool put(query, slot, Trace&&, known_re, known_im)
//   bool finish(probe)  // probe() synthesizes one more window
// and returns false (with its own error kept) to stop the campaign.
template <class Sink>
bool capture_windows(const falcon::SecretKey& sk, const CampaignConfig& config,
                     std::size_t first_slot, std::size_t end_slot, std::string_view mode,
                     Sink& sink) {
  const unsigned logn = sk.params.logn;
  const std::size_t hn = sk.params.n >> 1;

  ChaCha20Prng victim_rng(config.seed ^ 0x5167);
  EmDeviceModel device(config.device, config.seed ^ 0xD01CE);
  LastWindowRecorder recorder(hn, config.row);
  const SignerFn signer = config.signer ? config.signer : SignerFn(&falcon::sign);

  CampaignTelemetry telemetry(config, mode);
  const FaultPlan fplan(config.faults);
  std::size_t records = 0;
  for (std::size_t d = 0; d < config.num_traces; ++d) {
    const std::string message = "trace-" + std::to_string(d);
    recorder.start_run();
    falcon::Signature sig;
    telemetry.mark();
    {
      fpr::ScopedLeakageSink scope(&recorder);
      sig = signer(sk, message, victim_rng);
    }
    telemetry.charge(CampaignTelemetry::kSign);
    const std::uint64_t gq = config.fault_query_offset + d;
    const QueryFault qf = fplan.enabled() ? fplan.query_fault(gq) : QueryFault{};
    if (qf.drop) {
      // Missed trigger: the victim signed (its RNG stream advanced as
      // usual) but the scope captured nothing -- no windows, no FFT(c)
      // recomputation, the query index simply never appears.
      obs::MetricsRegistry::global().counter("sca.faults.dropped_queries").add(1);
      telemetry.on_query(recorder, d + 1, 0);
      continue;
    }
    if (qf.desync != 0) {
      obs::MetricsRegistry::global().counter("sca.faults.desynced_queries").add(1);
    }
    if (qf.saturate) {
      obs::MetricsRegistry::global().counter("sca.faults.saturated_queries").add(1);
    }
    const auto cf = known_fft_of_hash(sig, message, logn);
    telemetry.mark();
    for (std::size_t s = first_slot; s < end_slot; ++s) {
      Trace trace = device.synthesize(recorder.window(s));
      if (fplan.enabled()) apply_trace_faults(fplan, qf, gq, s, trace.samples);
      telemetry.charge(CampaignTelemetry::kSynth);
      if (!sink.put(d, s, std::move(trace), cf[s], cf[s + hn])) return false;
      telemetry.charge(CampaignTelemetry::kWrite);
    }
    records += end_slot - first_slot;
    telemetry.on_query(recorder, d + 1, end_slot - first_slot);
  }
  telemetry.mark();
  if (!sink.finish([&] { return device.synthesize(recorder.window(0)); })) return false;
  telemetry.charge(CampaignTelemetry::kWrite);
  telemetry.finish(config.num_traces, records);
  return true;
}

// Appends each window to its slot's TraceSet (sets[slot - first_slot]).
struct TraceSetSink {
  TraceSetSink(std::size_t first, std::size_t end, std::size_t traces)
      : first_slot(first), sets(end - first) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      sets[i].slot = first + i;
      sets[i].traces.reserve(traces);
    }
  }
  bool put(std::size_t, std::size_t slot, Trace&& trace, Fpr known_re, Fpr known_im) {
    sets[slot - first_slot].traces.push_back({std::move(trace), known_re, known_im});
    return true;
  }
  bool finish(auto&&) { return true; }

  std::size_t first_slot;
  std::vector<TraceSet> sets;
};

// Streams each window into an .fdtrace archive as one record. The first
// window fixes the archive's trace length and a later window of another
// length is rejected, never written ragged.
struct ArchiveSink {
  bool put(std::size_t query, std::size_t slot, Trace&& trace, Fpr known_re, Fpr known_im) {
    if (!writer.is_open() && !open(trace.samples.size())) return false;
    if (trace.samples.size() != writer.meta().samples_per_trace) {
      out.error = "signer produced a ragged window length at query " + std::to_string(query) +
                  ", slot " + std::to_string(slot);
      return false;
    }
    rec.slot = static_cast<std::uint32_t>(slot);
    rec.index = static_cast<std::uint32_t>(query);
    rec.known_re_bits = known_re.bits();
    rec.known_im_bits = known_im.bits();
    rec.samples = std::move(trace.samples);
    if (!writer.append(rec)) {
      out.error = writer.error();
      return false;
    }
    ++out.records;
    return true;
  }

  bool finish(auto&& probe) {
    if (!writer.is_open()) {
      if (config.num_traces == 0) {
        out.error = "archive campaign needs at least one query";
        return false;
      }
      // Every query dropped (possible for a small shard under a harsh
      // plan): emit a valid empty archive so sharded merges still work.
      // The recorder holds the last run's windows, which fixes the length.
      if (!open(probe().samples.size())) return false;
    }
    if (!writer.close()) {
      out.error = writer.error();
      return false;
    }
    return true;
  }

  bool open(std::size_t samples_per_trace) {
    tracestore::ArchiveMeta meta;
    meta.logn = sk.params.logn;
    meta.row = config.row;
    meta.num_slots = static_cast<std::uint32_t>(sk.params.n >> 1);
    meta.samples_per_trace = static_cast<std::uint32_t>(samples_per_trace);
    meta.traces_per_chunk = static_cast<std::uint32_t>(traces_per_chunk);
    meta.alpha = config.device.alpha;
    meta.noise_sigma = config.device.noise_sigma;
    meta.samples_per_event = config.device.samples_per_event;
    meta.jitter_max = config.device.jitter_max;
    if (config.device.constant_weight) meta.flags |= tracestore::kFlagConstantWeight;
    meta.seed = config.seed;
    if (writer.open(path, meta)) return true;
    out.error = writer.error();
    return false;
  }

  const falcon::SecretKey& sk;
  const CampaignConfig& config;
  const std::string& path;
  std::size_t traces_per_chunk;
  ArchiveCampaignResult& out;
  tracestore::ArchiveWriter writer{};
  tracestore::TraceRecord rec{};
};

}  // namespace

TraceSet run_signing_campaign(const falcon::SecretKey& sk, std::size_t slot,
                              const CampaignConfig& config) {
  TraceSetSink sink(slot, slot + 1, config.num_traces);
  capture_windows(sk, config, slot, slot + 1, "inmemory", sink);
  return std::move(sink.sets[0]);
}

std::vector<TraceSet> run_full_campaign(const falcon::SecretKey& sk,
                                        const CampaignConfig& config) {
  const std::size_t hn = sk.params.n >> 1;
  TraceSetSink sink(0, hn, config.num_traces);
  capture_windows(sk, config, 0, hn, "inmemory", sink);
  return std::move(sink.sets);
}

ArchiveCampaignResult run_campaign_to_archive(const falcon::SecretKey& sk,
                                              const CampaignConfig& config,
                                              const std::string& path,
                                              std::size_t traces_per_chunk) {
  ArchiveCampaignResult out;
  ArchiveSink sink{sk, config, path, traces_per_chunk, out};
  if (!capture_windows(sk, config, 0, sk.params.n >> 1, "archive", sink)) return out;
  out.queries = config.num_traces;
  if (config.faults.chunk_corrupt_rate > 0.0 &&
      !corrupt_archive_chunks(path, FaultPlan(config.faults), nullptr, &out.error)) {
    return out;
  }
  out.ok = true;
  return out;
}

CampaignConfig shard_campaign(const CampaignConfig& base, std::size_t traces,
                              std::uint64_t seed, std::size_t query_offset) {
  CampaignConfig shard = base;
  shard.num_traces = traces;
  shard.seed = seed;
  shard.fault_query_offset = query_offset;
  shard.faults.chunk_corrupt_rate = 0.0;
  return shard;
}

ShardPlan plan_shards(const ShardedCampaignConfig& config, const std::string& path) {
  ShardPlan plan;
  plan.start = std::chrono::steady_clock::now();
  plan.path = path;
  plan.faults = config.base.faults;
  plan.keep_shards = config.keep_shards;
  const auto ranges = exec::static_chunks(config.base.num_traces,
                                          std::max<std::size_t>(1, config.num_shards));
  // Campaign-global progress: shard-local callbacks report deltas into a
  // shared counter, and the user callback fires under a lock with the
  // aggregate count. Invocation order across shards is scheduler noise
  // (observability only -- captured data never depends on it).
  struct Progress {
    std::mutex mu;
    std::atomic<std::size_t> done{0};
  };
  auto progress = std::make_shared<Progress>();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    // Faults key on campaign-global query indices so the shard plan
    // never changes which queries fault.
    CampaignConfig shard = shard_campaign(config.base, ranges[i].size(),
                                          exec::split_seed(config.base.seed, i),
                                          config.base.fault_query_offset + ranges[i].begin);
    if (config.base.progress) {
      const std::size_t total = config.base.num_traces;
      auto last = std::make_shared<std::size_t>(0);
      const auto user = config.base.progress;
      shard.progress = [progress, last, total, user](std::size_t done, std::size_t) {
        const std::size_t global =
            progress->done.fetch_add(done - *last, std::memory_order_relaxed) +
            (done - *last);
        *last = done;
        std::lock_guard<std::mutex> lock(progress->mu);
        user(global, total);
      };
    }
    plan.shards.push_back(std::move(shard));
    plan.shard_paths.push_back(path + ".shard" + std::to_string(i));
  }
  return plan;
}

std::vector<ArchiveCampaignResult> run_shards(const falcon::SecretKey& sk, const ShardPlan& plan,
                                              exec::ThreadPool* pool,
                                              std::size_t traces_per_chunk) {
  std::vector<ArchiveCampaignResult> results(plan.shards.size());
  exec::parallel_for(pool, plan.shards.size(), [&](std::size_t i) {
    results[i] = run_campaign_to_archive(sk, plan.shards[i], plan.shard_paths[i],
                                         traces_per_chunk);
  });
  return results;
}

ShardedCampaignResult finalize_shards(const ShardPlan& plan,
                                      std::span<const ArchiveCampaignResult> shard_results) {
  ShardedCampaignResult out;
  out.shards = plan.shards.size();
  const std::vector<std::string>& shard_paths = plan.shard_paths;
  const auto cleanup = [&] {
    if (plan.keep_shards) return;
    for (const auto& p : shard_paths) std::remove(p.c_str());
  };
  for (std::size_t i = 0; i < shard_results.size(); ++i) {
    if (!shard_results[i].ok) {
      out.error = "shard " + std::to_string(i) + ": " + shard_results[i].error;
      cleanup();
      return out;
    }
    out.queries += shard_results[i].queries;
    out.records += shard_results[i].records;
  }

  // Several shards merge in shard-index order -- the deterministic
  // reduction. A single fresh shard is clean and writer-chunked, so its
  // merge would only set kFlagMerged: patch the flag and rename the file
  // into place (copy it when the shard is kept) -- the same bytes.
  const bool single = shard_paths.size() == 1;
  const auto finalize_start = std::chrono::steady_clock::now();
  std::string finalize_error;
  const bool finalized =
      single ? tracestore::promote_shard(shard_paths[0], plan.path, plan.keep_shards,
                                         &finalize_error)
             : tracestore::merge_archives(shard_paths, plan.path, &finalize_error);
  const auto finalize_end = std::chrono::steady_clock::now();
  cleanup();
  if (!finalized) {
    out.error = (single ? "finalize: " : "merge: ") + finalize_error;
    return out;
  }
  // Chunk damage applies to the finalized file: its chunk ordinals are
  // the experiment-visible ones (a pure function of key/config/shards),
  // so the damaged byte set is deterministic too.
  if (plan.faults.chunk_corrupt_rate > 0.0) {
    std::string cerr;
    if (!corrupt_archive_chunks(plan.path, FaultPlan(plan.faults), nullptr, &cerr)) {
      out.error = cerr;
      return out;
    }
  }
  if (plan.keep_shards) out.shard_paths = shard_paths;
  const auto us = [](auto d) { return std::chrono::duration<double, std::micro>(d).count(); };
  obs::event("sca.campaign.sharded")
      .with("shards", out.shards)
      .with("queries", out.queries)
      .with("records", out.records)
      .with("finalize", single ? "rename" : "merge")
      .with("finalize_us", us(finalize_end - finalize_start))
      .with("wall_us", us(std::chrono::steady_clock::now() - plan.start))
      .emit();
  out.ok = true;
  return out;
}

ShardedCampaignResult run_campaign_sharded(const falcon::SecretKey& sk,
                                           const ShardedCampaignConfig& config,
                                           const std::string& path, exec::ThreadPool* pool,
                                           std::size_t traces_per_chunk) {
  obs::Span span("sca.campaign.sharded");
  const ShardPlan plan = plan_shards(config, path);
  return finalize_shards(plan, run_shards(sk, plan, pool, traces_per_chunk));
}

bool load_trace_sets_for(tracestore::ArchiveReader& reader,
                         std::span<const std::size_t> slots, std::vector<TraceSet>& out) {
  if (!reader.is_open()) return false;
  const std::size_t hn = reader.meta().num_slots;
  constexpr std::size_t kUnrouted = static_cast<std::size_t>(-1);
  std::vector<std::size_t> route(hn, kUnrouted);  // slot -> out index
  out.assign(slots.size(), TraceSet{});
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::size_t s = slots[i];
    if (s >= hn || route[s] != kUnrouted) return false;  // out of range / duplicate
    route[s] = i;
    out[i].slot = s;
  }
  reader.rewind();
  tracestore::TraceRecord rec;
  while (reader.next(rec)) {
    if (rec.slot >= hn || route[rec.slot] == kUnrouted) continue;
    CapturedTrace ct;
    ct.trace.samples = std::move(rec.samples);
    ct.known_re = Fpr::from_bits(rec.known_re_bits);
    ct.known_im = Fpr::from_bits(rec.known_im_bits);
    out[route[rec.slot]].traces.push_back(std::move(ct));
  }
  return true;
}

}  // namespace fd::sca
