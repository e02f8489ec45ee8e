// Key-recovery benchmark program (see krbench/README.md).
//
//   kr_bench --workload NAME --seed N --seconds S --trace 0|1
//            [--shape full|tiny] [--work-dir DIR] [--commit ID]
//            [--src-digest HEX] [--corrupt-rep K]
//   kr_bench --worker   (fleet worker entry, exec'd by the coordinator)
//
// Each workload is a closed loop: one caller runs one key recovery at a
// time. Set-up (keygen, the shared pool, a stored archive, then one
// warm-up recovery on that fresh state) is repeated; then recoveries run
// for S seconds. With --trace 0 they go through the production entry points
// untouched and the last stdout line carries the end-to-end metrics.
// With --trace 1 half the time runs those untraced recoveries and half
// runs traced ones, which call the same layer functions in pipeline
// order with each call wrapped in a span kept in memory; the last line
// then carries the per-layer metrics, and the spans are written to
// <work-dir>/spans-<workload>-seed<N>.jsonl.
//
// Every recovery is checked: f exact, forgery verified, the expected
// record count, per-component bits identical to the first warm-up's (so
// a traced recovery must match the untraced one), and, traced, the
// captured archive byte-identical to the untraced pipeline's and the
// re-merged archive byte-identical to the production one. Any failed
// check prints "correct": false and exits 1. --corrupt-rep K flips one
// bit of recovery K's result (0 is the first warm-up), which the checks
// must catch.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "attack/cpa_kernel.h"
#include "attack/key_recovery.h"
#include "attack/parallel_attack.h"
#include "attack/quality.h"
#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "exec/parallel_for.h"
#include "exec/seed_split.h"
#include "exec/thread_pool.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "fleet/worker.h"
#include "obs/sink.h"
#include "sca/campaign.h"
#include "sca/faults.h"
#include "tracestore/archive.h"

namespace fs = std::filesystem;
using namespace fd;

namespace {

// --- clocks and host counters ---------------------------------------------

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Usage {
  double cpu_s = 0.0;       // user + sys
  double maxrss_mb = 0.0;   // peak resident set (largest child for CHILDREN)
};

Usage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), static_cast<double>(ru.ru_maxrss) / 1024.0};
}

// User+sys CPU of this process and of its reaped children (fleet workers).
double process_cpu_s() { return usage(RUSAGE_SELF).cpu_s + usage(RUSAGE_CHILDREN).cpu_s; }

// Aggregate "cpu" line of /proc/stat, in jiffies.
struct HostStat {
  double total = 0.0, idle = 0.0, steal = 0.0;

  static HostStat read() {
    HostStat s;
    std::ifstream in("/proc/stat");
    std::string cpu;
    double v[8] = {};  // user nice system idle iowait irq softirq steal
    if (in >> cpu && cpu == "cpu") {
      for (double& x : v) in >> x;
    }
    for (const double x : v) s.total += x;
    s.idle = v[3] + v[4];
    s.steal = v[7];
    return s;
  }
};

struct HostDelta {
  double idle_ratio = 0.0, steal_ratio = 0.0;
};

HostDelta host_delta(const HostStat& a, const HostStat& b) {
  const double total = b.total - a.total;
  if (total <= 0.0) return {};
  return {(b.idle - a.idle) / total, (b.steal - a.steal) / total};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

bool files_equal(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  const std::string sa((std::istreambuf_iterator<char>(fa)), std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(fb)), std::istreambuf_iterator<char>());
  return sa == sb;
}

// --- spans -----------------------------------------------------------------
//
// Recorded by the benchmark around its own calls into each layer. Kept
// in memory; written out once the measurement is over.

struct SpanRec {
  std::string name;
  std::uint64_t id = 0, parent = 0;  // parent 0 = top level
  std::size_t recovery = 0;
  long tid = 0;
  double start_s = 0.0, end_s = 0.0;
  double thread_cpu_s = 0.0;  // CLOCK_THREAD_CPUTIME_ID delta on the calling thread
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t parent) : t_(t) {
      rec_.name = std::move(name);
      rec_.id = t.next_id_.fetch_add(1, std::memory_order_relaxed);
      rec_.parent = parent;
      rec_.recovery = t.recovery_;
      rec_.tid = static_cast<long>(::gettid());
      cpu0_ = thread_cpu_s();
      rec_.start_s = now_s();
    }
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const { return rec_.id; }
    // Ends the span (idempotent) and returns its wall time in ms.
    double close() {
      if (!open_) return ms();
      open_ = false;
      rec_.end_s = now_s();
      rec_.thread_cpu_s = thread_cpu_s() - cpu0_;
      std::lock_guard<std::mutex> lock(t_.mu_);
      t_.spans_.push_back(rec_);
      return ms();
    }
    [[nodiscard]] double ms() const { return (rec_.end_s - rec_.start_s) * 1e3; }
    [[nodiscard]] double cpu_ms() const { return rec_.thread_cpu_s * 1e3; }

   private:
    Tracer& t_;
    SpanRec rec_;
    double cpu0_ = 0.0;
    bool open_ = true;
  };

  void set_recovery(std::size_t r) { recovery_ = r; }
  [[nodiscard]] std::vector<SpanRec> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  std::atomic<std::uint64_t> next_id_{1};
  std::size_t recovery_ = 0;  // set between recoveries, read by Scope
};

// Sum of the top-level children's walls over the root's wall: how much
// of one recovery's blocking path the named layer spans cover.
double span_coverage(const std::vector<SpanRec>& spans, std::uint64_t root) {
  double root_s = 0.0, children_s = 0.0;
  for (const auto& s : spans) {
    if (s.id == root) root_s = s.end_s - s.start_s;
    if (s.parent == root) children_s += s.end_s - s.start_s;
  }
  return root_s > 0.0 ? children_s / root_s : 0.0;
}

// --- workloads ---------------------------------------------------------------

enum class Kind { kPipeline, kRescan, kFleet };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t threads;  // pool size (per worker for the fleet)
  std::size_t shards;   // capture shards
  const char* faults;   // in-band fault plan; "" = pristine rig
  unsigned jitter_max;
  bool gate;            // quality gate in front of the scan
};

constexpr Workload kWorkloads[] = {
    {"recover-serial", Kind::kPipeline, 1, 1, "", 0, false},
    {"recover-parallel", Kind::kPipeline, 4, 1, "", 0, false},
    {"rescan-gated", Kind::kRescan, 4, 1, "desync=0.05,sat=0.02,glitch=0.01", 4, true},
    {"fleet-pipe", Kind::kFleet, 2, 4, "", 0, false},
};
constexpr std::size_t kSetups = 3;  // set-up repetitions; setup_s is their median
constexpr std::size_t kFleetWorkers = 2;
constexpr std::size_t kFleetComponentsPerShard = 8;

struct Shape {
  unsigned logn;
  std::size_t traces;
  double sigma;
};
constexpr Shape kFullShape{6, 2000, 2.0};
constexpr Shape kTinyShape{3, 500, 2.0};  // smoke tests only

// Seed 0 is fd-attack's own victim and campaign; any other seed derives
// both from it.
std::string victim_seed_for(std::uint64_t seed) {
  return seed == 0 ? "victim key seed" : "victim key seed #" + std::to_string(seed);
}
std::uint64_t campaign_seed_for(std::uint64_t seed) {
  return seed == 0 ? 0xDE40 : exec::split_seed(0xDE40, seed);
}

struct Experiment {
  const Workload* w = nullptr;
  Shape shape{};
  std::string victim_seed;
  std::uint64_t campaign_seed = 0;
  falcon::KeyPair victim;
  sca::FaultConfig faults;
  std::string dir;       // per-run scratch for archives
  std::string reference_archive;  // the first untraced pipeline recovery's archive
  std::string self_exe;  // fleet worker binary (this one, --worker)

  [[nodiscard]] std::size_t n() const { return victim.sk.params.n; }
  [[nodiscard]] std::size_t expected_records() const { return shape.traces * n() / 2; }

  [[nodiscard]] attack::RecoveryPipelineConfig pipeline(const std::string& archive) const {
    attack::RecoveryPipelineConfig cfg;
    cfg.attack.num_traces = shape.traces;
    cfg.attack.device.noise_sigma = shape.sigma;
    cfg.attack.device.jitter_max = w->jitter_max;
    cfg.attack.seed = campaign_seed;
    cfg.attack.threads = w->threads;
    cfg.capture_shards = w->shards;
    cfg.archive_path = archive;
    cfg.faults = faults;
    cfg.quality.enabled = w->gate;
    return cfg;
  }

  // The sharded capture run_recovery_pipeline performs in round 0.
  [[nodiscard]] sca::ShardedCampaignConfig campaign() const {
    const auto cfg = pipeline("");
    sca::ShardedCampaignConfig camp;
    camp.base.num_traces = shape.traces;
    camp.base.device = cfg.attack.device;
    camp.base.seed = campaign_seed;
    camp.base.faults = faults;
    camp.num_shards = w->shards;
    return camp;
  }

  [[nodiscard]] attack::ComponentConfigFn config_for(exec::ThreadPool* pool) const {
    const auto atk = pipeline("").attack;
    return [this, atk, pool](const attack::ComponentIndex& ci) {
      auto cac = attack::component_attack_config(victim.sk, atk, 0, ci.slot, ci.imag);
      cac.scan_pool = pool;
      return cac;
    };
  }

  [[nodiscard]] fleet::FleetConfig fleet_config(const std::string& archive) const {
    fleet::FleetConfig fc;
    fc.pipeline = pipeline(archive);
    fc.logn = shape.logn;
    fc.victim_seed = victim_seed;
    fc.workers = kFleetWorkers;
    fc.components_per_shard = kFleetComponentsPerShard;
    fc.worker_binary = self_exe;
    return fc;
  }
};

// --- one recovery ----------------------------------------------------------

struct Outcome {
  std::string error;                // empty = the call succeeded
  std::vector<std::uint64_t> bits;  // per-component bits before alias repair
  std::vector<std::int32_t> f;      // recovered f
  bool verified = false;            // forged signature accepted by pk
  std::size_t records = 0;          // records in the attacked archive
  // Traced: the root span's wall and process CPU, side measurements excluded.
  double recovery_s = -1.0;
  double recovery_cpu_s = 0.0;
};

bool sign_verify(const falcon::SecretKey& forged, const falcon::PublicKey& pk,
                 std::uint64_t seed) {
  // The message and signer RNG of run_recovery_pipeline's forge stage.
  static constexpr std::string_view kMsg = "forged by the falcon-down adversary";
  ChaCha20Prng rng(seed ^ 0xF04C3);
  const auto sig = falcon::sign(forged, kMsg, rng);
  return falcon::verify(pk, kMsg, sig);
}

// Picks the pipeline's per-component results out of its "ep.component"
// events: run_recovery_pipeline reports only the assembled key.
class ComponentBitsSink final : public obs::TelemetrySink {
 public:
  explicit ComponentBitsSink(std::size_t n) : bits_(n, 0), seen_(n, 0) {}
  void record(const obs::Event& ev) override {
    if (ev.name != "ep.component") return;
    const obs::FieldValue* label = ev.find("label");
    const obs::FieldValue* bits = ev.find("bits");
    if (label == nullptr || bits == nullptr) return;
    std::size_t slot = 0;
    char part[4] = {};
    if (std::sscanf(label->s.c_str(), "slot%zu.%2s", &slot, part) != 2) return;
    const std::size_t idx = slot + (std::string_view(part) == "im" ? bits_.size() / 2 : 0);
    std::lock_guard<std::mutex> lock(mu_);
    if (idx < bits_.size()) {
      bits_[idx] = bits->u;
      seen_[idx] = 1;
    }
  }
  [[nodiscard]] bool complete() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::all_of(seen_.begin(), seen_.end(), [](char c) { return c != 0; });
  }
  [[nodiscard]] std::vector<std::uint64_t> bits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bits_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> bits_;  // guarded by mu_
  std::vector<char> seen_;           // guarded by mu_
};

// A stored campaign archive (rescan-gated captures it in set-up).
struct StoredArchive {
  std::string path;
  std::vector<std::string> shards;  // kept shard files, for the re-merge check
  std::size_t records = 0;
};

// recover-*: the production pipeline, untouched.
Outcome pipeline_recovery(const Experiment& ex, const std::string& archive, bool keep_archive) {
  Outcome out;
  ComponentBitsSink sink(ex.n());
  obs::ScopedTelemetrySink scoped(&sink);
  auto cfg = ex.pipeline(archive);
  cfg.keep_archive = keep_archive;
  const auto res = attack::run_recovery_pipeline(ex.victim, cfg);
  out.error = res.error;
  if (res.ok && !sink.complete()) out.error = "pipeline reported no per-component results";
  out.bits = sink.bits();
  out.f = res.recovery.recovered_f;
  out.verified = res.recovery.forgery_verified;
  out.records = res.captured_records;
  return out;
}

// rescan-gated: attack the stored archive again.
Outcome rescan_recovery(const Experiment& ex, exec::ThreadPool* pool,
                        const StoredArchive& stored) {
  Outcome out;
  std::vector<std::size_t> ids(ex.n());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<attack::ComponentResult> results;
  std::vector<std::size_t> accepted;
  attack::QualityReport quality;
  const auto cfg = ex.pipeline(stored.path);
  if (!attack::attack_components_gated(stored.path, cfg.quality, ex.config_for(pool), pool, ids,
                                       results, accepted, &quality, &out.error)) {
    return out;
  }
  for (const auto& r : results) out.bits.push_back(r.bits);
  out.f = attack::assemble_row(results, ex.shape.logn, 0).poly;
  if (const auto forged = attack::forge_key(out.f, ex.victim.pk)) {
    out.verified = sign_verify(*forged, ex.victim.pk, ex.campaign_seed);
  }
  out.records = stored.records;
  return out;
}

struct FleetStats {
  double wall_ms = 0.0, capture_ms = 0.0, attack_ms = 0.0, staged_ms = 0.0;
  std::size_t deaths = 0, reassignments = 0;
};

// fleet-pipe: the multi-process coordinator.
Outcome fleet_recovery(const Experiment& ex, const std::string& archive, bool keep_archive,
                       FleetStats* stats) {
  Outcome out;
  auto fc = ex.fleet_config(archive);
  fc.pipeline.keep_archive = keep_archive;
  const double t0 = now_s();
  const auto res = fleet::run_fleet(fc);
  out.error = res.error;
  for (const auto& r : res.results) out.bits.push_back(r.bits);
  out.f = res.recovery.recovered_f;
  out.verified = res.recovery.forgery_verified;
  out.records = res.captured_records;
  if (stats != nullptr) {
    stats->wall_ms = (now_s() - t0) * 1e3;
    for (const auto& st : res.stages) {
      stats->staged_ms += st.wall_ms;
      if (st.name == "capture") stats->capture_ms = st.wall_ms;
      if (st.name == "attack") stats->attack_ms = st.wall_ms;
    }
    stats->deaths = res.worker_deaths;
    stats->reassignments = res.reassignments;
  }
  return out;
}

using LayerValues = std::map<std::string, double>;

// Side measurements on a finished archive, outside the recovery's wall:
// one full reader pass, and a re-merge of the kept shard files that
// must reproduce the production archive byte for byte.
void measure_archive(Tracer& tr, const std::string& archive,
                     const std::vector<std::string>& shards, LayerValues& lv, Outcome& out) {
  const double mb = static_cast<double>(fs::file_size(archive)) / 1e6;
  lv["tracestore.archive_mb"] = mb;
  {
    Tracer::Scope s(tr, "tracestore.read_pass", 0);
    tracestore::ArchiveReader reader;
    tracestore::TraceRecord rec;
    std::size_t count = 0;
    if (reader.open(archive)) {
      while (reader.next(rec)) ++count;
    }
    const double ms = s.close();
    lv["tracestore.read_mbps"] = ms > 0.0 ? mb / (ms / 1e3) : 0.0;
    if (count != out.records && out.error.empty()) out.error = "reader pass count differs";
  }
  const std::string remerged = archive + ".remerge";
  Tracer::Scope s(tr, "tracestore.merge", 0);
  std::string err;
  const bool merged = tracestore::merge_archives(shards, remerged, &err);
  lv["tracestore.merge_ms"] = s.close();
  if (out.error.empty() && (!merged || !files_equal(remerged, archive))) {
    out.error = "re-merged archive differs from the production archive" +
                (err.empty() ? std::string() : ": " + err);
  }
  std::remove(remerged.c_str());
}

// The single-process recovery decomposed into its layer calls, in the
// order run_recovery_pipeline / attack_components_gated make them.
Outcome traced_single(const Experiment& ex, Tracer& tr, exec::ThreadPool* shared_pool,
                      const StoredArchive* stored, LayerValues& lv) {
  Outcome out;
  const std::size_t n = ex.n(), hn = n / 2;
  const bool capture = ex.w->kind == Kind::kPipeline;
  const double cpu0 = process_cpu_s();
  Tracer::Scope root(tr, "recovery", 0);

  std::unique_ptr<exec::ThreadPool> own_pool;
  exec::ThreadPool* pool = shared_pool;
  if (capture && ex.w->threads > 1) {
    Tracer::Scope s(tr, "exec.pool_start", root.id());
    own_pool = std::make_unique<exec::ThreadPool>(ex.w->threads);
    pool = own_pool.get();
  }

  std::string archive;
  std::vector<std::string> shards;
  if (capture) {
    archive = ex.dir + "/traced.fdtrace";
    auto camp = ex.campaign();
    camp.keep_shards = true;
    Tracer::Scope s(tr, "sca.capture", root.id());
    const double capture_cpu0 = usage(RUSAGE_SELF).cpu_s;
    const auto res = sca::run_campaign_sharded(ex.victim.sk, camp, archive, pool);
    lv["sca.capture_ms"] = s.close();
    lv["sca.capture_cpu_ms"] = (usage(RUSAGE_SELF).cpu_s - capture_cpu0) * 1e3;
    if (!res.ok) {
      out.error = "capture: " + res.error;
      return out;
    }
    out.records = res.records;
    shards = res.shard_paths;
  } else {
    archive = stored->path;
    shards = stored->shards;
    out.records = stored->records;
    lv["sca.capture_ms"] = 0.0;
    lv["sca.capture_cpu_ms"] = 0.0;
  }
  lv["sca.records"] = static_cast<double>(out.records);

  std::vector<sca::TraceSet> sets;
  unsigned jitter_max = 0;
  {
    Tracer::Scope s(tr, "tracestore.demux", root.id());
    tracestore::ArchiveReader reader;
    std::vector<std::size_t> slots(hn);
    std::iota(slots.begin(), slots.end(), 0);
    if (!reader.open(archive) || !sca::load_trace_sets_for(reader, slots, sets)) {
      out.error = "demux failed: " + reader.error();
      return out;
    }
    jitter_max = reader.meta().jitter_max;
    lv["tracestore.demux_ms"] = s.close();
  }

  struct Task {
    attack::ComponentResult result;
    attack::QualityReport quality;
    double screen_ms = 0, dataset_ms = 0, scan_ms = 0, scan_cpu_ms = 0;
    double task_ms = 0, task_cpu_ms = 0;
    std::size_t candidates = 0, traces = 0;
    long tid = 0;
    std::string error;
  };
  std::vector<Task> tasks(n);
  const auto cfg = ex.pipeline(archive);
  const auto config_for = ex.config_for(pool);
  double attack_ms = 0.0;
  {
    Tracer::Scope s(tr, "attack.components", root.id());
    const std::uint64_t parent = s.id();
    exec::parallel_for_chunks(pool, n, n, [&](exec::ChunkRange r, std::size_t) {
      for (std::size_t idx = r.begin; idx < r.end; ++idx) {
        Task& t = tasks[idx];
        Tracer::Scope task(tr, "attack.task", parent);
        const auto ci = attack::component_index(idx, hn);
        sca::TraceSet set = sets[ci.slot];  // private copy, as the gated path takes
        {
          Tracer::Scope q(tr, "quality.screen", task.id());
          t.quality = attack::screen_trace_set(set, cfg.quality, jitter_max);
          t.screen_ms = q.close();
        }
        if (set.traces.empty()) {
          t.error = "no accepted traces for slot " + std::to_string(ci.slot);
          continue;
        }
        attack::ComponentDataset ds;
        {
          Tracer::Scope d(tr, "scan.dataset", task.id());
          ds = attack::build_component_dataset(set, ci.imag);
          t.dataset_ms = d.close();
        }
        {
          Tracer::Scope c(tr, "scan.component", task.id());
          const auto cac = config_for(ci);
          // Candidate sets of the sign, exponent, and mantissa phases.
          t.candidates = 2 + (cac.exp_max - cac.exp_min + 1) + cac.low_candidates.size() +
                         cac.high_candidates.size();
          t.traces = set.traces.size();
          t.result = attack::attack_component(ds, cac);
          t.scan_ms = c.close();
          t.scan_cpu_ms = c.cpu_ms();
        }
        t.task_ms = task.close();
        t.task_cpu_ms = task.cpu_ms();
        t.tid = static_cast<long>(::gettid());
      }
    });
    attack_ms = s.close();
  }
  std::vector<attack::ComponentResult> results;
  for (const auto& t : tasks) {
    if (!t.error.empty() && out.error.empty()) out.error = t.error;
    results.push_back(t.result);
    out.bits.push_back(t.result.bits);
  }
  if (!out.error.empty()) return out;

  attack::RowAssembly assembled;
  {
    Tracer::Scope s(tr, "attack.assemble", root.id());
    assembled = attack::assemble_row(results, ex.shape.logn, 0);
    lv["attack.assemble_ms"] = s.close();
  }
  out.f = assembled.poly;
  std::optional<falcon::SecretKey> forged;
  {
    Tracer::Scope s(tr, "attack.forge", root.id());
    forged = attack::forge_key(out.f, ex.victim.pk);
    lv["attack.forge_ms"] = s.close();
  }
  {
    Tracer::Scope s(tr, "attack.sign_verify", root.id());
    out.verified = forged && sign_verify(*forged, ex.victim.pk, ex.campaign_seed);
    lv["attack.sign_verify_ms"] = s.close();
  }
  own_pool.reset();
  out.recovery_s = root.close() / 1e3;
  out.recovery_cpu_s = process_cpu_s() - cpu0;

  // The traced capture must be the pipeline's own, byte for byte.
  if (capture && !files_equal(archive, ex.reference_archive)) {
    out.error = "traced capture differs from the untraced pipeline's archive";
  }

  // Per-layer values of this recovery.
  std::vector<double> screen, scan;
  double dataset = 0, scan_cpu = 0, task_ms = 0, task_cpu = 0, candidates = 0,
         guess_traces = 0;
  attack::QualityReport quality;
  std::set<long> tids;
  std::size_t top1 = 0, correct = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const Task& t = tasks[idx];
    screen.push_back(t.screen_ms);
    scan.push_back(t.scan_ms);
    dataset += t.dataset_ms;
    scan_cpu += t.scan_cpu_ms;
    task_ms += t.task_ms;
    task_cpu += t.task_cpu_ms;
    candidates += static_cast<double>(t.candidates);
    guess_traces += static_cast<double>(t.candidates * t.traces);
    quality.add(t.quality);
    tids.insert(t.tid);
    top1 += t.result.bits == ex.victim.sk.b01[idx].bits();
    correct += assembled.recovered[idx].bits() == ex.victim.sk.b01[idx].bits();
  }
  lv["quality.screen_ms"] = sum(screen);
  lv["quality.screen_ms.p50"] = percentile(screen, 0.5);
  lv["quality.screen_ms.p90"] = percentile(screen, 0.9);
  lv["quality.accept_ratio"] =
      quality.total > 0 ? static_cast<double>(quality.accepted) / quality.total : 0.0;
  lv["quality.realigned"] = static_cast<double>(quality.realigned);
  lv["scan.dataset_ms"] = dataset;
  lv["scan.component_ms.p50"] = percentile(scan, 0.5);
  lv["scan.component_ms.p90"] = percentile(scan, 0.9);
  lv["scan.cpu_ms"] = scan_cpu;
  lv["scan.guesses"] = candidates;
  lv["scan.guess_traces_per_s"] = sum(scan) > 0.0 ? guess_traces / (sum(scan) / 1e3) : 0.0;
  lv["scan.top1_ratio"] = static_cast<double>(top1) / static_cast<double>(n);
  lv["attack.components_correct"] = static_cast<double>(correct);
  const double threads = pool != nullptr ? static_cast<double>(pool->num_workers()) : 1.0;
  lv["exec.busy_ratio"] = attack_ms > 0.0 ? task_ms / (threads * attack_ms) : 0.0;
  lv["exec.cpu_ratio"] = task_ms > 0.0 ? task_cpu / task_ms : 0.0;
  lv["exec.threads_used"] = static_cast<double>(tids.size());
  lv["obs.span_coverage"] = span_coverage(tr.spans(), root.id());

  measure_archive(tr, archive, shards, lv, out);
  if (capture) {
    std::remove(archive.c_str());
    for (const auto& p : shards) std::remove(p.c_str());
  }
  return out;
}

// The fleet run timed as one span, its stages taken from FleetResult;
// then the same capture in-process, which must match the fleet's archive.
Outcome traced_fleet(const Experiment& ex, Tracer& tr, LayerValues& lv) {
  const std::string archive = ex.dir + "/fleet-traced.fdtrace";
  FleetStats st;
  Outcome out;
  {
    const double cpu0 = process_cpu_s();
    Tracer::Scope root(tr, "recovery", 0);
    Tracer::Scope s(tr, "fleet.run", root.id());
    out = fleet_recovery(ex, archive, /*keep_archive=*/true, &st);
    s.close();
    out.recovery_s = root.close() / 1e3;
    out.recovery_cpu_s = process_cpu_s() - cpu0;
    lv["obs.span_coverage"] = span_coverage(tr.spans(), root.id());
  }
  lv["fleet.capture_ms"] = st.capture_ms;
  lv["fleet.attack_ms"] = st.attack_ms;
  lv["fleet.unstaged_ms"] = st.wall_ms - st.staged_ms;
  lv["fleet.worker_deaths"] = static_cast<double>(st.deaths);
  lv["fleet.reassignments"] = static_cast<double>(st.reassignments);
  lv["sca.records"] = static_cast<double>(out.records);
  if (!out.error.empty()) return out;

  const std::string reference = ex.dir + "/fleet-reference.fdtrace";
  auto camp = ex.campaign();
  camp.keep_shards = true;
  exec::ThreadPool pool(kFleetWorkers * ex.w->threads);
  sca::ShardedCampaignResult res;
  {
    Tracer::Scope s(tr, "sca.capture", 0);
    const double cpu0 = usage(RUSAGE_SELF).cpu_s;
    res = sca::run_campaign_sharded(ex.victim.sk, camp, reference, &pool);
    lv["sca.capture_ms"] = s.close();
    lv["sca.capture_cpu_ms"] = (usage(RUSAGE_SELF).cpu_s - cpu0) * 1e3;
  }
  if (!res.ok || !files_equal(reference, archive)) {
    out.error = "fleet archive differs from the in-process sharded capture";
  } else {
    measure_archive(tr, archive, res.shard_paths, lv, out);
  }
  std::remove(archive.c_str());
  std::remove(reference.c_str());
  for (const auto& p : res.shard_paths) std::remove(p.c_str());
  return out;
}

// --- checks and repetitions -------------------------------------------------

std::string check(const Experiment& ex, const Outcome& o, const std::vector<std::uint64_t>* ref) {
  if (!o.error.empty()) return "error: " + o.error;
  if (o.f != ex.victim.sk.f) return "f not exact";
  if (!o.verified) return "forgery not verified";
  if (o.records != ex.expected_records()) {
    return "records " + std::to_string(o.records) + " != " + std::to_string(ex.expected_records());
  }
  if (o.bits.size() != ex.n()) return "component count differs";
  if (ref != nullptr && o.bits != *ref) return "component bits differ from the warm-up's";
  return {};
}

enum class Pass { kWarmup, kUntraced, kTraced };

struct Rep {
  Pass pass = Pass::kUntraced;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // own user+sys, plus reaped children's (fleet workers)
  HostDelta host;
  std::string failure;  // empty = every check passed
};

struct Metric {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), in
// the order printed. BENCHMARK.json lists the same names and units.
constexpr Metric kEndToEnd[] = {
    {"recover_s", "s"},  {"recover_cpu_s", "s"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},    {"ok_ratio", "ratio"},
};
constexpr Metric kPerLayer[] = {
    {"falcon.keygen_ms", "ms"},
    {"sca.capture_ms", "ms"},
    {"sca.capture_cpu_ms", "ms"},
    {"sca.records", "count"},
    {"tracestore.archive_mb", "MB"},
    {"tracestore.merge_ms", "ms"},
    {"tracestore.read_mbps", "MB/s"},
    {"tracestore.demux_ms", "ms"},
    {"quality.screen_ms", "ms"},
    {"quality.screen_ms.p50", "ms"},
    {"quality.screen_ms.p90", "ms"},
    {"quality.accept_ratio", "ratio"},
    {"quality.realigned", "count"},
    {"scan.dataset_ms", "ms"},
    {"scan.component_ms.p50", "ms"},
    {"scan.component_ms.p90", "ms"},
    {"scan.cpu_ms", "ms"},
    {"scan.guesses", "count"},
    {"scan.guess_traces_per_s", "1/s"},
    {"scan.top1_ratio", "ratio"},
    {"attack.assemble_ms", "ms"},
    {"attack.forge_ms", "ms"},
    {"attack.sign_verify_ms", "ms"},
    {"attack.components_correct", "count"},
    {"exec.busy_ratio", "ratio"},
    {"exec.cpu_ratio", "ratio"},
    {"exec.threads_used", "count"},
    {"host.steal_ratio", "ratio"},
    {"host.idle_ratio", "ratio"},
    {"fleet.capture_ms", "ms"},
    {"fleet.attack_ms", "ms"},
    {"fleet.unstaged_ms", "ms"},
    {"fleet.child_cpu_s", "s"},
    {"fleet.worker_deaths", "count"},
    {"fleet.reassignments", "count"},
    {"fleet.worker_peak_rss_mb", "MB"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.span_coverage", "ratio"},
    {"recover.samples", "count"},
    {"recover.warmup_over_median", "ratio"},
    {"recover.slow_reps", "count"},
    {"fail_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Shape shape = kFullShape;
  std::string work_dir = ".bench_build/krbench";
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  long corrupt_rep = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 0);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (k == "--shape") {
      if (std::string_view(v) == "tiny") {
        a.shape = kTinyShape;
      } else if (std::string_view(v) != "full") {
        return false;
      }
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--src-digest") {
      a.src_digest = v;
    } else if (k == "--corrupt-rep") {
      a.corrupt_rep = std::strtol(v, nullptr, 0);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string host_fingerprint(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream o;
  o << "{\"cores_online\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cores_usable\": " << usable
    << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"cpa_kernel\": \""
    << attack::cpa_simd_name(attack::cpa_active_simd()) << "\", \"build_type\": \""
    << KRB_BUILD_TYPE << "\", \"compiler\": \"" << json_escape(__VERSION__)
    << "\", \"commit\": \"" << json_escape(a.commit) << "\", \"src_sha256\": \""
    << json_escape(a.src_digest) << "\"}";
  return o.str();
}

void write_spans(const std::string& path, const std::string& host, const Args& a,
                 const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  out << "{\"host\": " << host << ", \"workload\": \"" << a.workload << "\", \"seed\": "
      << a.seed << "}\n";
  char buf[512];
  for (const auto& s : spans) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, \"recovery\": %zu, "
                  "\"tid\": %ld, \"start_s\": %.9f, \"end_s\": %.9f, \"thread_cpu_s\": %.9f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.recovery, s.tid, s.start_s,
                  s.end_s, s.thread_cpu_s);
    out << buf;
  }
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "kr_bench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Experiment ex;
  ex.w = w;
  ex.shape = a.shape;
  ex.victim_seed = victim_seed_for(a.seed);
  ex.campaign_seed = campaign_seed_for(a.seed);
  if (std::string err; !sca::parse_fault_plan(w->faults, ex.faults, &err)) {
    std::fprintf(stderr, "kr_bench: %s\n", err.c_str());
    return 2;
  }
  ex.dir = a.work_dir + "/run-" + std::to_string(::getpid());
  ex.reference_archive = ex.dir + "/reference.fdtrace";
  fs::create_directories(ex.dir);
  ex.self_exe = fs::read_symlink("/proc/self/exe").string();

  const std::string host = host_fingerprint(a);
  std::printf("{\"host\": %s}\n", host.c_str());
  std::printf("workload %s: seed %llu (victim \"%s\", campaign 0x%llx), logn %u, %zu traces, "
              "sigma %.1f, %zu thread%s, %zu shard%s\n",
              w->name, static_cast<unsigned long long>(a.seed), ex.victim_seed.c_str(),
              static_cast<unsigned long long>(ex.campaign_seed), a.shape.logn, a.shape.traces,
              a.shape.sigma, w->threads, w->threads == 1 ? "" : "s", w->shards,
              w->shards == 1 ? "" : "s");
  std::fflush(stdout);

  std::vector<double> setup_s, keygen_ms;
  std::unique_ptr<exec::ThreadPool> pool;
  StoredArchive stored;
  std::string setup_error;
  std::vector<Rep> reps;
  std::vector<std::uint64_t> reference;
  std::vector<LayerValues> layers;
  Tracer tracer;
  const auto run_rep = [&](Pass pass) {
    Rep rep;
    rep.pass = pass;
    LayerValues lv;
    Outcome o;
    const HostStat h0 = HostStat::read();
    const double c0 = process_cpu_s(), cc0 = usage(RUSAGE_CHILDREN).cpu_s;
    const double t0 = now_s();
    try {
      if (!setup_error.empty()) {
        o.error = setup_error;
      } else if (pass == Pass::kTraced) {
        tracer.set_recovery(reps.size());
        o = w->kind == Kind::kFleet ? traced_fleet(ex, tracer, lv)
                                    : traced_single(ex, tracer, pool.get(), &stored, lv);
      } else if (w->kind == Kind::kPipeline) {
        // The first warm-up keeps its archive for the traced capture check.
        const bool keep = reps.empty();
        o = pipeline_recovery(ex, keep ? ex.reference_archive : ex.dir + "/run.fdtrace", keep);
      } else if (w->kind == Kind::kRescan) {
        o = rescan_recovery(ex, pool.get(), stored);
      } else {
        o = fleet_recovery(ex, ex.dir + "/fleet.fdtrace", false, nullptr);
      }
    } catch (const std::exception& e) {
      o.error = e.what();
    }
    const bool root_timed = o.recovery_s >= 0.0;
    rep.wall_s = root_timed ? o.recovery_s : now_s() - t0;
    rep.cpu_s = root_timed ? o.recovery_cpu_s : process_cpu_s() - c0;
    rep.host = host_delta(h0, HostStat::read());
    if (static_cast<long>(reps.size()) == a.corrupt_rep && !o.bits.empty()) {
      o.bits[0] ^= 1;  // deliberate corruption: the checks must catch it
    }
    rep.failure = check(ex, o, reference.empty() ? nullptr : &reference);
    if (reference.empty()) reference = o.bits;
    if (pass == Pass::kTraced) {
      lv["fleet.child_cpu_s"] = usage(RUSAGE_CHILDREN).cpu_s - cc0;
      layers.push_back(std::move(lv));
    }
    reps.push_back(rep);
  };

  // Set-up, repeated on fresh state: keygen, the shared pool and
  // (rescan-gated) the stored archive, then one warm-up recovery, checked
  // like every other. setup_s is the median of the repetitions, so a
  // recovery that is slow because its state is fresh shows there; the
  // process's very first recovery is reported as
  // recover.warmup_over_median and in the recovery lines.
  for (std::size_t k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    ChaCha20Prng rng(ex.victim_seed);
    ex.victim = falcon::keygen(a.shape.logn, rng);
    keygen_ms.push_back((now_s() - t0) * 1e3);
    if (w->kind == Kind::kRescan) {
      pool.reset();
      pool = std::make_unique<exec::ThreadPool>(w->threads);
      stored.path = ex.dir + "/stored.fdtrace";
      auto camp = ex.campaign();
      camp.keep_shards = true;
      const auto res = sca::run_campaign_sharded(ex.victim.sk, camp, stored.path, pool.get());
      if (!res.ok) setup_error = "set-up capture: " + res.error;
      stored.shards = res.shard_paths;
      stored.records = res.records;
    }
    run_rep(Pass::kWarmup);
    setup_s.push_back(now_s() - t0);
  }
  const double warmup_s = reps.front().wall_s;

  // Then a closed loop: the next recovery starts when the last one returns.
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  const double loop0 = now_s();
  for (std::size_t untraced = 0; untraced < 3 || now_s() - loop0 < untraced_budget; ++untraced) {
    run_rep(Pass::kUntraced);
  }
  if (a.trace) {
    const std::size_t before = reps.size();
    const double traced0 = now_s();
    while (reps.size() == before || now_s() - traced0 < a.seconds / 2) run_rep(Pass::kTraced);
  }

  // Per-repetition table; a timed repetition slower than 1.5x the median
  // is flagged next to its own CPU/wall and host idle/steal.
  std::vector<double> wall, cpu, idle, steal, traced_wall;
  for (const auto& r : reps) {
    if (r.pass == Pass::kUntraced) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
    }
    if (r.pass == Pass::kTraced) traced_wall.push_back(r.wall_s);
    idle.push_back(r.host.idle_ratio);
    steal.push_back(r.host.steal_ratio);
  }
  const double wall_med = median(wall);
  std::size_t failed = 0, slow = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    failed += !r.failure.empty();
    const bool is_slow = r.pass == Pass::kUntraced && r.wall_s > 1.5 * wall_med;
    slow += is_slow;
    static constexpr const char* kPassName[] = {"warm-up", "untraced", "traced"};
    std::printf("rep %2zu %-8s wall_s=%.4f cpu_s=%.4f cpu/wall=%.3f host_idle=%.3f "
                "host_steal=%.4f%s%s%s\n",
                i, kPassName[static_cast<int>(r.pass)], r.wall_s, r.cpu_s, r.cpu_s / r.wall_s,
                r.host.idle_ratio, r.host.steal_ratio,
                is_slow ? "  SLOW (>1.5x median wall)" : "",
                r.failure.empty() ? "" : "  FAILED: ", r.failure.c_str());
  }

  LayerValues values;
  const double attempted = static_cast<double>(reps.size());
  if (!a.trace) {
    values["recover_s"] = wall_med;
    values["recover_cpu_s"] = median(cpu);
    values["peak_rss_mb"] = usage(RUSAGE_SELF).maxrss_mb;
    values["setup_s"] = median(setup_s);
    values["ok_ratio"] = (attempted - static_cast<double>(failed)) / attempted;
  } else {
    for (const auto& m : kPerLayer) {
      std::vector<double> v;
      for (const auto& lv : layers) {
        if (const auto it = lv.find(m.name); it != lv.end()) v.push_back(it->second);
      }
      values[m.name] = median(v);
    }
    values["falcon.keygen_ms"] = median(keygen_ms);
    values["host.steal_ratio"] = median(steal);
    values["host.idle_ratio"] = median(idle);
    values["fleet.worker_peak_rss_mb"] =
        w->kind == Kind::kFleet ? usage(RUSAGE_CHILDREN).maxrss_mb : 0.0;
    values["obs.trace_overhead_ratio"] = wall_med > 0.0 ? median(traced_wall) / wall_med : 0.0;
    values["recover.samples"] = static_cast<double>(wall.size());
    values["recover.warmup_over_median"] = wall_med > 0.0 ? warmup_s / wall_med : 0.0;
    values["recover.slow_reps"] = static_cast<double>(slow);
    values["fail_ratio"] = static_cast<double>(failed) / attempted;
    const std::string spans_path =
        a.work_dir + "/spans-" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl";
    write_spans(spans_path, host, a, tracer.spans());
    std::printf("spans: %zu written to %s\n", tracer.spans().size(), spans_path.c_str());
    std::printf("note: scan.guess_traces_per_s is computed, not counted: sum over components "
                "of candidates x accepted traces, over the summed scan.component wall\n");
  }
  std::error_code ec;
  fs::remove_all(ex.dir, ec);

  std::string metrics;
  for (const auto& m : a.trace ? std::span<const Metric>(kPerLayer)
                               : std::span<const Metric>(kEndToEnd)) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, values[m.name], m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", reps.size(), failed, metrics.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "--worker") {
    // Fleet worker entry: the coordinator re-execs this binary.
    return fleet::run_worker(STDIN_FILENO, STDOUT_FILENO);
  }
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: kr_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--shape full|tiny] [--work-dir DIR] [--commit ID] [--src-digest HEX] "
                 "[--corrupt-rep K]\n");
    return 2;
  }
  return run(args);
}
