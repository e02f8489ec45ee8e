// Trace-archive throughput: write and stream-read bandwidth of the
// .fdtrace format, plus the in-memory CPA wall time on the same seeded
// campaign and a check that the archive-loaded slot ranks identically
// -- the cost and the contract of capture-once/attack-many.
//
//   ./bench_tracestore [logn] [num_traces] [--json <path>]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "attack/cpa.h"
#include "bench_harness.h"
#include "bench_util.h"
#include "common/rng.h"
#include "falcon/falcon.h"
#include "sca/campaign.h"
#include "tracestore/archive.h"

using namespace fd;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double file_mib(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return 0.0;
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fclose(f);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("tracestore", argc, argv);
  const unsigned logn = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 5;
  const std::size_t num_traces = argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 600;
  const char* path = "bench_tracestore.fdtrace";
  char params[64];
  std::snprintf(params, sizeof params, "logn=%u traces=%zu", logn, num_traces);

  ChaCha20Prng rng(0xA2C417);
  const auto kp = falcon::keygen(logn, rng);
  sca::CampaignConfig cfg;
  cfg.num_traces = num_traces;
  cfg.device.noise_sigma = 2.0;
  cfg.seed = 0xA2C417;

  std::printf("== tracestore throughput (logn=%u, %zu queries x %zu slots) ==\n", logn,
              num_traces, kp.sk.params.n >> 1);

  // Write path: victim signing dominates, so also report the pure
  // serialization share by re-writing the loaded records.
  auto t0 = Clock::now();
  const auto capture = sca::run_campaign_to_archive(kp.sk, cfg, path);
  const double capture_s = seconds_since(t0);
  if (!capture.ok) {
    std::fprintf(stderr, "capture failed: %s\n", capture.error.c_str());
    return 1;
  }
  const double mib = file_mib(path);
  std::printf("capture+write  %8.3f s  (%zu records, %.1f MiB, %.1f MiB/s incl. signing)\n",
              capture_s, capture.records, mib, mib / capture_s);
  harness.report("capture_write", params, capture_s * 1e3, mib / capture_s, "MiB/s");

  tracestore::ArchiveReader reader;
  if (!reader.open(path)) {
    std::fprintf(stderr, "open failed: %s\n", reader.error().c_str());
    return 1;
  }
  std::vector<tracestore::TraceRecord> all;
  t0 = Clock::now();
  while (reader.next_batch(all, 1024) > 0) {
  }
  const double read_s = seconds_since(t0);
  std::printf("stream read    %8.3f s  (%.1f MiB/s, max resident %zu records/chunk)\n",
              read_s, mib / read_s, reader.max_resident_records());
  harness.report("stream_read", params, read_s * 1e3, mib / read_s, "MiB/s");

  t0 = Clock::now();
  {
    tracestore::ArchiveWriter rewriter;
    if (!rewriter.open("bench_tracestore_rw.fdtrace", reader.meta())) return 1;
    for (const auto& rec : all) {
      if (!rewriter.append(rec)) return 1;
    }
    if (!rewriter.close()) return 1;
  }
  const double write_s = seconds_since(t0);
  std::printf("pure write     %8.3f s  (%.1f MiB/s)\n", write_s, mib / write_s);
  harness.report("pure_write", params, write_s * 1e3, mib / write_s, "MiB/s");
  all.clear();
  all.shrink_to_fit();

  // Exponent-phase CPA on one slot: loaded back from the archive vs
  // the same campaign re-run in memory.
  attack::CpaSpec spec;
  spec.sample_offsets = {sca::window::kOffExpSum};
  for (std::uint32_t e = 1005; e <= 1053; ++e) spec.guesses.push_back(e);
  spec.model = [](std::uint32_t guess, const attack::KnownOperand& k) {
    return attack::hyp_exponent(guess, k);
  };
  const std::size_t slots[] = {1};
  std::vector<sca::TraceSet> loaded;
  if (!sca::load_trace_sets_for(reader, slots, loaded)) {
    std::fprintf(stderr, "load failed: %s\n", reader.error().c_str());
    return 1;
  }
  const auto from_disk = attack::run_cpa(loaded[0], spec);

  t0 = Clock::now();
  const auto sets = sca::run_full_campaign(kp.sk, cfg);
  const double recapture_s = seconds_since(t0);
  t0 = Clock::now();
  const auto inmem = attack::run_cpa(sets[slots[0]], spec);
  const double cpa_mem_s = seconds_since(t0);

  std::printf("CPA in-memory  %8.3f s  (+%.3f s to re-run the victim)\n", cpa_mem_s,
              recapture_s);
  harness.report("cpa_inmemory", params, cpa_mem_s * 1e3,
                 static_cast<double>(inmem.num_traces()) / cpa_mem_s, "traces/s");
  std::printf("rankings match %s  (archive vs in-memory, top guess %u vs %u)\n",
              from_disk.ranking() == inmem.ranking() ? "yes" : "NO",
              spec.guesses[from_disk.ranking()[0]], spec.guesses[inmem.ranking()[0]]);

  std::remove(path);
  std::remove("bench_tracestore_rw.fdtrace");
  return 0;
}
