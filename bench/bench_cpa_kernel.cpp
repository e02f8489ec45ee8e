// The extend-and-prune scan kernel at its production shape.
//
//   ./bench_cpa_kernel [--json out.jsonl]
//
// scan.low_extend is the low-mantissa extend of one component at the
// logn-6 / 2000-trace recovery (155 candidates x 4 columns x 2000
// traces), scored through StreamingScan's fused hypothesis tiles. It
// reports guess x trace x column evaluations per second (gtc/s) for the
// forced-scalar reference (libgcc popcount + scalar fold) and for the
// dispatched kernel.

#include <cstdio>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernel.h"
#include "bench_harness.h"
#include "common/rng.h"
#include "obs/profile.h"

using namespace fd;

namespace {

// The low-mantissa extend of one component: two views x the x0*y0 and
// x0*y1 partial-product columns, leaking the truth's Hamming weights
// under gain 1 and sigma 2.
struct ScanData {
  attack::KnownLanes known[2];
  std::vector<float> samples[4];
  std::vector<std::uint32_t> guesses;

  [[nodiscard]] std::vector<attack::StreamingScan::Column> columns() const {
    std::vector<attack::StreamingScan::Column> cols;
    for (std::size_t c = 0; c < 4; ++c) {
      cols.push_back({samples[c], &known[c / 2],
                      {c % 2 == 0 ? attack::HypKind::kMulY0 : attack::HypKind::kMulY1}});
    }
    return cols;
  }
};

ScanData make_scan_data(std::size_t traces, std::size_t guesses, std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  ScanData d;
  const std::uint32_t truth = static_cast<std::uint32_t>(rng.next_u64()) & 0x1FFFFFF;
  d.guesses.push_back(truth);
  while (d.guesses.size() < guesses) {
    d.guesses.push_back(static_cast<std::uint32_t>(rng.next_u64()) & 0x1FFFFFF);
  }
  for (std::size_t t = 0; t < traces; ++t) {
    for (std::size_t v = 0; v < 2; ++v) {
      attack::KnownOperand k{};
      k.y0 = static_cast<std::uint32_t>(rng.next_u64()) & 0x1FFFFFF;
      k.y1 = (1U << 27) | (static_cast<std::uint32_t>(rng.next_u64()) & 0x7FFFFFF);
      d.known[v].push_back(k);
      d.samples[2 * v].push_back(static_cast<float>(
          attack::hyp_model({attack::HypKind::kMulY0}, truth, k) + 2.0 * rng.gaussian()));
      d.samples[2 * v + 1].push_back(static_cast<float>(
          attack::hyp_model({attack::HypKind::kMulY1}, truth, k) + 2.0 * rng.gaussian()));
    }
  }
  return d;
}

// Best-of-reps wall time of one top-16 scan (construction included).
double scan_ms(const ScanData& d, int reps, double& sink) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    const attack::StreamingScan scan(d.columns());
    sink += scan.top_k_list(d.guesses, 16).front().score;
    best = std::min(best, timer.ms());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness("cpa_kernel", argc, argv);
  // Run with the profiling thread live: the EXPERIMENTS.md tracing
  // overhead budget (<5% vs FD_OBS=OFF) is measured sampler-on, so the
  // numbers here include the cost a profiled campaign actually pays.
  // No-op struct under FD_OBS=OFF.
  const obs::ResourceSampler sampler;
  const int reps = 5;
  double sink = 0.0;
  const char* active = attack::cpa_simd_name(attack::cpa_active_simd());

  constexpr std::size_t kScanTraces = 2000, kScanGuesses = 155, kScanCols = 4;
  const ScanData d = make_scan_data(kScanTraces, kScanGuesses, 0x5CA7);
  const double gtc = static_cast<double>(kScanTraces * kScanGuesses * kScanCols);
  const attack::CpaSimd dispatched = attack::cpa_active_simd();
  attack::cpa_force_simd(attack::CpaSimd::kScalar);
  const double scalar = scan_ms(d, reps, sink);
  attack::cpa_force_simd(dispatched);
  const double fused = scan_ms(d, reps, sink);
  attack::cpa_reset_simd();
  std::printf("scan.low_extend: %zu guesses x %zu columns x %zu traces, best of %d\n",
              kScanGuesses, kScanCols, kScanTraces, reps);
  std::printf("%-12s %12s %14s %14s\n", "kernel", "scan_ms", "ns/gtc", "Mgtc/s");
  std::printf("%-12s %12.2f %14.3f %14.1f\n", "scalar", scalar, scalar * 1e6 / gtc,
              gtc / (scalar * 1e3));
  std::printf("%-12s %12.2f %14.3f %14.1f\n", active, fused, fused * 1e6 / gtc,
              gtc / (fused * 1e3));
  const std::string params = "traces=2000 guesses=155 columns=4";
  harness.report("scan_low_extend_scalar", params, scalar, gtc / (scalar / 1e3), "gtc/s");
  harness.report("scan_low_extend", params + " simd=" + active, fused, gtc / (fused / 1e3),
                 "gtc/s");

  if (sink == 12345.0) std::printf("%f\n", sink);  // defeat dead-code elimination
  return 0;
}
