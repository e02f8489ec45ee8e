// The blocked CPA kernel vs the naive per-trace fold.
//
//   ./bench_cpa_kernel [traces] [--json out.jsonl]
//   (default: 20000 traces)
//
// Fold shapes: g49/s1 is the default attack shape (the exponent phase's
// 49-guess scan over one sample column); g49/s17 folds a full fpr_mul
// window; g256/s17 is the wide-hypothesis stress shape. batch=1 is the
// exact naive per-trace reference fold (same arithmetic the engine
// always produced), batch=64 the blocked kernel -- the speedup column
// is the tentpole acceptance number (>= 2x at the default shape).
//
// scan.low_extend is the extend-and-prune scan at its production shape
// (155 candidates x 4 columns x 2000 traces: the low-mantissa extend of
// one component at the logn-6 / 2000-trace recovery), scored through
// StreamingScan's fused hypothesis tiles. It reports guess x trace x
// column evaluations per second (gtc/s) for the forced-scalar reference
// (libgcc popcount + scalar fold) and for the dispatched kernel.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/cpa_kernel.h"
#include "bench_harness.h"
#include "common/rng.h"
#include "obs/profile.h"

using namespace fd;

namespace {

struct FoldData {
  std::size_t guesses = 0;
  std::size_t samples = 0;
  std::vector<std::vector<double>> hyps;   // [trace][guess]
  std::vector<std::vector<float>> traces;  // [trace][sample]
};

FoldData make_data(std::size_t traces, std::size_t guesses, std::size_t samples,
                   std::uint64_t seed) {
  ChaCha20Prng rng(seed);
  FoldData d;
  d.guesses = guesses;
  d.samples = samples;
  d.hyps.resize(traces);
  d.traces.resize(traces);
  for (std::size_t t = 0; t < traces; ++t) {
    d.hyps[t].resize(guesses);
    for (std::size_t g = 0; g < guesses; ++g) {
      d.hyps[t][g] = static_cast<double>(rng.next_u8() & 0x3F);
    }
    d.traces[t].resize(samples);
    for (std::size_t s = 0; s < samples; ++s) {
      d.traces[t][s] = static_cast<float>(d.hyps[t][0] + 2.0 * rng.gaussian());
    }
  }
  return d;
}

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

// Best-of-reps wall time of one full fold (construct, add every trace,
// flush via a correlation read). The read also keeps the optimizer
// honest.
double fold_ms(const FoldData& d, const attack::CpaKernelConfig& cfg, int reps,
               double& sink) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    attack::CpaEngine engine(d.guesses, d.samples, cfg);
    for (std::size_t t = 0; t < d.hyps.size(); ++t) {
      engine.add_trace(d.hyps[t], d.traces[t]);
    }
    sink += engine.correlation(0, 0);
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
  const std::size_t fold_traces =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20000;

  // --- blocked kernel vs naive per-trace fold -----------------------------
  struct Shape {
    std::size_t guesses, samples;
  };
  const Shape shapes[] = {{49, 1}, {49, 17}, {256, 17}};
  const int reps = 5;
  double sink = 0.0;

  // fold_blocked_* uses the runtime SIMD dispatch (AVX2 where the CPU
  // has it -- the BENCH_10 acceptance surface); the forced-scalar
  // column isolates the vector kernel's share of the win. Both paths
  // are bit-identical by contract, so the comparison is pure speed.
  const char* active = attack::cpa_simd_name(attack::cpa_active_simd());
  std::printf(
      "CPA fold: naive (batch=1) vs blocked (batch=64), %zu traces, best of %d\n"
      "blocked kernel dispatch: %s (FD_CPA_KERNEL overrides)\n\n",
      fold_traces, reps, active);
  std::printf("%-12s %12s %12s %12s %10s %10s %14s\n", "shape", "naive_ms", "scalar_ms",
              "blocked_ms", "speedup", "simd_x", "Mcells/s");
  for (const auto& sh : shapes) {
    const FoldData d = make_data(fold_traces, sh.guesses, sh.samples, 0xF01D + sh.guesses);
    const double naive_ms = fold_ms(d, {.batch_traces = 1}, reps, sink);
    const attack::CpaSimd dispatched = attack::cpa_active_simd();
    attack::cpa_force_simd(attack::CpaSimd::kScalar);
    const double scalar_ms = fold_ms(d, {.batch_traces = 64}, reps, sink);
    attack::cpa_force_simd(dispatched);
    const double blocked_ms = fold_ms(d, {.batch_traces = 64}, reps, sink);
    const double speedup = naive_ms / blocked_ms;
    const double simd_x = scalar_ms / blocked_ms;
    const double mcells =
        static_cast<double>(fold_traces * sh.guesses * sh.samples) / (blocked_ms * 1e3);
    const std::string label =
        "g" + std::to_string(sh.guesses) + "_s" + std::to_string(sh.samples);
    std::printf("%-12s %12.1f %12.1f %12.1f %9.2fx %9.2fx %14.1f\n", label.c_str(), naive_ms,
                scalar_ms, blocked_ms, speedup, simd_x, mcells);
    const std::string params = "traces=" + std::to_string(fold_traces) +
                               " guesses=" + std::to_string(sh.guesses) +
                               " samples=" + std::to_string(sh.samples);
    harness.report("fold_naive_" + label, params, naive_ms);
    harness.report("fold_blocked_scalar_" + label, params, scalar_ms);
    harness.report("fold_blocked_" + label, params + " simd=" + active, blocked_ms, speedup,
                   "x_vs_naive");
  }
  attack::cpa_reset_simd();

  // --- scan.low_extend: fused hypothesis tiles at the production shape ---
  {
    constexpr std::size_t kScanTraces = 2000, kScanGuesses = 155, kScanCols = 4;
    const ScanData d = make_scan_data(kScanTraces, kScanGuesses, 0x5CA7);
    const double gtc = static_cast<double>(kScanTraces * kScanGuesses * kScanCols);
    const attack::CpaSimd dispatched = attack::cpa_active_simd();
    attack::cpa_force_simd(attack::CpaSimd::kScalar);
    const double scalar = scan_ms(d, reps, sink);
    attack::cpa_force_simd(dispatched);
    const double fused = scan_ms(d, reps, sink);
    attack::cpa_reset_simd();
    std::printf("\nscan.low_extend: %zu guesses x %zu columns x %zu traces, best of %d\n",
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
  }

  if (sink == 12345.0) std::printf("%f\n", sink);  // defeat dead-code elimination
  return 0;
}
