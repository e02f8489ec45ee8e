#pragma once
// Shared helpers for the reproduction benches.
//
// The figure benches target *one specific coefficient* (the paper's
// Fig. 4 uses 0xC06017BC8036B580), so instead of generating keys until
// that value appears in FFT(f), the rig plants the coefficient as the
// secret operand and drives the exact window computation the signer
// performs (4 fpr_mul + fpr_sub + fpr_add, trigger-bracketed), with
// known operands drawn from the FFT(c) slot distribution (complex
// Gaussian with sigma = q*sqrt(n/24); the real campaign's hashed points
// produce the same statistics).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/cpa.h"
#include "attack/extend_prune.h"
#include "common/rng.h"
#include "fpr/fpr.h"
#include "sca/campaign.h"
#include "sca/capture.h"
#include "sca/device.h"

namespace fd::bench {

// The coefficient attacked in the paper's Fig. 4.
inline constexpr std::uint64_t kPaperCoefficient = 0xC06017BC8036B580ULL;

inline sca::TraceSet synthetic_coefficient_campaign(fpr::Fpr secret_re, fpr::Fpr secret_im,
                                                    std::size_t num_traces,
                                                    const sca::DeviceConfig& device_cfg,
                                                    unsigned logn, std::uint64_t seed) {
  const double sigma_c =
      12289.0 * std::sqrt(static_cast<double>(std::size_t{1} << logn) / 24.0);
  ChaCha20Prng rng(seed ^ 0x51E6);
  sca::EmDeviceModel device(device_cfg, seed ^ 0xD01CE);

  sca::TraceSet set;
  set.slot = 0;
  set.traces.reserve(num_traces);
  for (std::size_t d = 0; d < num_traces; ++d) {
    const fpr::Fpr known_re = fpr::Fpr::from_double(rng.gaussian() * sigma_c);
    const fpr::Fpr known_im = fpr::Fpr::from_double(rng.gaussian() * sigma_c);

    sca::EventWindowRecorder recorder(/*slot=*/0);
    {
      fpr::ScopedLeakageSink scope(&recorder);
      fpr::leak_trigger(fpr::LeakageTag::kTriggerBegin, 0);
      const fpr::Fpr t_rr = fpr::fpr_mul(secret_re, known_re);
      const fpr::Fpr t_ii = fpr::fpr_mul(secret_im, known_im);
      const fpr::Fpr t_ri = fpr::fpr_mul(secret_re, known_im);
      const fpr::Fpr t_ir = fpr::fpr_mul(secret_im, known_re);
      (void)fpr::fpr_sub(t_rr, t_ii);
      (void)fpr::fpr_add(t_ri, t_ir);
      fpr::leak_trigger(fpr::LeakageTag::kTriggerEnd, 0);
    }
    sca::CapturedTrace ct;
    ct.trace = device.synthesize(recorder.events());
    ct.known_re = known_re;
    ct.known_im = known_im;
    set.traces.push_back(std::move(ct));
  }
  return set;
}

// Correlation evolution of a set of guesses at one sample offset:
// snapshots of r(guess) every `step` traces.
struct Evolution {
  std::vector<std::size_t> checkpoints;
  std::vector<std::vector<double>> r;  // [checkpoint][guess]
};

// Uses view 0 (the multiplication by Re FFT(c)), like the paper's
// single-multiplication plots.
template <typename HypFn>
Evolution correlation_evolution(const attack::ComponentDataset& ds, std::size_t offset,
                                std::size_t num_guesses, HypFn&& hyp, std::size_t step) {
  attack::CpaEngine eng(num_guesses, 1);
  Evolution evo;
  std::vector<double> hyps(num_guesses);
  for (std::size_t t = 0; t < ds.num_traces; ++t) {
    for (std::size_t g = 0; g < num_guesses; ++g) hyps[g] = hyp(g, ds.views[0].known[t]);
    const float sample = ds.views[0].samples[offset][t];
    eng.add_trace(hyps, {&sample, 1});
    if ((t + 1) % step == 0 || t + 1 == ds.num_traces) {
      evo.checkpoints.push_back(t + 1);
      std::vector<double> snap(num_guesses);
      for (std::size_t g = 0; g < num_guesses; ++g) snap[g] = eng.correlation(g, 0);
      evo.r.push_back(std::move(snap));
    }
  }
  return evo;
}

// First checkpoint at which the correct guess is strictly the best AND
// exceeds the 99.99% confidence bound, and stays so until the end.
// Returns 0 if never.
inline std::size_t measurements_to_disclosure(const Evolution& evo, std::size_t correct) {
  std::size_t mtd = 0;
  for (std::size_t c = 0; c < evo.checkpoints.size(); ++c) {
    const double ci = attack::confidence_interval(0.9999, evo.checkpoints[c]);
    bool leads = evo.r[c][correct] > ci;
    for (std::size_t g = 0; g < evo.r[c].size() && leads; ++g) {
      if (g != correct && evo.r[c][g] >= evo.r[c][correct]) leads = false;
    }
    if (leads) {
      if (mtd == 0) mtd = evo.checkpoints[c];
    } else {
      mtd = 0;
    }
  }
  return mtd;
}

}  // namespace fd::bench
