#include "distinguisher/component_scorer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <vector>

#include "attack/template_attack.h"
#include "common/rng.h"
#include "falcon/keygen.h"
#include "distinguisher/template_backend.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/span.h"
#include "sca/campaign.h"

namespace fd::distinguisher {

namespace ww = sca::window;
using attack::ComponentAttackConfig;
using attack::ComponentDataset;
using attack::ComponentResult;
using attack::KnownOperand;
using attack::PhaseOutcome;

namespace {

// Mirrors extend_prune.cpp's note_phase so the "ep.phase" stream and
// the attack.ep.* counters look the same under every backend.
void note_phase(const ComponentAttackConfig& config, std::string_view phase,
                std::size_t candidates_in, const PhaseOutcome& out) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("attack.ep.candidates").add(candidates_in);
  reg.counter("attack.ep.pruned").add(candidates_in - out.top.size());
  if (obs::sink() == nullptr) return;
  obs::event("ep.phase")
      .with("label", config.obs_label)
      .with("phase", phase)
      .with("candidates_in", candidates_in)
      .with("kept", out.top.size())
      .with("value", out.value)
      .with("score", out.score)
      .emit();
}

// Scores `count` guesses over one phase's offset columns through a
// distinguisher built by make(num_guesses) -- a TemplateDistinguisher or
// LrDistinguisher -- chunked so per-observation hypothesis staging
// stays O(chunk * C) even for the exhaustive 2^25/2^27 spaces.
// Per-guess means are comparable across chunks (each chunk sees the
// identical observation stream), so the global ranking is exact.
template <typename MakeDist, typename GuessAt, typename HypFn>
PhaseOutcome run_profiled_phase(const ComponentDataset& ds,
                                std::span<const std::size_t> offsets, std::uint64_t count,
                                GuessAt&& guess_at, std::size_t keep, HypFn&& hyp,
                                const MakeDist& make) {
  PhaseOutcome out;
  const std::size_t c_ = offsets.size();
  const std::size_t d = ds.num_traces;
  if (c_ == 0 || count == 0 || d == 0) return out;

  // One observation per (view, trace): C samples, prebuilt.
  std::vector<float> smp(2 * d * c_);
  for (unsigned v = 0; v < 2; ++v) {
    for (std::size_t t = 0; t < d; ++t) {
      for (std::size_t ci = 0; ci < c_; ++ci) {
        smp[(v * d + t) * c_ + ci] = ds.views[v].samples[offsets[ci]][t];
      }
    }
  }

  struct Sc {
    std::uint32_t guess;
    double score;
    double sd;
  };
  std::vector<Sc> all;
  constexpr std::uint64_t kChunk = 4096;
  std::vector<double> hyps(static_cast<std::size_t>(std::min(count, kChunk)) * c_);
  for (std::uint64_t g0 = 0; g0 < count; g0 += kChunk) {
    const auto gn = static_cast<std::size_t>(std::min(kChunk, count - g0));
    auto dist = make(gn);
    for (unsigned v = 0; v < 2; ++v) {
      for (std::size_t t = 0; t < d; ++t) {
        const KnownOperand& k = ds.views[v].known[t];
        for (std::size_t gi = 0; gi < gn; ++gi) {
          const std::uint32_t guess = guess_at(g0 + gi);
          for (std::size_t ci = 0; ci < c_; ++ci) {
            hyps[gi * c_ + ci] = hyp(guess, k, offsets[ci]);
          }
        }
        dist.observe(std::span<const double>(hyps.data(), gn * c_),
                     std::span<const float>(smp.data() + (v * d + t) * c_, c_));
      }
    }
    for (std::size_t gi = 0; gi < gn; ++gi) {
      all.push_back({guess_at(g0 + gi), dist.score(gi), dist.score_sd(gi)});
    }
  }

  std::stable_sort(all.begin(), all.end(),
                   [](const Sc& a, const Sc& b) { return a.score > b.score; });
  if (all.size() > keep) all.resize(keep);
  out.top.reserve(all.size());
  for (const Sc& s : all) out.top.push_back({s.guess, s.score});
  if (!all.empty()) {
    out.value = all[0].guess;
    out.score = all[0].score;
    out.score_sd = all[0].sd;
  }
  return out;
}

// The centered LR score, like Pearson, cannot see affine hypothesis
// shifts: the exponent window's +-2^k alias family comes back as an
// exact tie class. Resolve it the way the CPA staging does -- keep the
// statistical ties, then template-match their absolute predicted
// levels under the self-calibrated device gain (extend_prune.cpp).
void resolve_exponent_aliases(const ComponentDataset& ds, const ComponentAttackConfig& config,
                              PhaseOutcome& phase) {
  if (phase.top.empty()) return;
  // Tie width: 4 standard errors of the winner's mean score -- the
  // analogue of the Pearson default 4/sqrt(D), whose per-trace scale
  // is 1 (both views count as observations here).
  const double obsn = static_cast<double>(2 * ds.num_traces);
  const double eps = config.exp_tie_epsilon >= 0.0
                         ? config.exp_tie_epsilon
                         : std::max(1e-9, 4.0 * phase.score_sd / std::sqrt(obsn));
  const double best = phase.top[0].score;
  std::vector<attack::StreamingScan::Scored> ties;
  for (const auto& s : phase.top) {
    if (s.score >= best - eps) ties.push_back(s);
  }
  std::uint32_t pick = phase.value;
  const attack::LinearCalibration cal = attack::calibrate_device(ds);
  if (std::fabs(cal.alpha) > 1e-6) {
    double best_sse = 1e300;
    for (const auto& s : ties) {
      double sse = 0.0;
      for (unsigned v = 0; v < 2; ++v) {
        const auto& col_sum = ds.views[v].samples[ww::kOffExpSum];
        const auto& col_x = ds.views[v].samples[ww::kOffExpX];
        const double pred_x = cal.alpha * std::popcount(s.guess) + cal.beta;
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const double pred_sum =
              cal.alpha * attack::hyp_exponent(s.guess, ds.views[v].known[t]) + cal.beta;
          const double e1 = col_sum[t] - pred_sum;
          const double e2 = col_x[t] - pred_x;
          sse += e1 * e1 + e2 * e2;
        }
      }
      if (sse < best_sse) {
        best_sse = sse;
        pick = s.guess;
      }
    }
  } else {
    // Degenerate calibration: fall back to the magnitude prior.
    for (const auto& s : ties) {
      const auto dist = [&](std::uint32_t e) {
        return e > config.exp_prior ? e - config.exp_prior : config.exp_prior - e;
      };
      if (dist(s.guess) < dist(pick)) pick = s.guess;
    }
  }
  phase.top = std::move(ties);
  phase.value = pick;
}

// The shared staged pipeline; `scorer` supplies modeled(off),
// phase_maker(offsets, config), and whether the exponent stage needs
// the alias tie-break.
template <typename Scorer>
ComponentResult staged_attack(const ComponentDataset& ds, const ComponentAttackConfig& config,
                              const Scorer& scorer) {
  obs::Span span("attack.component");
  ComponentResult res;

  const auto filt = [&](std::initializer_list<std::size_t> offs) {
    std::vector<std::size_t> o;
    for (const std::size_t off : offs) {
      if (scorer.modeled(off)) o.push_back(off);
    }
    return o;
  };
  const auto run = [&](const std::vector<std::size_t>& offs, std::uint64_t count,
                       auto&& guess_at, std::size_t keep, auto&& hyp) {
    return run_profiled_phase(ds, offs, count, guess_at, keep, hyp,
                              scorer.phase_maker(offs, config));
  };

  // 1. Sign.
  {
    const auto offs = filt({ww::kOffSign});
    res.sign_phase = run(
        offs, 2, [](std::uint64_t i) { return static_cast<std::uint32_t>(i); }, 2,
        [](std::uint32_t g, const KnownOperand& k, std::size_t) {
          return attack::hyp_sign(g != 0, k);
        });
    res.sign = res.sign_phase.value != 0;
    note_phase(config, "sign", 2, res.sign_phase);
  }

  // 2. Exponent: the secret-exponent register load (absolute level)
  // jointly with the wrapped sum. The template's quadratic LL sees
  // through the Pearson alias family, so its argmax IS the pick; the
  // LR covariance is shift-blind like Pearson and re-forms the tie
  // class, resolved by the calibrated absolute-level match.
  {
    const auto offs = filt({ww::kOffExpX, ww::kOffExpSum});
    const std::uint64_t count = config.exp_max - config.exp_min + 1;
    res.exp_phase = run(
        offs, count,
        [&](std::uint64_t i) { return static_cast<std::uint32_t>(config.exp_min + i); },
        static_cast<std::size_t>(count),
        [](std::uint32_t g, const KnownOperand& k, std::size_t off) {
          return off == ww::kOffExpX ? static_cast<double>(std::popcount(g))
                                     : attack::hyp_exponent(g, k);
        });
    if (scorer.exp_tiebreak()) resolve_exponent_aliases(ds, config, res.exp_phase);
    res.exponent = res.exp_phase.value;
    note_phase(config, "exponent", static_cast<std::size_t>(count), res.exp_phase);
  }

  // 3. Mantissa low half: extend on the operand load + partial
  // products, prune the survivors on the full joint offset set.
  {
    const bool exhaustive = config.low_candidates.empty();
    const std::uint64_t count =
        exhaustive ? (std::uint64_t{1} << 25) : config.low_candidates.size();
    const auto guess_at = [&](std::uint64_t i) {
      return exhaustive ? static_cast<std::uint32_t>(i) : config.low_candidates[i];
    };
    const auto hyp_low = [](std::uint32_t g, const KnownOperand& k, std::size_t off) {
      switch (off) {
        case ww::kOffXLo:
          return static_cast<double>(std::popcount(g));
        case ww::kOffProdLL:
          return attack::hyp_low_mul_ll(g, k);
        case ww::kOffProdLH:
          return attack::hyp_low_mul_lh(g, k);
        default:
          return attack::hyp_low_add_z1a(g, k);
      }
    };
    res.low_extend = run(filt({ww::kOffXLo, ww::kOffProdLL, ww::kOffProdLH}), count,
                         guess_at, config.extend_top_k, hyp_low);
    note_phase(config, "low_extend", static_cast<std::size_t>(count), res.low_extend);

    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.low_extend.top.size());
    for (const auto& s : res.low_extend.top) survivors.push_back(s.guess);
    res.low_prune = run(
        filt({ww::kOffXLo, ww::kOffProdLL, ww::kOffProdLH, ww::kOffAccZ1a}),
        survivors.size(), [&](std::uint64_t i) { return survivors[i]; }, survivors.size(),
        hyp_low);
    res.x0 = res.low_prune.value;
    note_phase(config, "low_prune", survivors.size(), res.low_prune);
  }

  // 4. Mantissa high half: same shape, with the recovered x0.
  {
    const bool exhaustive = config.high_candidates.empty();
    const std::uint64_t count =
        exhaustive ? (std::uint64_t{1} << 27) : config.high_candidates.size();
    const auto guess_at = [&](std::uint64_t i) {
      return exhaustive ? static_cast<std::uint32_t>((std::uint64_t{1} << 27) | i)
                        : config.high_candidates[i];
    };
    const std::uint32_t x0 = res.x0;
    const auto hyp_high = [x0](std::uint32_t g, const KnownOperand& k, std::size_t off) {
      switch (off) {
        case ww::kOffXHi:
          return static_cast<double>(std::popcount(g));
        case ww::kOffProdHL:
          return attack::hyp_high_mul_hl(g, k);
        case ww::kOffProdHH:
          return attack::hyp_high_mul_hh(g, k);
        case ww::kOffAccZ1b:
          return attack::hyp_high_add_z1b(g, x0, k);
        default:
          return attack::hyp_high_add_zu(g, x0, k);
      }
    };
    res.high_extend = run(filt({ww::kOffXHi, ww::kOffProdHL, ww::kOffProdHH}), count,
                          guess_at, config.extend_top_k, hyp_high);
    note_phase(config, "high_extend", static_cast<std::size_t>(count), res.high_extend);

    std::vector<std::uint32_t> survivors;
    survivors.reserve(res.high_extend.top.size());
    for (const auto& s : res.high_extend.top) survivors.push_back(s.guess);
    res.high_prune = run(
        filt({ww::kOffXHi, ww::kOffProdHL, ww::kOffProdHH, ww::kOffAccZ1b, ww::kOffAccZu}),
        survivors.size(), [&](std::uint64_t i) { return survivors[i]; }, survivors.size(),
        hyp_high);
    res.x1 = res.high_prune.value;
    note_phase(config, "high_prune", survivors.size(), res.high_prune);
  }

  res.bits = attack::assemble_bits(res.sign, res.exponent, res.x1, res.x0);
  if (obs::sink() != nullptr) {
    obs::event("ep.component")
        .with("label", config.obs_label)
        .with("traces", ds.num_traces)
        .with("bits", res.bits)
        .with("wall_us", span.elapsed_us())
        .emit();
  }
  return res;
}

// Adapters binding each scorer's profile to the shared staging.
struct TemplatePhases {
  const PooledProfile& prof;

  [[nodiscard]] bool modeled(std::size_t off) const { return prof.modeled[off]; }
  [[nodiscard]] static bool exp_tiebreak() { return false; }
  [[nodiscard]] auto phase_maker(const std::vector<std::size_t>& offs,
                                 const ComponentAttackConfig&) const {
    std::vector<double> alpha(offs.size()), beta(offs.size());
    for (std::size_t i = 0; i < offs.size(); ++i) {
      alpha[i] = prof.alpha[offs[i]];
      beta[i] = prof.beta[offs[i]];
    }
    std::vector<double> prec = phase_precision(prof, offs);
    return [alpha = std::move(alpha), beta = std::move(beta),
            prec = std::move(prec)](std::size_t g) {
      return TemplateDistinguisher(g, alpha, beta, prec);
    };
  }
};

struct LrPhases {
  const std::array<LrHead, PooledProfile::kDim>& heads;
  const std::array<bool, PooledProfile::kDim>& trained;

  // kOffExpX's hypothesis (popcount of the guess) is constant across
  // traces, so the centered covariance statistic is undefined on it --
  // just like Pearson, which is why CPA never correlates on that
  // offset either. Including it would only add T*h~^2 to the per-guess
  // energy denominator and deflate guesses far from the training mean.
  // Its absolute level is still exploited, by the calibrated tie-break.
  [[nodiscard]] bool modeled(std::size_t off) const {
    return off != ww::kOffExpX && trained[off];
  }
  [[nodiscard]] static bool exp_tiebreak() { return true; }
  [[nodiscard]] auto phase_maker(const std::vector<std::size_t>& offs,
                                 const ComponentAttackConfig& config) const {
    std::vector<LrHead> sub;
    sub.reserve(offs.size());
    for (const std::size_t off : offs) sub.push_back(heads[off]);
    const std::size_t batch = config.kernel.batch_traces;
    return [sub = std::move(sub), batch](std::size_t g) {
      return LrDistinguisher(g, sub, batch);
    };
  }
};

}  // namespace

ComponentResult TemplateScorer::attack(const ComponentDataset& ds,
                                       const ComponentAttackConfig& config) const {
  return staged_attack(ds, config, TemplatePhases{profile_});
}

ComponentResult LrScorer::attack(const ComponentDataset& ds,
                                 const ComponentAttackConfig& config) const {
  return staged_attack(ds, config, LrPhases{heads_, trained_});
}

std::shared_ptr<const attack::ComponentScorer> make_component_scorer(
    const BackendSelection& sel, const sca::DeviceConfig& device, unsigned logn) {
  if (sel.backend == Backend::kCpa) return nullptr;
  obs::Span span("distinguisher.profile");

  // Clone device: a keypair the adversary fully controls, measured
  // under the same device model. Everything below is fixed by
  // (sel, device, logn) alone.
  ChaCha20Prng rng(sel.profile_seed);
  const falcon::KeyPair clone = falcon::keygen(logn, rng);

  sca::CampaignConfig cc;
  cc.num_traces = sel.profile_traces;
  cc.device = device;
  cc.seed = sel.profile_seed;
  const std::vector<sca::TraceSet> sets = sca::run_full_campaign(clone.sk, cc);

  const std::size_t hn = std::size_t{1} << (logn - 1);
  const std::size_t pc =
      std::min(std::max<std::size_t>(sel.profile_components, 1), hn * 2);
  std::vector<ComponentDataset> dss;
  std::vector<fpr::Fpr> secrets;
  dss.reserve(pc);
  secrets.reserve(pc);
  for (std::size_t idx = 0; idx < pc; ++idx) {
    const std::size_t slot = idx % hn;
    const bool imag = idx >= hn;
    dss.push_back(attack::build_component_dataset(sets[slot], imag));
    secrets.push_back(clone.sk.b01[slot + (imag ? hn : 0)]);
  }

  if (sel.backend == Backend::kTemplate) return make_template_scorer(dss, secrets);
  return make_lr_scorer(dss, secrets, sel);
}

std::shared_ptr<const attack::ComponentScorer> make_template_scorer(
    std::span<const ComponentDataset> dss, std::span<const fpr::Fpr> secrets) {
  return std::make_shared<TemplateScorer>(profile_pooled(dss, secrets));
}

std::shared_ptr<const attack::ComponentScorer> make_lr_scorer(
    std::span<const ComponentDataset> dss, std::span<const fpr::Fpr> secrets,
    const BackendSelection& sel) {
  // One head per modeled offset, trained on (sample, HW / max_hw)
  // pairs in dataset/view/trace order -- deterministic end to end.
  std::array<LrHead, PooledProfile::kDim> heads{};
  std::array<bool, PooledProfile::kDim> trained{};
  std::vector<double> xs, ts;
  for (std::size_t off = 0; off < PooledProfile::kDim; ++off) {
    xs.clear();
    ts.clear();
    double max_hw = 0.0;
    for (std::size_t i = 0; i < dss.size(); ++i) {
      const auto& ds = dss[i];
      for (unsigned v = 0; v < 2; ++v) {
        for (std::size_t t = 0; t < ds.num_traces; ++t) {
          const double h =
              attack::template_predicted_hw(off, secrets[i].bits(), ds.views[v].known[t]);
          if (h < 0.0) continue;
          xs.push_back(ds.views[v].samples[off][t]);
          ts.push_back(h);
          max_hw = std::max(max_hw, h);
        }
      }
    }
    if (xs.size() < 8 || max_hw <= 0.0) continue;
    for (auto& t : ts) t /= max_hw;
    heads[off] = train_lr_head(xs, ts, max_hw, sel);
    trained[off] = true;
  }
  return std::make_shared<LrScorer>(heads, trained);
}

}  // namespace fd::distinguisher
