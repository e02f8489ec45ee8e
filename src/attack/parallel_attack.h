#pragma once
// All-slot attack fan-out over the exec pool.
//
// The paper's cost model is embarrassingly parallel across the n/2
// complex slots (each component's extend-and-prune pipeline touches
// only its own slot's traces), so the parallel surface here is
// *across* components, never inside one: each task runs the unmodified
// serial attack on one component and writes the result into its own
// index of a pre-sized output vector. Reduction is "collect in index
// order", which makes every function below bit-identical to its serial
// loop at any worker count -- the determinism pin of
// tests/test_exec.cpp.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "attack/extend_prune.h"
#include "attack/quality.h"
#include "exec/thread_pool.h"
#include "sca/campaign.h"

namespace fd::attack {

// Component index convention (matches falcon::SecretKey::b01 layout):
// idx in [0, n) maps to slot = idx % (n/2), imaginary part iff
// idx >= n/2.
struct ComponentIndex {
  std::size_t idx = 0;
  std::size_t slot = 0;
  bool imag = false;
};
[[nodiscard]] inline ComponentIndex component_index(std::size_t idx, std::size_t hn) {
  return {idx, idx % hn, idx >= hn};
}

// Builds the attack config of one component; called from worker
// threads, so it must be a pure function of the index (the adversarial
// candidate generators already are: their RNG is seeded per index).
using ComponentConfigFn = std::function<ComponentAttackConfig(const ComponentIndex&)>;

// Attacks all n = 2 * hn components of `sets` (hn slots, re + im each)
// and returns results in component-index order. Null pool -> the same
// loop runs serially; results are identical either way.
[[nodiscard]] std::vector<ComponentResult> attack_all_components_parallel(
    const std::vector<sca::TraceSet>& sets, const ComponentConfigFn& config_for,
    exec::ThreadPool* pool);

// Archive-backed, quality-gated, subset-capable variant -- the one
// archive path of the attack layer: attacks only the listed global
// component ids (resume and re-measurement both need "just these"),
// screening each task's slot records through the quality gate before
// dataset extraction. `results` and `accepted_traces` are indexed by
// global component id and resized to n when they aren't already --
// entries of ids NOT in `components` are left untouched, which is what
// lets checkpoint resume and retry rounds fill in around completed
// work. accepted_traces[idx] is the post-gate trace count feeding that
// component's CPA (the D of its confidence interval). The aggregate
// gate report lands in `quality` (summed in task-completion order; the
// sums are order-invariant). Bit-identity contract: results depend only
// on (archive bytes, gate config, per-component config), never the
// worker count.
//
// The listed components' slots are demultiplexed in ONE serial archive
// scan (sca::load_trace_sets_for), then each component screens and
// attacks a private copy of its slot's set in parallel -- 1 archive
// pass per call, memory O(requested slots). A slot shared by Re and Im
// is screened once per component, so it counts twice in the summed
// QualityReport. A disabled gate (the default QualityConfig) leaves
// every trace in place: results then equal
// attack_all_components_parallel over the same in-memory sets.
[[nodiscard]] bool attack_components_gated(const std::string& archive_path,
                                           const QualityConfig& gate,
                                           const ComponentConfigFn& config_for,
                                           exec::ThreadPool* pool,
                                           std::span<const std::size_t> components,
                                           std::vector<ComponentResult>& results,
                                           std::vector<std::size_t>& accepted_traces,
                                           QualityReport* quality = nullptr,
                                           std::string* error = nullptr);

}  // namespace fd::attack
