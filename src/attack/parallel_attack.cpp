#include "attack/parallel_attack.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fd::attack {

namespace {

// One count per record-reading pass an attack-layer caller starts over
// an archive. The single-pass pins (tests, DESIGN.md section 11) watch
// this counter; capture-side readers (shard merging, record counting)
// deliberately don't feed it.
void count_archive_scan() {
  obs::MetricsRegistry::global().counter("attack.archive.scans").add(1);
}

// The per-component task body of both fan-outs: for each listed
// component, screen its slot's set (sets[slot]) through `gate`,
// build the dataset, attack, and store the result by component index.
// A disabled gate is the identity, so the shared set is attacked as is;
// an enabled one edits a private copy, which keeps results and the
// summed report independent of which components share a slot. Errors
// go to `first_error` unless it already holds one.
void attack_slot_sets(std::span<const sca::TraceSet> sets, const QualityConfig& gate,
                      unsigned jitter_max, const ComponentConfigFn& config_for,
                      exec::ThreadPool* pool, std::span<const std::size_t> components,
                      std::vector<ComponentResult>& results,
                      std::vector<std::size_t>& accepted_traces, QualityReport& total,
                      std::string& first_error) {
  const std::size_t hn = sets.size();
  std::mutex mu;  // guards first_error and total
  const auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.empty()) first_error = std::move(what);
  };
  // One component per chunk: component attacks are the coarse unit of
  // work (seconds each at paper sizes), so finer chunking buys nothing
  // and per-index chunks keep the static plan trivially balanced.
  exec::parallel_for_chunks(pool, components.size(), components.size(),
                            [&](exec::ChunkRange r, std::size_t) {
    for (std::size_t k = r.begin; k < r.end; ++k) {
      const std::size_t idx = components[k];
      if (idx >= 2 * hn) {
        fail("component id " + std::to_string(idx) + " out of range");
        continue;
      }
      const ComponentIndex ci = component_index(idx, hn);
      const sca::TraceSet& shared = sets[ci.slot];
      if (shared.traces.empty()) {
        fail("no records for slot " + std::to_string(ci.slot));
        continue;
      }
      sca::TraceSet screened;
      if (gate.enabled) screened = shared;
      // screen_trace_set takes the set by mutable reference; a disabled
      // gate only counts it, so the shared set is never written.
      const QualityReport rep = screen_trace_set(
          gate.enabled ? screened : const_cast<sca::TraceSet&>(shared), gate, jitter_max);
      const sca::TraceSet& set = gate.enabled ? screened : shared;
      if (set.traces.empty()) {
        fail("quality gate rejected every trace of slot " + std::to_string(ci.slot));
        continue;
      }
      const ComponentDataset ds = build_component_dataset(set, ci.imag);
      results[idx] = attack_component(ds, config_for(ci));
      accepted_traces[idx] = set.traces.size();
      std::lock_guard<std::mutex> lock(mu);
      total.add(rep);
    }
  });
}

}  // namespace

std::vector<ComponentResult> attack_all_components_parallel(
    const std::vector<sca::TraceSet>& sets, const ComponentConfigFn& config_for,
    exec::ThreadPool* pool) {
  obs::Span span("attack.all_components");
  const std::size_t hn = sets.size();
  const std::size_t n = hn * 2;
  std::vector<std::size_t> components(n);
  std::iota(components.begin(), components.end(), std::size_t{0});
  std::vector<ComponentResult> results(n);
  std::vector<std::size_t> accepted(n);
  QualityReport quality;
  std::string error;
  attack_slot_sets(sets, QualityConfig{}, 0, config_for, pool, components, results,
                   accepted, quality, error);
  obs::MetricsRegistry::global().counter("attack.components").add(n);
  return results;
}

bool attack_components_gated(const std::string& archive_path, const QualityConfig& gate,
                             const ComponentConfigFn& config_for, exec::ThreadPool* pool,
                             std::span<const std::size_t> components,
                             std::vector<ComponentResult>& results,
                             std::vector<std::size_t>& accepted_traces,
                             QualityReport* quality, std::string* error) {
  obs::Span span("attack.components.gated");
  tracestore::ArchiveReader reader;
  if (!reader.open(archive_path)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  const std::size_t hn = reader.meta().num_slots;
  const std::size_t n = hn * 2;
  if (results.size() != n) results.assign(n, ComponentResult{});
  if (accepted_traces.size() != n) accepted_traces.assign(n, 0);

  // Single-pass demux: collect the requested components' unique slots
  // and fill them in ONE serial archive scan; the tasks then screen and
  // attack them in parallel. Out-of-range ids are reported in list order.
  std::string first_error;
  std::vector<std::size_t> slots;
  for (const std::size_t idx : components) {
    if (idx < n) {
      slots.push_back(component_index(idx, hn).slot);
    } else if (first_error.empty()) {
      first_error = "component id " + std::to_string(idx) + " out of range";
    }
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<sca::TraceSet> loaded;
  count_archive_scan();
  if (!sca::load_trace_sets_for(reader, slots, loaded)) {
    if (error != nullptr) *error = "failed to demux archive records";
    return false;
  }
  std::vector<sca::TraceSet> slot_sets(hn);  // unrequested slots stay empty
  for (sca::TraceSet& set : loaded) slot_sets[set.slot] = std::move(set);

  QualityReport total;
  attack_slot_sets(slot_sets, gate, reader.meta().jitter_max, config_for, pool,
                   components, results, accepted_traces, total, first_error);
  if (quality != nullptr) *quality = total;
  if (!first_error.empty()) {
    if (error != nullptr) *error = first_error;
    return false;
  }
  obs::MetricsRegistry::global().counter("attack.components").add(components.size());
  return true;
}

bool attack_checkpointed(const std::string& archive_path, const QualityConfig& gate,
                         const ComponentConfigFn& config_for, exec::ThreadPool* pool,
                         std::span<const std::size_t> todo, std::size_t batch_size,
                         CheckpointState& st, QualityReport& quality, const BatchHooks& hooks,
                         std::string* error) {
  const std::size_t step = batch_size == 0 ? std::max<std::size_t>(1, todo.size()) : batch_size;
  for (std::size_t b = 0; b < todo.size(); b += step) {
    if (hooks.before) hooks.before();
    const std::span<const std::size_t> batch = todo.subspan(b, std::min(step, todo.size() - b));
    QualityReport q;
    if (!attack_components_gated(archive_path, gate, config_for, pool, batch, st.results,
                                 st.accepted_traces, &q, error)) {
      return false;
    }
    quality.add(q);
    for (const std::size_t idx : batch) st.done[idx] = 1;
    if (hooks.after) hooks.after(batch);
  }
  return true;
}

}  // namespace fd::attack
