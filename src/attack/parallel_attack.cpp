#include "attack/parallel_attack.h"

#include <algorithm>
#include <mutex>

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

}  // namespace

std::vector<ComponentResult> attack_all_components_parallel(
    const std::vector<sca::TraceSet>& sets, const ComponentConfigFn& config_for,
    exec::ThreadPool* pool) {
  obs::Span span("attack.all_components");
  const std::size_t hn = sets.size();
  const std::size_t n = hn * 2;
  std::vector<ComponentResult> results(n);
  // One component per chunk: component attacks are the coarse unit of
  // work (seconds each at paper sizes), so finer chunking buys nothing
  // and per-index chunks keep the static plan trivially balanced.
  exec::parallel_for_chunks(pool, n, n, [&](exec::ChunkRange r, std::size_t) {
    for (std::size_t idx = r.begin; idx < r.end; ++idx) {
      const ComponentIndex ci = component_index(idx, hn);
      const ComponentDataset ds = build_component_dataset(sets[ci.slot], ci.imag);
      results[idx] = attack_component(ds, config_for(ci));
    }
  });
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
  const unsigned jitter_max = reader.meta().jitter_max;
  const std::size_t n = hn * 2;
  if (results.size() != n) results.assign(n, ComponentResult{});
  if (accepted_traces.size() != n) accepted_traces.assign(n, 0);

  std::mutex mu;  // guards first_error and the aggregate report
  std::string first_error;
  QualityReport total;

  // Single-pass demux: collect the requested components' unique slots,
  // fill them in ONE serial archive scan, then screen/attack private
  // copies in parallel. The screened copy per component keeps results
  // and the aggregate report independent of which components share a
  // slot.
  std::vector<std::size_t> slots;
  for (const std::size_t idx : components) {
    if (idx >= n) {
      if (first_error.empty()) {
        first_error = "component id " + std::to_string(idx) + " out of range";
      }
      continue;
    }
    slots.push_back(component_index(idx, hn).slot);
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<sca::TraceSet> slot_sets;
  count_archive_scan();
  if (!sca::load_trace_sets_for(reader, slots, slot_sets)) {
    if (error != nullptr) *error = "failed to demux archive records";
    return false;
  }
  std::vector<std::size_t> slot_of(hn, static_cast<std::size_t>(-1));  // slot -> set
  for (std::size_t i = 0; i < slots.size(); ++i) slot_of[slots[i]] = i;

  exec::parallel_for_chunks(pool, components.size(), components.size(),
                            [&](exec::ChunkRange r, std::size_t) {
    for (std::size_t k = r.begin; k < r.end; ++k) {
      const std::size_t idx = components[k];
      if (idx >= n) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.empty()) {
          first_error = "component id " + std::to_string(idx) + " out of range";
        }
        continue;
      }
      const ComponentIndex ci = component_index(idx, hn);
      sca::TraceSet set = slot_sets[slot_of[ci.slot]];  // private screened copy
      if (set.traces.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.empty()) {
          first_error = "no records for slot " + std::to_string(ci.slot);
        }
        continue;
      }
      const QualityReport rep = screen_trace_set(set, gate, jitter_max);
      if (set.traces.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.empty()) {
          first_error =
              "quality gate rejected every trace of slot " + std::to_string(ci.slot);
        }
        continue;
      }
      const ComponentDataset ds = build_component_dataset(set, ci.imag);
      results[idx] = attack_component(ds, config_for(ci));
      accepted_traces[idx] = set.traces.size();
      std::lock_guard<std::mutex> lock(mu);
      total.add(rep);
    }
  });
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
