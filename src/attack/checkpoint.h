#pragma once
// Pipeline checkpoint persistence (.fdckpt).
//
// A long attack run dies for boring reasons -- OOM kill, power loss,
// ctrl-C -- and at paper scale (n = 1024 components, minutes each) a
// restart from zero is expensive. The pipeline therefore persists its
// per-component progress beside the trace archive: which components are
// finished, their full ComponentResult (every score as raw IEEE-754
// bits, so a resumed run reproduces the original bit-for-bit), and the
// post-quality-gate trace count each decision was based on (the D of
// its confidence interval -- re-measurement needs it to re-evaluate
// acceptance identically after a resume).
//
// Format v2 (little-endian):
//   magic "FDCKPT2\0" | u32 payload_crc32 | payload
//   payload: u64 config_hash | u8 backend | u32 num_components
//            | u32 remeasure_round
//            | per component: u8 done, then iff done:
//                the serialized ComponentResult + u64 accepted_traces
// v2 over v1: the backend byte (distinguisher::Backend of the run that
// wrote the file -- resume refuses a checkpoint from another backend's
// experiment) and a score_sd double in every serialized phase. v1
// files fail the magic check and resume falls back to clean capture.
//
// config_hash binds the file to (victim key, attack config, fault plan,
// quality gate): a checkpoint from a different experiment refuses to
// load rather than silently mixing results. Writes are atomic
// (write-then-rename), so a kill during save leaves the previous
// checkpoint intact.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/extend_prune.h"

namespace fd::attack {

// The checkpoint's ComponentResult encoding, exposed as a standalone
// serde pair because the fleet wire protocol (src/fleet) ships the same
// records between processes. Scores travel as raw IEEE-754 bits, so a
// round trip is bit-exact -- the property both the resume and the
// coordinator-merge determinism contracts stand on.
void serialize_component_result(std::vector<std::uint8_t>& out, const ComponentResult& r);
// Reads one record at `offset` (advanced past it on success). Returns
// false on a truncated or malformed buffer; `out` is unspecified then.
[[nodiscard]] bool deserialize_component_result(std::span<const std::uint8_t> bytes,
                                                std::size_t& offset, ComponentResult& out);

struct CheckpointState {
  std::uint64_t config_hash = 0;
  std::uint8_t backend = 0;                // distinguisher::Backend of the run
  std::uint32_t remeasure_round = 0;       // re-measurement rounds already merged
  std::vector<std::uint8_t> done;          // 1 = component finished
  std::vector<ComponentResult> results;    // valid where done[i]
  std::vector<std::size_t> accepted_traces;  // post-gate D where done[i]

  void reset(std::size_t num_components) {
    config_hash = 0;
    backend = 0;
    remeasure_round = 0;
    done.assign(num_components, 0);
    results.assign(num_components, ComponentResult{});
    accepted_traces.assign(num_components, 0);
  }
  [[nodiscard]] std::size_t completed() const {
    std::size_t c = 0;
    for (const auto d : done) c += d != 0;
    return c;
  }
};

// Atomic save: serializes to `path` + ".tmp" and renames over `path`.
[[nodiscard]] bool save_checkpoint(const std::string& path, const CheckpointState& state,
                                   std::string* error = nullptr);

// Loads and CRC-checks `path`. Fails (with a message) on missing file,
// bad magic, CRC mismatch, or a truncated/overlong payload; checking
// config_hash against the current experiment is the caller's job.
[[nodiscard]] bool load_checkpoint(const std::string& path, CheckpointState& state,
                                   std::string* error = nullptr);

}  // namespace fd::attack
