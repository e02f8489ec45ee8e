#pragma once
// Fleet wire protocol: the coordinator <-> worker frame format.
//
// A fleet run (coordinator.h) shards one recovery campaign across
// `fd-attack --worker` subprocesses connected by pipes. Everything that
// crosses a pipe is a length-prefixed, versioned frame:
//
//   u32 magic "FDFL" | u16 version | u16 type | u32 payload_len |
//   u32 crc | payload
//
// all little-endian. The magic + version land in every frame (not just
// a handshake) so a desynchronized or truncated stream is detected at
// the very next frame boundary instead of being misparsed; payloads are
// bounded (kMaxPayload) so a corrupt length can't trigger a giant
// allocation; the CRC (tracestore::crc32 over type + length + payload,
// new in v4 for the TCP transport) latches ANY in-flight byte flip --
// a fault-injected or genuinely lossy link can tear a connection down
// but can never silently alter a task or a result. FrameDecoder
// reassembles frames from arbitrary read() fragments -- pipes and
// sockets deliver whatever they like.
//
// Payload catalogue (all serde here, so both endpoints share one
// encoding and the round-trip tests in tests/test_fleet.cpp pin it):
//   kHello      worker -> coordinator: protocol version + pid
//   kConfig     coordinator -> worker: SessionConfig (the experiment;
//               the victim key travels as its keygen seed string, never
//               as key material)
//   kTask       coordinator -> worker: TaskSpec (capture shard or
//               component-range attack shard)
//   kHeartbeat  worker -> coordinator: liveness tick (empty payload)
//   kProgress   worker -> coordinator: Progress (components done so far)
//   kTelemetry  worker -> coordinator: one obs JSONL line, forwarded
//               verbatim; the coordinator tags it with the worker id
//               and appends it to the unified telemetry file
//   kResult     worker -> coordinator: TaskResult (capture counts, or
//               per-component results + quality + archive-scan delta;
//               every score as raw IEEE-754 bits -- bit-exact)
//   kShutdown   coordinator -> worker: drain and exit 0
//   kError      worker -> coordinator: fatal worker-side message
//   kAuth       coordinator -> worker (TCP serve mode): session token;
//               a --serve worker requires it as the FIRST frame of
//               every connection and drops unauthenticated peers
//   kFileStart/kFileChunk/kFileEnd
//               chunked file transfer (archive staging): remote capture
//               shards stream back to the coordinator, and the merged
//               archive streams out to remote attack workers. Each
//               chunk carries its own tracestore::crc32 (the .fdtrace
//               chunk-CRC primitive) so a transfer is verifiable and
//               resumable at chunk granularity after a reconnect
//
// Type 8 is retired (v5's shard-fold frame, which nothing read) and
// stays unused. Any type outside this catalogue latches the decoder
// corrupt: versions match exactly, so a well-formed peer never sends
// one.
//
// Decode functions are total: any truncated, overlong, or out-of-range
// payload returns false and never throws -- a dying worker's half
// frame must not take the coordinator down with it.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/checkpoint.h"
#include "attack/key_recovery.h"
#include "attack/quality.h"
#include "sca/faults.h"

namespace fd::fleet {

inline constexpr std::uint32_t kFrameMagic = 0x4C464446;  // "FDFL" little-endian
// v2: SessionConfig carries trace_id + profile_interval_ms, TaskSpec a
// parent span context, Progress/TaskResult the worker task's span id --
// the span-context propagation that stitches a whole fleet run into
// one trace tree (DESIGN.md section 13). Frames have no compatibility
// negotiation by design (coordinator and workers are the same binary);
// a version mismatch latches the decoder corrupt.
// v3: SessionConfig carries the distinguisher BackendSelection (backend
// id + profiling recipe; workers rebuild the scorer deterministically,
// no profile bytes cross the wire) and TaskSpec a backend tag that
// attack workers validate against the session -- a stale task from a
// differently-configured coordinator must not poison a backend-tagged
// checkpoint.
// v4: frames grow a payload CRC (type + length + payload) so byte
// corruption on a real network latches the decoder instead of passing
// silently; kAuth carries the session token for the TCP serve mode;
// kFileStart/kFileChunk/kFileEnd stage archives across machines;
// TaskSpec gains staging fields (stage, stage_have_chunks,
// archive_generation) and SessionConfig the staging chunk size.
// v5: SessionConfig's attack config carries cpa_shards (the
// StreamingScan guess-shard count -- a wall-clock knob, byte-identical
// results at any value, but remote workers must honor it); TaskSpec
// gains a failure-injection hook for the shard-fold frame.
// v6: the shard-fold frame (type 8) and its TaskSpec hook are retired;
// SessionConfig drops the archive-scan strategy flag (attack rounds
// always demux in one archive scan); the decoder rejects unknown frame
// types instead of passing them on.
inline constexpr std::uint16_t kProtocolVersion = 6;
inline constexpr std::size_t kFrameHeaderSize = 16;
// Largest payload a peer will accept. Generous for real traffic (an
// n = 1024 attack shard's results are ~100 KB) yet small enough that a
// corrupt length field fails fast.
inline constexpr std::size_t kMaxPayload = 64u << 20;

enum class FrameType : std::uint16_t {
  kHello = 1,
  kConfig = 2,
  kTask = 3,
  kHeartbeat = 4,
  kProgress = 5,
  kTelemetry = 6,
  kResult = 7,
  // 8 was the shard-fold frame (retired in v6); never reuse it.
  kShutdown = 9,
  kError = 10,
  kAuth = 11,
  kFileStart = 12,
  kFileChunk = 13,
  kFileEnd = 14,
};

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

// Appends one complete frame (header + payload) to `out`.
void encode_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload);

// Incremental frame reassembly over arbitrary byte fragments. feed()
// whatever read() returned; next() pops complete frames in order. A
// bad magic, unknown version, unknown frame type, oversized length, or
// CRC mismatch latches `corrupt` (the stream is unrecoverable past that
// point -- frames have no resync marker by design; the coordinator
// kills the worker instead).
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  [[nodiscard]] bool next(Frame& out);
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

// --- session configuration -------------------------------------------------

// Everything a worker needs to reproduce the coordinator's experiment
// exactly. The victim secret never crosses the pipe: both sides run
// falcon::keygen(logn, ChaCha20Prng(victim_seed)) and the determinism
// of keygen makes the keys identical.
struct SessionConfig {
  unsigned logn = 5;
  std::string victim_seed = "victim key seed";
  attack::KeyRecoveryConfig attack;  // attack.threads = worker-internal pool
  sca::FaultConfig faults;
  attack::QualityConfig quality;
  std::size_t checkpoint_every = 8;      // worker sub-batch + persist cadence
  std::uint64_t session_hash = 0;        // binds worker checkpoints to the run
  std::size_t heartbeat_interval_ms = 50;
  // Trace root every worker installs via obs::set_trace_root before
  // its first span (derived from session_hash, never wall clock).
  std::uint64_t trace_id = 0;
  // Resource-sampler cadence; 0 = sampler off (telemetry disabled).
  std::size_t profile_interval_ms = 0;
  // Archive-staging chunk size (bytes) both endpoints must agree on, so
  // a resumed transfer's chunk boundaries line up with the partial file
  // already on disk.
  std::size_t stage_chunk_bytes = 64u << 10;
};

void encode_session(std::vector<std::uint8_t>& out, const SessionConfig& cfg);
[[nodiscard]] bool decode_session(std::span<const std::uint8_t> bytes, SessionConfig& out);

// --- tasks -----------------------------------------------------------------

enum class TaskKind : std::uint8_t {
  kCapture = 0,  // one capture shard -> a .fdtrace shard file
  kAttack = 1,   // one contiguous component range against the archive
};

struct TaskSpec {
  std::uint32_t task_id = 0;
  TaskKind kind = TaskKind::kCapture;

  // kCapture: replicate exactly one shard of run_campaign_sharded --
  // the seed and fault offset are computed coordinator-side from the
  // shard plan, so the merged archive is byte-identical to the
  // single-process sharded capture.
  std::uint64_t capture_traces = 0;
  std::uint64_t capture_seed = 0;
  std::uint64_t fault_query_offset = 0;
  std::string out_path;

  // kAttack: the component ids to attack and where the shard's own
  // .fdckpt lives (stable per task, not per worker, so a reassigned
  // shard resumes from the dead worker's checkpoint).
  std::string archive_path;
  std::string checkpoint_path;
  std::vector<std::uint32_t> components;

  // Failure-injection hooks for the robustness tests; zero in real
  // runs. kill_after: raise(SIGKILL) after that many components have
  // been completed AND persisted this execution. hang_ms: mute
  // heartbeats and sleep before starting (heartbeat-timeout path).
  std::uint32_t kill_after = 0;
  std::uint32_t hang_ms = 0;

  // Span id of the coordinator's JobGraph stage span that created this
  // task; the worker re-parents its task span under it so the campaign
  // forms one cross-process tree.
  std::uint64_t parent_span = 0;

  // Distinguisher backend this task was scheduled under
  // (distinguisher::Backend's underlying value). Attack workers refuse
  // a task whose tag disagrees with the session's backend.
  std::uint8_t backend = 0;

  // Remote staging. stage = the worker has no shared filesystem with
  // the coordinator: it remaps paths into its own work dir, streams
  // capture output back over kFile* frames, and resolves archive_path
  // against the archive generation it was last pushed. stage_have_chunks
  // tells a (re)dispatched capture task how many chunks the coordinator
  // already holds, so staging resumes instead of restarting.
  bool stage = false;
  std::uint32_t stage_have_chunks = 0;
  std::uint64_t archive_generation = 0;
};

void encode_task(std::vector<std::uint8_t>& out, const TaskSpec& spec);
[[nodiscard]] bool decode_task(std::span<const std::uint8_t> bytes, TaskSpec& out);

// --- results ---------------------------------------------------------------

struct ComponentOutcome {
  std::uint32_t component = 0;          // global component id
  attack::ComponentResult result;       // raw-bits serde: bit-exact
  std::uint64_t accepted = 0;           // post-gate trace count (D)
};

struct TaskResult {
  std::uint32_t task_id = 0;
  TaskKind kind = TaskKind::kCapture;
  bool ok = false;
  std::string error;

  // kCapture
  std::uint64_t queries = 0;
  std::uint64_t records = 0;

  // kAttack. `quality` counts only the traces screened by THIS
  // execution: components restored from a predecessor's checkpoint ship
  // their results but not the dead worker's unreported gate counts
  // (observational data; the key-identity contract doesn't cover it).
  std::vector<ComponentOutcome> outcomes;
  attack::QualityReport quality;
  std::uint64_t archive_scans = 0;  // attack.archive.scans delta
  std::uint64_t span = 0;           // the worker-side task span's id
};

void encode_result(std::vector<std::uint8_t>& out, const TaskResult& res);
[[nodiscard]] bool decode_result(std::span<const std::uint8_t> bytes, TaskResult& out);

// --- small frames ----------------------------------------------------------

struct Hello {
  std::uint16_t version = kProtocolVersion;
  std::uint64_t pid = 0;
};
void encode_hello(std::vector<std::uint8_t>& out, const Hello& h);
[[nodiscard]] bool decode_hello(std::span<const std::uint8_t> bytes, Hello& out);

struct Progress {
  std::uint32_t task_id = 0;
  std::uint64_t completed = 0;  // components finished (incl. restored)
  std::uint64_t total = 0;
  std::uint64_t span = 0;  // the worker-side task span's id
};
void encode_progress(std::vector<std::uint8_t>& out, const Progress& p);
[[nodiscard]] bool decode_progress(std::span<const std::uint8_t> bytes, Progress& out);

// --- serve-mode handshake and archive staging ------------------------------

// First frame on every TCP connection, coordinator -> worker. The token
// is a shared secret both sides got on their command line; session_hash
// is informational (0 before the session is configured).
struct AuthFrame {
  std::string token;
  std::uint64_t session_hash = 0;
};
void encode_auth(std::vector<std::uint8_t>& out, const AuthFrame& a);
[[nodiscard]] bool decode_auth(std::span<const std::uint8_t> bytes, AuthFrame& out);

enum class FileRole : std::uint8_t {
  kStageOut = 0,     // worker -> coordinator: a capture shard
  kArchivePush = 1,  // coordinator -> worker: the merged archive
};

// One chunked transfer: Start (geometry), num_chunks x Chunk (each
// CRC'd), End (totals). first_chunk > 0 resumes a transfer whose prefix
// the receiver already persisted. A CRC mismatch is handled exactly
// like frame corruption: the connection is torn down and the transfer
// resumes from the last good chunk after reconnect.
struct FileStart {
  std::uint32_t file_id = 0;  // task_id (stage-out) or generation (push)
  FileRole role = FileRole::kStageOut;
  std::uint64_t total_bytes = 0;
  std::uint32_t chunk_bytes = 0;
  std::uint32_t num_chunks = 0;
  std::uint32_t first_chunk = 0;
  std::string name;  // basename, diagnostic only
};
void encode_file_start(std::vector<std::uint8_t>& out, const FileStart& f);
[[nodiscard]] bool decode_file_start(std::span<const std::uint8_t> bytes, FileStart& out);

struct FileChunk {
  std::uint32_t file_id = 0;
  std::uint32_t index = 0;
  std::uint32_t crc = 0;  // tracestore::crc32 of `data`
  std::vector<std::uint8_t> data;
};
void encode_file_chunk(std::vector<std::uint8_t>& out, const FileChunk& f);
[[nodiscard]] bool decode_file_chunk(std::span<const std::uint8_t> bytes, FileChunk& out);

struct FileEnd {
  std::uint32_t file_id = 0;
  std::uint32_t num_chunks = 0;
  std::uint32_t file_crc = 0;  // whole-file crc32 (chunk CRCs chained)
};
void encode_file_end(std::vector<std::uint8_t>& out, const FileEnd& f);
[[nodiscard]] bool decode_file_end(std::span<const std::uint8_t> bytes, FileEnd& out);

}  // namespace fd::fleet
