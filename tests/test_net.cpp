// Multi-machine fleet networking (DESIGN.md section 15): the socket
// transport, the v4 CRC'd frame protocol under seeded mutation, the
// deterministic network-fault plan, the unified retry policy, and the
// load-bearing acceptance pin of the TCP serve mode:
//
//   - a fleet at any local/remote transport mix (pipes-only, TCP
//     loopback, mixed) recovers a BYTE-IDENTICAL key, identical
//     per-component results, an identical merged archive, and identical
//     archive-scan totals vs the single-process pipeline;
//   - that identity survives an ARMED network-fault plan: a seeded plan
//     forcing mid-frame disconnects and latched corruption completes
//     via reconnect-with-resume, and a plan that blacklists an endpoint
//     (refuse_after) exhausts the reconnect budget and completes via
//     reassignment -- with the same bytes either way;
//   - a wrong --token is a clean bounded failure (the flap cap), never
//     a livelock, and the --serve process survives to serve the next
//     correctly-authenticated coordinator;
//   - a frame type outside the v6 catalogue (the retired type 8, an
//     unassigned type 15) is a detected connection failure on both
//     ends: the decoder latches, a pipe worker exits 1, and a remote
//     speaking one is reaped and its task reassigned.
//
// The protocol half needs no subprocesses; the fleet half spawns real
// `fd-attack --serve` processes on 127.0.0.1:0 (a serve process exits
// with the coordinator's kShutdown, so each run gets a fresh one).

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/recovery_pipeline.h"
#include "common/rng.h"
#include "exec/retry.h"
#include "exec/seed_split.h"
#include "falcon/falcon.h"
#include "fleet/coordinator.h"
#include "fleet/net_faults.h"
#include "fleet/protocol.h"
#include "fleet/transport.h"

namespace fd {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { clear(); }
  ~TempFile() { clear(); }
  void clear() const {
    std::remove(path.c_str());
    std::remove((path + ".fdckpt").c_str());
    std::remove((path + ".fdckpt.tmp").c_str());
    for (int i = 0; i < 8; ++i) {
      std::remove((path + ".shard" + std::to_string(i)).c_str());
    }
    for (int i = 1; i < 16; ++i) {
      const std::string t = path + ".task" + std::to_string(i) + ".fdckpt";
      std::remove(t.c_str());
      std::remove((t + ".tmp").c_str());
    }
  }
  std::string path;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> result_bytes(const attack::ComponentResult& r) {
  std::vector<std::uint8_t> out;
  attack::serialize_component_result(out, r);
  return out;
}

// Same experiment scale as tests/test_fleet.cpp: logn 3 = 8 components,
// two capture shards, two attack shards of 4.
constexpr std::size_t kTraces = 240;
constexpr std::uint64_t kSeed = 0xFD06;

attack::RecoveryPipelineConfig base_pipeline(const std::string& archive) {
  attack::RecoveryPipelineConfig cfg;
  cfg.attack.num_traces = kTraces;
  cfg.attack.device.noise_sigma = 2.0;
  cfg.attack.adversarial_random = 100;
  cfg.attack.seed = kSeed;
  cfg.archive_path = archive;
  cfg.capture_shards = 2;
  cfg.checkpoint_every = 4;
  return cfg;
}

fleet::FleetConfig base_fleet(const std::string& archive, std::size_t workers) {
  fleet::FleetConfig fc;
  fc.logn = 3;
  fc.pipeline = base_pipeline(archive);
  fc.pipeline.keep_archive = true;
  fc.workers = workers;
  fc.components_per_shard = 4;
#ifdef FD_ATTACK_BIN
  fc.worker_binary = FD_ATTACK_BIN;
#endif
  return fc;
}

// --- frame corpus ----------------------------------------------------------

// A representative frame mix: empty, tiny, structured, and a payload
// big enough that a single fragment can't hold it.
struct Corpus {
  std::vector<fleet::Frame> frames;
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> frame_end;  // stream offset one past frame i
};

Corpus build_corpus() {
  Corpus c;
  const auto add = [&c](fleet::FrameType type, std::span<const std::uint8_t> payload) {
    fleet::Frame f;
    f.type = type;
    f.payload.assign(payload.begin(), payload.end());
    c.frames.push_back(f);
    fleet::encode_frame(c.stream, type, payload);
    c.frame_end.push_back(c.stream.size());
  };

  std::vector<std::uint8_t> p;
  add(fleet::FrameType::kHeartbeat, p);

  p.clear();
  fleet::Hello h;
  h.pid = 4242;
  fleet::encode_hello(p, h);
  add(fleet::FrameType::kHello, p);

  p.clear();
  fleet::encode_session(p, fleet::SessionConfig{});
  add(fleet::FrameType::kConfig, p);

  p.clear();
  fleet::TaskSpec spec;
  spec.task_id = 7;
  spec.kind = fleet::TaskKind::kAttack;
  spec.archive_path = "a.fdtrace";
  spec.checkpoint_path = "a.fdckpt";
  spec.components = {0, 1, 2, 3};
  spec.stage = true;
  spec.archive_generation = 3;
  fleet::encode_task(p, spec);
  add(fleet::FrameType::kTask, p);

  p.clear();
  fleet::FileChunk fc;
  fc.file_id = 1;
  fc.index = 9;
  fc.data.resize(100'000);
  for (std::size_t i = 0; i < fc.data.size(); ++i) {
    fc.data[i] = static_cast<std::uint8_t>(exec::mix64(i) & 0xFF);
  }
  fleet::encode_file_chunk(p, fc);
  add(fleet::FrameType::kFileChunk, p);

  p.clear();
  fleet::encode_result(p, fleet::TaskResult{});
  add(fleet::FrameType::kResult, p);
  return c;
}

// Feeds `bytes` to `dec` in fragments whose sizes are seeded draws, so
// frame boundaries never align with read boundaries by construction.
void feed_fragmented(fleet::FrameDecoder& dec, std::span<const std::uint8_t> bytes,
                     std::uint64_t seed) {
  std::size_t pos = 0;
  std::uint64_t n = 0;
  while (pos < bytes.size()) {
    const std::size_t len =
        std::min<std::size_t>(1 + exec::mix64(seed ^ n++) % 977, bytes.size() - pos);
    dec.feed(bytes.subspan(pos, len));
    pos += len;
  }
}

TEST(NetProtocol, SingleBitFlipAnywhereIsNeverSilent) {
  const Corpus c = build_corpus();
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    auto bytes = c.stream;
    const std::size_t byte_pos = exec::mix64(trial * 2 + 1) % bytes.size();
    const unsigned bit = exec::mix64(trial * 2 + 2) % 8;
    bytes[byte_pos] ^= static_cast<std::uint8_t>(1u << bit);

    // The frame the flipped byte lives in: everything before it must
    // still decode byte-exact, nothing at or after it may EVER come out.
    std::size_t flipped_frame = 0;
    while (c.frame_end[flipped_frame] <= byte_pos) ++flipped_frame;

    fleet::FrameDecoder dec;
    feed_fragmented(dec, bytes, trial);
    fleet::Frame f;
    std::size_t delivered = 0;
    while (dec.next(f)) {
      ASSERT_LT(delivered, flipped_frame) << "trial " << trial;
      EXPECT_EQ(f.type, c.frames[delivered].type);
      EXPECT_EQ(f.payload, c.frames[delivered].payload);
      ++delivered;
    }
    EXPECT_EQ(delivered, flipped_frame) << "trial " << trial << " byte " << byte_pos;
    // The flip either latched the decoder (magic/version/type/length/
    // CRC validation) or -- a length-field flip claiming MORE payload
    // than the stream holds -- left it waiting for bytes that never
    // come. Both are detected failures; neither delivers altered data.
    EXPECT_TRUE(dec.corrupt() || dec.buffered() > 0) << "trial " << trial;

    if (dec.corrupt()) {
      // Latched means latched: perfectly valid frames fed afterwards
      // must not resynchronize the stream.
      dec.feed(c.stream);
      EXPECT_FALSE(dec.next(f));
      EXPECT_TRUE(dec.corrupt());
      EXPECT_FALSE(dec.error().empty());
    }
  }
}

TEST(NetProtocol, TruncationDeliversWholeFramesOnly) {
  const Corpus c = build_corpus();
  for (std::uint64_t trial = 0; trial < 48; ++trial) {
    const std::size_t cut = exec::mix64(0xC07 + trial) % c.stream.size();
    fleet::FrameDecoder dec;
    feed_fragmented(dec, std::span(c.stream).first(cut), trial);

    std::size_t expect = 0;
    while (expect < c.frame_end.size() && c.frame_end[expect] <= cut) ++expect;

    fleet::Frame f;
    std::size_t delivered = 0;
    while (dec.next(f)) {
      EXPECT_EQ(f.payload, c.frames[delivered].payload);
      ++delivered;
    }
    EXPECT_EQ(delivered, expect) << "cut at " << cut;
    EXPECT_FALSE(dec.corrupt());
    // A truncated tail stays buffered, waiting for the rest.
    const std::size_t consumed = expect == 0 ? 0 : c.frame_end[expect - 1];
    EXPECT_EQ(dec.buffered(), cut - consumed);
  }
}

TEST(NetProtocol, LengthLiesAreBoundedAndLatched) {
  // An oversized length field must fail fast, not allocate 4 GB.
  std::vector<std::uint8_t> bytes;
  fleet::encode_frame(bytes, fleet::FrameType::kHeartbeat, {});
  bytes[8] = 0xFF;  // payload_len = 0xFFFFFFxx > kMaxPayload
  bytes[9] = 0xFF;
  bytes[10] = 0xFF;
  bytes[11] = 0xFF;
  fleet::FrameDecoder dec;
  dec.feed(bytes);
  fleet::Frame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_TRUE(dec.corrupt());

  // A large-but-legal payload sails through.
  std::vector<std::uint8_t> big(1u << 20, 0xAB);
  std::vector<std::uint8_t> ok;
  fleet::encode_frame(ok, fleet::FrameType::kTelemetry, big);
  fleet::FrameDecoder dec2;
  dec2.feed(ok);
  ASSERT_TRUE(dec2.next(f));
  EXPECT_EQ(f.payload, big);
  EXPECT_FALSE(dec2.corrupt());
}

TEST(NetProtocol, UnknownFrameTypesLatchCorrupt) {
  // Versions match exactly, so a peer never speaks a type this decoder
  // does not know. A CRC-valid frame of the retired type 8 or of a
  // never-assigned type must latch the stream, not be skipped.
  for (const std::uint16_t type : {std::uint16_t{8}, std::uint16_t{15}}) {
    std::vector<std::uint8_t> bytes;
    fleet::encode_frame(bytes, fleet::FrameType::kHeartbeat, {});
    const std::uint8_t payload[] = {1, 2, 3};
    fleet::encode_frame(bytes, static_cast<fleet::FrameType>(type), payload);
    fleet::encode_frame(bytes, fleet::FrameType::kHeartbeat, {});

    fleet::FrameDecoder dec;
    dec.feed(bytes);
    fleet::Frame f;
    ASSERT_TRUE(dec.next(f)) << "type " << type;  // the frame before it
    EXPECT_EQ(f.type, fleet::FrameType::kHeartbeat);
    EXPECT_FALSE(dec.next(f)) << "type " << type;
    EXPECT_TRUE(dec.corrupt()) << "type " << type;
    EXPECT_EQ(dec.error(), "unknown frame type " + std::to_string(type));
    EXPECT_FALSE(dec.next(f)) << "type " << type;  // latched: nothing after
  }
}

TEST(NetProtocol, AuthAndFileFramesRoundTrip) {
  fleet::AuthFrame a;
  a.token = "shared secret \xC3\xA9";
  a.session_hash = 0x0123456789ABCDEFull;
  std::vector<std::uint8_t> bytes;
  fleet::encode_auth(bytes, a);
  fleet::AuthFrame a2;
  ASSERT_TRUE(fleet::decode_auth(bytes, a2));
  EXPECT_EQ(a2.token, a.token);
  EXPECT_EQ(a2.session_hash, a.session_hash);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    fleet::AuthFrame t;
    EXPECT_FALSE(fleet::decode_auth(std::span(bytes).first(cut), t)) << cut;
  }

  fleet::FileStart fs;
  fs.file_id = 11;
  fs.role = fleet::FileRole::kArchivePush;
  fs.total_bytes = 1'000'000;
  fs.chunk_bytes = 4096;
  fs.num_chunks = 245;
  fs.first_chunk = 17;
  fs.name = "merged.fdtrace";
  bytes.clear();
  fleet::encode_file_start(bytes, fs);
  fleet::FileStart fs2;
  ASSERT_TRUE(fleet::decode_file_start(bytes, fs2));
  EXPECT_EQ(fs2.file_id, fs.file_id);
  EXPECT_EQ(fs2.role, fs.role);
  EXPECT_EQ(fs2.total_bytes, fs.total_bytes);
  EXPECT_EQ(fs2.chunk_bytes, fs.chunk_bytes);
  EXPECT_EQ(fs2.num_chunks, fs.num_chunks);
  EXPECT_EQ(fs2.first_chunk, fs.first_chunk);
  EXPECT_EQ(fs2.name, fs.name);

  fleet::FileChunk ch;
  ch.file_id = 11;
  ch.index = 44;
  ch.crc = 0xDEADBEEF;
  ch.data = {1, 2, 3, 4, 5};
  bytes.clear();
  fleet::encode_file_chunk(bytes, ch);
  fleet::FileChunk ch2;
  ASSERT_TRUE(fleet::decode_file_chunk(bytes, ch2));
  EXPECT_EQ(ch2.file_id, ch.file_id);
  EXPECT_EQ(ch2.index, ch.index);
  EXPECT_EQ(ch2.crc, ch.crc);
  EXPECT_EQ(ch2.data, ch.data);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    fleet::FileChunk t;
    EXPECT_FALSE(fleet::decode_file_chunk(std::span(bytes).first(cut), t)) << cut;
  }

  fleet::FileEnd fe;
  fe.file_id = 11;
  fe.num_chunks = 245;
  fe.file_crc = 0x12345678;
  bytes.clear();
  fleet::encode_file_end(bytes, fe);
  fleet::FileEnd fe2;
  ASSERT_TRUE(fleet::decode_file_end(bytes, fe2));
  EXPECT_EQ(fe2.file_id, fe.file_id);
  EXPECT_EQ(fe2.num_chunks, fe.num_chunks);
  EXPECT_EQ(fe2.file_crc, fe.file_crc);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    fleet::FileEnd t;
    EXPECT_FALSE(fleet::decode_file_end(std::span(bytes).first(cut), t)) << cut;
  }
}

// --- retry policy ----------------------------------------------------------

TEST(NetRetry, BackoffScheduleAndExhaustion) {
  exec::RetryPolicy p;
  p.max_attempts = 3;
  p.base_ms = 8;
  EXPECT_FALSE(p.exhausted(2));
  EXPECT_TRUE(p.exhausted(3));
  EXPECT_TRUE(p.exhausted(4));
  // A budget of 0 still permits one attempt.
  p.max_attempts = 0;
  EXPECT_FALSE(p.exhausted(0));
  EXPECT_TRUE(p.exhausted(1));

  // base << (k - 1), capped.
  EXPECT_EQ(p.backoff_ms(0), 0u);
  EXPECT_EQ(p.backoff_ms(1), 8u);
  EXPECT_EQ(p.backoff_ms(2), 16u);
  EXPECT_EQ(p.backoff_ms(3), 32u);
  p.base_ms = 50'000;
  EXPECT_EQ(p.backoff_ms(2), 60'000u);  // max_backoff_ms cap
  p.base_ms = 1;
  p.max_backoff_ms = 1u << 30;
  EXPECT_EQ(p.backoff_ms(60), 1u << 20);  // shift clamp: no UB at high attempt counts
  p.base_ms = 0;
  EXPECT_EQ(p.backoff_ms(5), 0u);  // 0 = retry immediately

  // Jitter is a stateless seeded draw: reproducible per (seed, key,
  // attempt), bounded by the jitter fraction.
  exec::RetryPolicy j;
  j.base_ms = 100;
  j.jitter = 0.5;
  j.seed = 42;
  const std::size_t a = j.backoff_ms(1, 7);
  EXPECT_EQ(j.backoff_ms(1, 7), a);
  EXPECT_GE(a, 50u);
  EXPECT_LE(a, 150u);
  exec::RetryPolicy j2 = j;
  EXPECT_EQ(j2.backoff_ms(1, 7), a);  // same seed, same draw
}

// --- fault plan ------------------------------------------------------------

TEST(NetFaults, DrawsAreDeterministicSeededAndBounded) {
  fleet::NetFaultConfig cfg;
  cfg.write_disconnect_rate = 0.3;
  cfg.corrupt_rate = 0.3;
  cfg.seed = 0xABCD;
  const fleet::NetFaultPlan plan(cfg);
  const fleet::NetFaultPlan again(cfg);

  std::size_t hits = 0;
  for (std::uint64_t conn = 0; conn < 100; ++conn) {
    for (std::uint64_t op = 0; op < 200; ++op) {
      const bool d = plan.write_disconnects(conn, op);
      EXPECT_EQ(again.write_disconnects(conn, op), d);  // pure function
      hits += d;
      EXPECT_LT(plan.corrupt_pos(conn, op, 37), 37u);
      EXPECT_LT(plan.cut_len(conn, op, 37), 37u);  // strict prefix
    }
  }
  // ~30% of 20k draws, loosely bounded (deterministic, so never flaky).
  EXPECT_GT(hits, 20'000 * 0.2);
  EXPECT_LT(hits, 20'000 * 0.4);

  // Another seed reshuffles the decisions.
  auto cfg2 = cfg;
  cfg2.seed = 0xABCE;
  const fleet::NetFaultPlan other(cfg2);
  std::size_t differs = 0;
  for (std::uint64_t op = 0; op < 1000; ++op) {
    differs += plan.write_disconnects(1, op) != other.write_disconnects(1, op);
  }
  EXPECT_GT(differs, 0u);

  // Rate edges.
  fleet::NetFaultConfig quiet;
  EXPECT_FALSE(fleet::NetFaultPlan(quiet).enabled());
  quiet.read_disconnect_rate = 1.0;
  const fleet::NetFaultPlan always(quiet);
  EXPECT_TRUE(always.enabled());
  for (std::uint64_t op = 0; op < 50; ++op) {
    EXPECT_TRUE(always.read_disconnects(9, op));
    EXPECT_FALSE(always.write_disconnects(9, op));
  }

  // refuse_after permanently blacklists an endpoint past N connects.
  fleet::NetFaultConfig refuse;
  refuse.refuse_after_connects = 2;
  const fleet::NetFaultPlan gate(refuse);
  EXPECT_FALSE(gate.connect_refused(0, 0, 1));
  EXPECT_FALSE(gate.connect_refused(0, 1, 1));
  EXPECT_TRUE(gate.connect_refused(0, 2, 1));
  EXPECT_TRUE(gate.connect_refused(0, 7, 3));
}

TEST(NetFaults, SpecAndEndpointParsing) {
  fleet::NetFaultConfig cfg;
  std::string err;
  ASSERT_TRUE(fleet::parse_net_fault_plan(
      "wdisc=0.05,rdisc=0.02,stall=0.05,stallms=7,short=0.3,corrupt=0.02,"
      "refuse=0.1,refuse_after=2,seed=0x9E7F",
      cfg, err))
      << err;
  EXPECT_DOUBLE_EQ(cfg.write_disconnect_rate, 0.05);
  EXPECT_DOUBLE_EQ(cfg.read_disconnect_rate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.stall_rate, 0.05);
  EXPECT_EQ(cfg.stall_ms, 7u);
  EXPECT_DOUBLE_EQ(cfg.short_write_rate, 0.3);
  EXPECT_DOUBLE_EQ(cfg.corrupt_rate, 0.02);
  EXPECT_DOUBLE_EQ(cfg.connect_refusal_rate, 0.1);
  EXPECT_EQ(cfg.refuse_after_connects, 2u);
  EXPECT_EQ(cfg.seed, 0x9E7Full);
  EXPECT_TRUE(cfg.any());

  fleet::NetFaultConfig bad;
  EXPECT_FALSE(fleet::parse_net_fault_plan("wibble=0.1", bad, err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(fleet::parse_net_fault_plan("wdisc=notanumber", bad, err));

  std::string host;
  std::uint16_t port = 0;
  ASSERT_TRUE(fleet::parse_endpoint("127.0.0.1:8080", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(fleet::parse_endpoint("example.org:1", host, port));
  EXPECT_EQ(host, "example.org");
  EXPECT_EQ(port, 1);
  EXPECT_FALSE(fleet::parse_endpoint("noport", host, port));
  EXPECT_FALSE(fleet::parse_endpoint("host:99999", host, port));
  EXPECT_FALSE(fleet::parse_endpoint(":", host, port));
}

// --- TCP transport ---------------------------------------------------------

std::ptrdiff_t read_blocking(fleet::Transport& t, std::uint8_t* buf, std::size_t cap) {
  for (int spin = 0; spin < 2000; ++spin) {
    const std::ptrdiff_t n = t.read_some(buf, cap);
    if (n != fleet::Transport::kWouldBlock) return n;
    pollfd p{t.poll_fd(), POLLIN, 0};
    ::poll(&p, 1, 50);
  }
  return fleet::Transport::kError;
}

bool read_frame(fleet::Transport& t, fleet::FrameDecoder& dec, fleet::Frame& out) {
  std::uint8_t buf[4096];
  while (!dec.next(out)) {
    if (dec.corrupt()) return false;
    const std::ptrdiff_t n = read_blocking(t, buf, sizeof buf);
    if (n <= 0) return false;
    dec.feed({buf, static_cast<std::size_t>(n)});
  }
  return true;
}

struct LoopbackPair {
  std::unique_ptr<fleet::TcpTransport> client;
  std::unique_ptr<fleet::TcpTransport> server;
};

LoopbackPair make_loopback() {
  LoopbackPair pair;
  fleet::TcpListener listener;
  std::string err;
  if (!listener.listen_on("127.0.0.1", 0, err)) return pair;
  const int cfd = fleet::connect_tcp("127.0.0.1", listener.bound_port(), 2000, err);
  if (cfd < 0) return pair;
  const int sfd = listener.accept_one();
  if (sfd < 0) return pair;
  pair.client = std::make_unique<fleet::TcpTransport>(cfd);
  pair.server = std::make_unique<fleet::TcpTransport>(sfd);
  return pair;
}

TEST(NetTransport, TcpLoopbackFramesBothWaysThenEof) {
  auto pair = make_loopback();
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  EXPECT_TRUE(pair.client->is_open());
  EXPECT_FALSE(pair.client->describe().empty());

  const Corpus c = build_corpus();
  ASSERT_TRUE(pair.client->write_all(c.stream));
  fleet::FrameDecoder dec;
  fleet::Frame f;
  for (const auto& want : c.frames) {
    ASSERT_TRUE(read_frame(*pair.server, dec, f));
    EXPECT_EQ(f.type, want.type);
    EXPECT_EQ(f.payload, want.payload);
  }

  // And back the other way.
  std::vector<std::uint8_t> reply;
  fleet::encode_frame(reply, fleet::FrameType::kHeartbeat, {});
  ASSERT_TRUE(pair.server->write_all(reply));
  fleet::FrameDecoder dec2;
  ASSERT_TRUE(read_frame(*pair.client, dec2, f));
  EXPECT_EQ(f.type, fleet::FrameType::kHeartbeat);

  // Half-close: the peer drains to a clean EOF.
  pair.client->shutdown_write();
  std::uint8_t buf[64];
  EXPECT_EQ(read_blocking(*pair.server, buf, sizeof buf), 0);
}

TEST(NetTransport, CorruptionIsLatchedShortWritesAreLossless) {
  // corrupt=1.0: every write flips one byte; the receiving decoder must
  // latch, never deliver altered bytes.
  {
    auto pair = make_loopback();
    ASSERT_NE(pair.client, nullptr);
    fleet::NetFaultConfig cfg;
    cfg.corrupt_rate = 1.0;
    fleet::FaultyTransport faulty(std::move(pair.client), fleet::NetFaultPlan(cfg), 1);
    std::vector<std::uint8_t> bytes;
    fleet::encode_frame(bytes, fleet::FrameType::kHeartbeat, {});
    ASSERT_TRUE(faulty.write_all(bytes));
    faulty.shutdown_write();
    fleet::FrameDecoder dec;
    std::uint8_t buf[4096];
    std::ptrdiff_t n = 0;
    while ((n = read_blocking(*pair.server, buf, sizeof buf)) > 0) {
      dec.feed({buf, static_cast<std::size_t>(n)});
    }
    fleet::Frame f;
    EXPECT_FALSE(dec.next(f));
    EXPECT_TRUE(dec.corrupt());
  }
  // short=1.0: frames leave in dribbles but arrive intact.
  {
    auto pair = make_loopback();
    ASSERT_NE(pair.client, nullptr);
    fleet::NetFaultConfig cfg;
    cfg.short_write_rate = 1.0;
    fleet::FaultyTransport faulty(std::move(pair.client), fleet::NetFaultPlan(cfg), 1);
    const Corpus c = build_corpus();
    ASSERT_TRUE(faulty.write_all(c.stream));
    fleet::FrameDecoder dec;
    fleet::Frame f;
    for (const auto& want : c.frames) {
      ASSERT_TRUE(read_frame(*pair.server, dec, f));
      EXPECT_EQ(f.payload, want.payload);
    }
    EXPECT_FALSE(dec.corrupt());
  }
}

// --- fleet over TCP: the acceptance pins -----------------------------------

#ifdef FD_ATTACK_BIN

// One `fd-attack --serve` subprocess on an ephemeral loopback port. A
// coordinator's kShutdown makes the process exit, so every run_fleet
// call gets freshly spawned serves.
struct ServeProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string dir;

  static std::unique_ptr<ServeProc> spawn(const std::string& tag,
                                          const std::string& token = "fd-fleet") {
    auto sp = std::make_unique<ServeProc>();
    sp->dir = ::testing::TempDir() + "fd_net_serve_" + tag + "_" +
              std::to_string(static_cast<unsigned long>(::getpid()));
    const std::string port_file = sp->dir + ".port";
    std::remove(port_file.c_str());
    std::error_code ec;
    std::filesystem::remove_all(sp->dir, ec);
    sp->pid = ::fork();
    if (sp->pid == 0) {
      ::execl(FD_ATTACK_BIN, FD_ATTACK_BIN, "--serve", "127.0.0.1:0", "--token", token.c_str(),
              "--work-dir", sp->dir.c_str(), "--port-file", port_file.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    // The port file is written tmp+rename, so a non-empty read is whole.
    for (int i = 0; i < 500 && sp->port == 0; ++i) {
      std::ifstream in(port_file);
      unsigned p = 0;
      if (in >> p && p > 0 && p < 65536) {
        sp->port = static_cast<std::uint16_t>(p);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::remove(port_file.c_str());
    if (sp->port == 0) return nullptr;  // dtor reaps the child
    return sp;
  }

  ~ServeProc() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

struct Reference {
  attack::RecoveryPipelineResult pipeline;
  std::vector<std::uint8_t> archive;
};

Reference single_process_reference(const std::string& archive_path) {
  ChaCha20Prng rng("victim key seed");  // run_fleet's internal victim
  const auto victim = falcon::keygen(3, rng);
  auto cfg = base_pipeline(archive_path);
  cfg.checkpoint = true;  // batches of 4 = the fleet's shards: scan parity
  cfg.keep_archive = true;
  Reference ref;
  ref.pipeline = attack::run_recovery_pipeline(victim, cfg);
  ref.archive = read_file(archive_path);
  return ref;
}

TEST(NetFleet, ByteIdenticalToSingleProcessAtAnyTransportMix) {
  TempFile ref_tmp("net_ref.fdtrace");
  const Reference ref = single_process_reference(ref_tmp.path);
  ASSERT_TRUE(ref.pipeline.ok) << ref.pipeline.error;
  ASSERT_TRUE(ref.pipeline.recovery.f_exact);
  ASSERT_FALSE(ref.archive.empty());

  // locals/remotes mixes; {2, 0} is the pipes-only anchor the TCP and
  // mixed runs must match result-for-result.
  const struct {
    std::size_t locals;
    std::size_t remotes;
  } mixes[] = {{2, 0}, {0, 1}, {1, 1}, {2, 2}};

  std::vector<std::vector<std::uint8_t>> first_results;
  std::vector<std::size_t> first_accepted;
  std::uint64_t first_scans = 0;
  for (const auto& mix : mixes) {
    const std::string tag = std::to_string(mix.locals) + "L" + std::to_string(mix.remotes) + "R";
    std::vector<std::unique_ptr<ServeProc>> serves;
    TempFile tmp("net_mix_" + tag + ".fdtrace");
    auto fc = base_fleet(tmp.path, mix.locals);
    for (std::size_t i = 0; i < mix.remotes; ++i) {
      auto sp = ServeProc::spawn(tag + "_" + std::to_string(i));
      ASSERT_NE(sp, nullptr) << "serve " << i << " did not come up";
      fc.remotes.push_back({"127.0.0.1", sp->port});
      serves.push_back(std::move(sp));
    }
    fc.stage_chunk_bytes = 4096;  // multi-chunk staging even at this scale

    const auto res = fleet::run_fleet(fc);
    ASSERT_TRUE(res.ok) << tag << ": " << res.error;
    EXPECT_EQ(res.remote_workers, mix.remotes) << tag;
    EXPECT_EQ(res.worker_deaths, 0u) << tag;
    // With 2 capture shards, a remote is guaranteed one (and must
    // stream it back chunked) only when locals can't cover them all.
    if (mix.remotes > 0 && mix.locals < 2) EXPECT_GT(res.staged_chunks, 1u) << tag;

    // The pin: key, archive, per-component results, accepted sets, and
    // archive-scan totals are transport-invariant AND equal to the
    // single-process pipeline.
    EXPECT_EQ(res.recovery.recovered_f, ref.pipeline.recovery.recovered_f) << tag;
    EXPECT_TRUE(res.recovery.f_exact) << tag;
    EXPECT_TRUE(res.recovery.forgery_verified) << tag;
    EXPECT_EQ(res.captured_records, ref.pipeline.captured_records) << tag;
    EXPECT_EQ(read_file(tmp.path), ref.archive) << tag;

    std::vector<std::vector<std::uint8_t>> bytes;
    bytes.reserve(res.results.size());
    for (const auto& r : res.results) bytes.push_back(result_bytes(r));
    if (first_results.empty()) {
      first_results = std::move(bytes);
      first_accepted = res.accepted_traces;
      first_scans = res.archive_scans;
    } else {
      EXPECT_EQ(bytes, first_results) << tag;
      EXPECT_EQ(res.accepted_traces, first_accepted) << tag;
      EXPECT_EQ(res.archive_scans, first_scans) << tag;
    }
  }
}

TEST(NetFleet, FaultPlanCompletesViaReconnectResumeBitIdentically) {
  TempFile ref_tmp("net_faultref.fdtrace");
  const Reference ref = single_process_reference(ref_tmp.path);
  ASSERT_TRUE(ref.pipeline.ok) << ref.pipeline.error;

  TempFile tmp("net_fault.fdtrace");
  auto fc = base_fleet(tmp.path, 0);  // remote-only: every byte crosses TCP
  auto sp = ServeProc::spawn("fault");
  ASSERT_NE(sp, nullptr);
  fc.remotes.push_back({"127.0.0.1", sp->port});
  fc.stage_chunk_bytes = 4096;
  std::string err;
  ASSERT_TRUE(fleet::parse_net_fault_plan(
      "wdisc=0.04,rdisc=0.02,stall=0.03,stallms=1,short=0.25,corrupt=0.01,seed=0x51",
      fc.net_faults, err))
      << err;

  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;
  // The plan must actually bite -- at least one connection died and was
  // re-established in place (results resumed, not restarted)...
  EXPECT_GE(res.reconnects, 1u);
  // ...and recovery under fire is byte-identical to the quiet network.
  EXPECT_EQ(res.recovery.recovered_f, ref.pipeline.recovery.recovered_f);
  EXPECT_TRUE(res.recovery.f_exact);
  EXPECT_TRUE(res.recovery.forgery_verified);
  EXPECT_EQ(read_file(tmp.path), ref.archive);
}

TEST(NetFleet, RefusedEndpointDegradesToReassignmentBitIdentically) {
  TempFile ref_tmp("net_refuseref.fdtrace");
  const Reference ref = single_process_reference(ref_tmp.path);
  ASSERT_TRUE(ref.pipeline.ok) << ref.pipeline.error;

  // One local + one remote whose endpoint the plan blacklists after 3
  // connects: the remote reconnects while it can, then its task is
  // reassigned onto the local worker.
  TempFile tmp("net_refuse.fdtrace");
  auto fc = base_fleet(tmp.path, 1);
  auto sp = ServeProc::spawn("refuse");
  ASSERT_NE(sp, nullptr);
  fc.remotes.push_back({"127.0.0.1", sp->port});
  fc.stage_chunk_bytes = 4096;
  fc.reconnect_backoff_ms = 1;
  std::string err;
  ASSERT_TRUE(fleet::parse_net_fault_plan(
      "wdisc=0.06,rdisc=0.03,short=0.25,corrupt=0.01,refuse_after=3,seed=0x52", fc.net_faults,
      err))
      << err;

  const auto res = fleet::run_fleet(fc);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GE(res.reconnects, 1u);
  EXPECT_GE(res.worker_deaths, 1u);
  EXPECT_GE(res.reassignments, 1u);
  EXPECT_EQ(res.recovery.recovered_f, ref.pipeline.recovery.recovered_f);
  EXPECT_TRUE(res.recovery.f_exact);
  EXPECT_TRUE(res.recovery.forgery_verified);
  EXPECT_EQ(read_file(tmp.path), ref.archive);
}

TEST(NetFleet, WrongTokenFailsCleanlyAndServeSurvives) {
  auto sp = ServeProc::spawn("auth", "right-token");
  ASSERT_NE(sp, nullptr);

  // Wrong token: every connection opens, is kError'd, and dies -- the
  // flap cap turns that into a bounded clean failure, not a livelock.
  TempFile tmp("net_auth.fdtrace");
  auto fc = base_fleet(tmp.path, 0);
  fc.remotes.push_back({"127.0.0.1", sp->port});
  fc.session_token = "wrong-token";
  const auto bad = fleet::run_fleet(fc);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // The serve process survived the impostor and still serves a
  // correctly-authenticated coordinator.
  TempFile tmp2("net_auth2.fdtrace");
  auto fc2 = base_fleet(tmp2.path, 0);
  fc2.remotes.push_back({"127.0.0.1", sp->port});
  fc2.session_token = "right-token";
  const auto good = fleet::run_fleet(fc2);
  ASSERT_TRUE(good.ok) << good.error;
  EXPECT_TRUE(good.recovery.f_exact);
  EXPECT_TRUE(good.recovery.forgery_verified);
}

// A stand-in remote worker that speaks a frame type no v6 peer may send:
// it accepts every connection on a loopback port, answers each kTask
// with one CRC-valid frame of `bad_type`, and holds the link until the
// coordinator drops it. Stopped by a wake-up connection at destruction.
class BadTypeRemote {
 public:
  explicit BadTypeRemote(std::uint16_t bad_type) : bad_type_(bad_type) {
    std::string err;
    if (listener_.listen_on("127.0.0.1", 0, err)) {
      thread_ = std::thread([this] { serve(); });
    }
  }
  ~BadTypeRemote() {
    stop_ = true;
    if (!thread_.joinable()) return;
    std::string err;
    const int fd = fleet::connect_tcp("127.0.0.1", port(), 1000, err);
    if (fd >= 0) ::close(fd);
    thread_.join();
  }
  BadTypeRemote(const BadTypeRemote&) = delete;
  BadTypeRemote& operator=(const BadTypeRemote&) = delete;

  [[nodiscard]] bool listening() const { return listener_.is_open(); }
  [[nodiscard]] std::uint16_t port() const { return listener_.bound_port(); }
  [[nodiscard]] std::size_t bad_frames_sent() const { return sent_; }

 private:
  void serve() {
    while (!stop_) {
      const int sock = listener_.accept_one();
      if (sock < 0) break;
      fleet::TcpTransport link(sock);
      fleet::FrameDecoder dec;
      std::uint8_t buf[64 << 10];
      while (!stop_) {
        ::pollfd p{link.poll_fd(), POLLIN, 0};
        if (::poll(&p, 1, 100) <= 0) continue;
        const std::ptrdiff_t n = link.read_some(buf, sizeof buf);
        if (n == fleet::Transport::kWouldBlock) continue;
        if (n <= 0) break;  // the coordinator dropped the link
        dec.feed({buf, static_cast<std::size_t>(n)});
        fleet::Frame f;
        while (dec.next(f)) {
          if (f.type != fleet::FrameType::kTask) continue;
          std::vector<std::uint8_t> frame;
          fleet::encode_frame(frame, static_cast<fleet::FrameType>(bad_type_), {});
          if (link.write_all(frame)) ++sent_;
        }
      }
    }
  }

  std::uint16_t bad_type_;
  fleet::TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> sent_{0};
  std::thread thread_;  // last: uses every member above
};

TEST(NetFleet, UnknownFrameTypeGetsRemoteReapedAndReassigned) {
  TempFile ref_tmp("net_badtype_ref.fdtrace");
  const Reference ref = single_process_reference(ref_tmp.path);
  ASSERT_TRUE(ref.pipeline.ok) << ref.pipeline.error;

  // One local worker plus a remote that answers its task with a frame
  // of the retired type 8, then (second run) of the unassigned type 15.
  // Each is a corrupt stream: the coordinator re-dials, the flap cap
  // declares the remote dead, and its task is reassigned to the local
  // worker -- with the single-process bytes either way.
  for (const std::uint16_t bad_type : {std::uint16_t{8}, std::uint16_t{15}}) {
    const std::string tag = "type " + std::to_string(bad_type);
    BadTypeRemote remote(bad_type);
    ASSERT_TRUE(remote.listening()) << tag;
    TempFile tmp("net_badtype_" + std::to_string(bad_type) + ".fdtrace");
    TempFile telemetry(tmp.path + ".jsonl");
    auto fc = base_fleet(tmp.path, 1);
    fc.remotes.push_back({"127.0.0.1", remote.port()});
    fc.reconnect_backoff_ms = 1;
    fc.telemetry_path = telemetry.path;

    const auto res = fleet::run_fleet(fc);
    ASSERT_TRUE(res.ok) << tag << ": " << res.error;
    EXPECT_GE(remote.bad_frames_sent(), 1u) << tag;
    EXPECT_GE(res.worker_deaths, 1u) << tag;
    EXPECT_GE(res.reassignments, 1u) << tag;
    // The disconnects were the decoder's latch, not a heartbeat timeout
    // or a payload decode failure.
    const std::vector<std::uint8_t> log = read_file(telemetry.path);
    EXPECT_NE(std::string(log.begin(), log.end())
                  .find("corrupt frame stream: unknown frame type " + std::to_string(bad_type)),
              std::string::npos)
        << tag;
    EXPECT_EQ(res.recovery.recovered_f, ref.pipeline.recovery.recovered_f) << tag;
    EXPECT_TRUE(res.recovery.f_exact) << tag;
    EXPECT_TRUE(res.recovery.forgery_verified) << tag;
    EXPECT_EQ(read_file(tmp.path), ref.archive) << tag;
  }
}

TEST(NetFleet, UnknownFrameTypeIsFatalToAPipeWorker) {
  // The worker side of the same rule: `fd-attack --worker` fed a
  // CRC-valid type-8 frame reports the corruption and exits 1.
  int to_worker[2];
  int from_worker[2];
  ASSERT_EQ(::pipe(to_worker), 0);
  ASSERT_EQ(::pipe(from_worker), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(to_worker[0], STDIN_FILENO);
    ::dup2(from_worker[1], STDOUT_FILENO);
    ::close(to_worker[0]);
    ::close(to_worker[1]);
    ::close(from_worker[0]);
    ::close(from_worker[1]);
    ::execl(FD_ATTACK_BIN, FD_ATTACK_BIN, "--worker", static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(to_worker[0]);
  ::close(from_worker[1]);

  std::vector<std::uint8_t> bytes;
  fleet::encode_frame(bytes, static_cast<fleet::FrameType>(8), {});
  // Close stdin right behind the frame: a worker that skipped it would
  // exit 0 at EOF instead of reporting the corruption.
  const ssize_t written = ::write(to_worker[1], bytes.data(), bytes.size());
  ::close(to_worker[1]);
  ASSERT_EQ(written, static_cast<ssize_t>(bytes.size()));

  fleet::FrameDecoder dec;
  std::uint8_t buf[4096];
  ssize_t n = 0;
  while ((n = ::read(from_worker[0], buf, sizeof buf)) > 0) {
    dec.feed({buf, static_cast<std::size_t>(n)});
  }
  ::close(from_worker[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);

  std::vector<fleet::Frame> frames;
  fleet::Frame f;
  while (dec.next(f)) frames.push_back(f);
  EXPECT_FALSE(dec.corrupt());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, fleet::FrameType::kHello);
  EXPECT_EQ(frames[1].type, fleet::FrameType::kError);
  EXPECT_EQ(std::string(frames[1].payload.begin(), frames[1].payload.end()),
            "worker: unknown frame type 8");
}

#endif  // FD_ATTACK_BIN

}  // namespace
}  // namespace fd
