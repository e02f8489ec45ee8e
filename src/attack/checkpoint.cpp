#include "attack/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "tracestore/archive.h"

namespace fd::attack {

namespace {

// v2: adds the backend byte after config_hash and score_sd to every
// serialized phase (the pluggable-distinguisher state). v1 files fail
// the magic check and force a clean recapture -- deliberate, since a
// v1 checkpoint carries no backend tag to validate against.
constexpr char kMagic[8] = {'F', 'D', 'C', 'K', 'P', 'T', '2', '\0'};

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
  put_u32(b, static_cast<std::uint32_t>(v >> 32));
}

void put_phase(std::vector<std::uint8_t>& b, const PhaseOutcome& p) {
  put_u32(b, p.value);
  put_u64(b, std::bit_cast<std::uint64_t>(p.score));
  put_u64(b, std::bit_cast<std::uint64_t>(p.score_sd));
  put_u32(b, static_cast<std::uint32_t>(p.top.size()));
  for (const auto& s : p.top) {
    put_u32(b, s.guess);
    put_u64(b, std::bit_cast<std::uint64_t>(s.score));
  }
}

void put_result(std::vector<std::uint8_t>& b, const ComponentResult& r) {
  b.push_back(r.sign ? 1 : 0);
  put_u32(b, r.exponent);
  put_u32(b, r.x0);
  put_u32(b, r.x1);
  put_u64(b, r.bits);
  for (const PhaseOutcome* p : {&r.sign_phase, &r.exp_phase, &r.low_extend, &r.low_prune,
                                &r.high_extend, &r.high_prune}) {
    put_phase(b, *p);
  }
}

// Bounds-checked little-endian cursor; any overrun latches `fail`.
struct Cursor {
  const std::uint8_t* p = nullptr;
  std::size_t size = 0;
  std::size_t off = 0;
  bool fail = false;

  [[nodiscard]] bool take(std::size_t n) {
    if (fail || size - off < n) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return p[off++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    const std::uint32_t v = static_cast<std::uint32_t>(p[off]) |
                            static_cast<std::uint32_t>(p[off + 1]) << 8 |
                            static_cast<std::uint32_t>(p[off + 2]) << 16 |
                            static_cast<std::uint32_t>(p[off + 3]) << 24;
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | static_cast<std::uint64_t>(u32()) << 32;
  }
};

void get_phase(Cursor& c, PhaseOutcome& p) {
  p.value = c.u32();
  p.score = std::bit_cast<double>(c.u64());
  p.score_sd = std::bit_cast<double>(c.u64());
  const std::uint32_t count = c.u32();
  p.top.clear();
  if (c.fail || count > c.size) {  // count can't exceed remaining bytes / 12
    c.fail = true;
    return;
  }
  p.top.reserve(count);
  for (std::uint32_t i = 0; i < count && !c.fail; ++i) {
    StreamingScan::Scored s;
    s.guess = c.u32();
    s.score = std::bit_cast<double>(c.u64());
    p.top.push_back(s);
  }
}

void get_result(Cursor& c, ComponentResult& r) {
  r.sign = c.u8() != 0;
  r.exponent = c.u32();
  r.x0 = c.u32();
  r.x1 = c.u32();
  r.bits = c.u64();
  for (PhaseOutcome* p : {&r.sign_phase, &r.exp_phase, &r.low_extend, &r.low_prune,
                          &r.high_extend, &r.high_prune}) {
    get_phase(c, *p);
  }
}

}  // namespace

void serialize_component_result(std::vector<std::uint8_t>& out, const ComponentResult& r) {
  put_result(out, r);
}

bool deserialize_component_result(std::span<const std::uint8_t> bytes, std::size_t& offset,
                                  ComponentResult& out) {
  if (offset > bytes.size()) return false;
  Cursor c{bytes.data() + offset, bytes.size() - offset, 0, false};
  get_result(c, out);
  if (c.fail) return false;
  offset += c.off;
  return true;
}

bool save_checkpoint(const std::string& path, const CheckpointState& state,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "checkpoint save: " + what + ": " + path;
    return false;
  };
  const std::size_t n = state.done.size();
  if (state.results.size() != n || state.accepted_traces.size() != n) {
    return fail("inconsistent state vectors");
  }

  std::vector<std::uint8_t> payload;
  put_u64(payload, state.config_hash);
  payload.push_back(state.backend);
  put_u32(payload, static_cast<std::uint32_t>(n));
  put_u32(payload, state.remeasure_round);
  for (std::size_t i = 0; i < n; ++i) {
    payload.push_back(state.done[i] != 0 ? 1 : 0);
    if (state.done[i] != 0) {
      put_result(payload, state.results[i]);
      put_u64(payload, state.accepted_traces[i]);
    }
  }
  const std::uint32_t crc = tracestore::crc32({payload.data(), payload.size()});

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail("cannot open temp file");
  bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic);
  std::uint8_t crc_le[4] = {static_cast<std::uint8_t>(crc), static_cast<std::uint8_t>(crc >> 8),
                            static_cast<std::uint8_t>(crc >> 16),
                            static_cast<std::uint8_t>(crc >> 24)};
  ok = ok && std::fwrite(crc_le, 1, 4, f) == 4;
  ok = ok && (payload.empty() ||
              std::fwrite(payload.data(), 1, payload.size(), f) == payload.size());
  ok = std::fflush(f) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return fail("write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("rename failed");
  }
  return true;
}

bool load_checkpoint(const std::string& path, CheckpointState& state, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "checkpoint load: " + what + ": " + path;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open");
  char magic[8];
  std::uint8_t crc_le[4];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    std::fclose(f);
    return fail("bad magic");
  }
  if (std::fread(crc_le, 1, 4, f) != 4) {
    std::fclose(f);
    return fail("truncated header");
  }
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    payload.insert(payload.end(), buf, buf + got);
  }
  std::fclose(f);
  const std::uint32_t want = static_cast<std::uint32_t>(crc_le[0]) |
                             static_cast<std::uint32_t>(crc_le[1]) << 8 |
                             static_cast<std::uint32_t>(crc_le[2]) << 16 |
                             static_cast<std::uint32_t>(crc_le[3]) << 24;
  if (tracestore::crc32({payload.data(), payload.size()}) != want) {
    return fail("CRC mismatch");
  }

  Cursor c{payload.data(), payload.size(), 0, false};
  state.config_hash = c.u64();
  state.backend = c.u8();
  const std::uint32_t n = c.u32();
  state.remeasure_round = c.u32();
  if (c.fail || n > (1U << 20)) return fail("corrupt payload");
  state.done.assign(n, 0);
  state.results.assign(n, ComponentResult{});
  state.accepted_traces.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    state.done[i] = c.u8();
    if (state.done[i] != 0) {
      get_result(c, state.results[i]);
      state.accepted_traces[i] = static_cast<std::size_t>(c.u64());
    }
    if (c.fail) return fail("corrupt payload");
  }
  if (c.off != c.size) return fail("trailing bytes");
  return true;
}

}  // namespace fd::attack
