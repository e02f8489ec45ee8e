#include "tracestore/archive.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "obs/metrics.h"

namespace fd::tracestore {

namespace {

// Registry lookups hoisted out of the per-chunk paths; references are
// stable for the process lifetime.
obs::Counter& write_chunks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("tracestore.write.chunks");
  return c;
}
obs::Counter& write_bytes_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("tracestore.write.bytes");
  return c;
}
obs::Counter& read_chunks_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("tracestore.read.chunks");
  return c;
}
obs::Counter& read_crc_failures_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("tracestore.read.crc_failures");
  return c;
}

// --- little-endian (de)serialization into byte buffers --------------------
//
// Record payloads are encoded and decoded with bulk memcpy of the
// in-memory fields, which is the on-disk little-endian layout only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the .fdtrace record codec memcpys little-endian fields");

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

double get_f64(const std::uint8_t* p) { return std::bit_cast<double>(get_u64(p)); }

std::vector<std::uint8_t> encode_header(const ArchiveMeta& m) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes);
  out.insert(out.end(), kFileMagic, kFileMagic + sizeof(kFileMagic));
  put_u32(out, m.version);
  put_u32(out, static_cast<std::uint32_t>(kHeaderBytes));
  put_u32(out, m.logn);
  put_u32(out, m.row);
  put_u32(out, m.num_slots);
  put_u32(out, m.samples_per_trace);
  put_u32(out, m.traces_per_chunk);
  put_u32(out, m.flags);
  put_f64(out, m.alpha);
  put_f64(out, m.noise_sigma);
  put_u32(out, m.samples_per_event);
  put_u32(out, m.jitter_max);
  put_u64(out, m.seed);
  put_u64(out, 0);  // reserved
  return out;
}

// Parses and sanity-checks a header buffer; returns false with a reason
// on any structural problem (bad magic, unknown version, zero geometry).
bool decode_header(std::span<const std::uint8_t> buf, ArchiveMeta& m, std::string& why) {
  if (buf.size() < kHeaderBytes) {
    why = "file shorter than the archive header";
    return false;
  }
  if (std::memcmp(buf.data(), kFileMagic, sizeof(kFileMagic)) != 0) {
    why = "bad magic (not an .fdtrace archive)";
    return false;
  }
  m.version = get_u32(buf.data() + 8);
  if (m.version != kFormatVersion) {
    why = "unsupported format version " + std::to_string(m.version) + " (reader speaks " +
          std::to_string(kFormatVersion) + ")";
    return false;
  }
  const std::uint32_t header_bytes = get_u32(buf.data() + 12);
  if (header_bytes != kHeaderBytes) {
    why = "unexpected header size " + std::to_string(header_bytes);
    return false;
  }
  m.logn = get_u32(buf.data() + 16);
  m.row = get_u32(buf.data() + 20);
  m.num_slots = get_u32(buf.data() + 24);
  m.samples_per_trace = get_u32(buf.data() + 28);
  m.traces_per_chunk = get_u32(buf.data() + 32);
  m.flags = get_u32(buf.data() + 36);
  m.alpha = get_f64(buf.data() + 40);
  m.noise_sigma = get_f64(buf.data() + 48);
  m.samples_per_event = get_u32(buf.data() + 56);
  m.jitter_max = get_u32(buf.data() + 60);
  m.seed = get_u64(buf.data() + 64);
  if (m.samples_per_trace == 0 || m.traces_per_chunk == 0) {
    why = "degenerate geometry (zero samples_per_trace or traces_per_chunk)";
    return false;
  }
  return true;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

bool ArchiveMeta::compatible_with(const ArchiveMeta& other) const {
  return version == other.version && logn == other.logn && row == other.row &&
         num_slots == other.num_slots && samples_per_trace == other.samples_per_trace &&
         alpha == other.alpha && noise_sigma == other.noise_sigma &&
         samples_per_event == other.samples_per_event && jitter_max == other.jitter_max &&
         (flags & kFlagConstantWeight) == (other.flags & kFlagConstantWeight);
}

// --- writer ---------------------------------------------------------------

ArchiveWriter::~ArchiveWriter() { (void)close(); }

void ArchiveWriter::fail(const std::string& what) {
  error_ = what;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool ArchiveWriter::open(const std::string& path, const ArchiveMeta& meta) {
  if (file_ != nullptr) {
    error_ = "writer already open";
    return false;
  }
  if (meta.samples_per_trace == 0 || meta.traces_per_chunk == 0) {
    error_ = "meta needs nonzero samples_per_trace and traces_per_chunk";
    return false;
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = "cannot open '" + path + "' for writing";
    return false;
  }
  meta_ = meta;
  meta_.version = kFormatVersion;
  records_written_ = 0;
  pending_records_ = 0;
  // No up-front reserve: the header's geometry may come from an
  // untrusted file (repair/merge/split), so capacity grows with the
  // records actually appended and is then reused chunk after chunk.
  payload_.clear();
  const auto header = encode_header(meta_);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    fail("short write on header");
    return false;
  }
  return true;
}

bool ArchiveWriter::append(const TraceRecord& rec) {
  if (file_ == nullptr) {
    error_ = "writer not open";
    return false;
  }
  if (rec.samples.size() != meta_.samples_per_trace) {
    fail("record has " + std::to_string(rec.samples.size()) + " samples, archive expects " +
         std::to_string(meta_.samples_per_trace));
    return false;
  }
  const std::size_t at = payload_.size();
  payload_.resize(at + meta_.record_bytes());
  std::uint8_t* p = payload_.data() + at;
  std::memcpy(p, &rec.slot, 4);
  std::memcpy(p + 4, &rec.index, 4);
  std::memcpy(p + 8, &rec.known_re_bits, 8);
  std::memcpy(p + 16, &rec.known_im_bits, 8);
  std::memcpy(p + 24, rec.samples.data(), 4 * rec.samples.size());
  ++pending_records_;
  ++records_written_;
  if (pending_records_ == meta_.traces_per_chunk) return flush_chunk();
  return true;
}

bool ArchiveWriter::flush_chunk() {
  if (pending_records_ == 0) return true;
  std::vector<std::uint8_t> header;
  header.reserve(kChunkHeaderBytes);
  put_u32(header, kChunkMagic);
  put_u32(header, static_cast<std::uint32_t>(pending_records_));
  put_u32(header, crc32(payload_));
  put_u32(header, 0);  // reserved
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload_.data(), 1, payload_.size(), file_) != payload_.size()) {
    fail("short write on chunk");
    return false;
  }
  write_chunks_counter().add(1);
  write_bytes_counter().add(header.size() + payload_.size());
  payload_.clear();
  pending_records_ = 0;
  return true;
}

bool ArchiveWriter::close() {
  if (file_ == nullptr) return error_.empty();
  const bool flushed = flush_chunk();
  if (file_ != nullptr) {
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (flushed && !closed) error_ = "close failed";
    return flushed && closed;
  }
  return flushed;
}

// --- reader ---------------------------------------------------------------

ArchiveReader::~ArchiveReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ArchiveReader::open(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  stats_ = {};
  chunk_.clear();
  chunk_pos_ = 0;
  chunk_ordinal_ = 0;
  max_resident_ = 0;
  scans_started_ = 0;
  scan_counted_ = false;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    error_ = "cannot open '" + path + "' for reading";
    return false;
  }
  std::array<std::uint8_t, kHeaderBytes> buf;
  const std::size_t got = std::fread(buf.data(), 1, buf.size(), file_);
  std::string why;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    why = "cannot size '" + path + "': " + ec.message();
  } else if (decode_header({buf.data(), got}, meta_, why)) {
    file_bytes_ = static_cast<std::size_t>(size);
    offset_ = kHeaderBytes;
    return true;
  }
  error_ = why;
  std::fclose(file_);
  file_ = nullptr;
  return false;
}

bool ArchiveReader::load_next_chunk() {
  chunk_.clear();
  chunk_pos_ = 0;
  const std::size_t record_bytes = meta_.record_bytes();
  const std::size_t samples = meta_.samples_per_trace;
  for (;;) {
    std::array<std::uint8_t, kChunkHeaderBytes> head;
    const std::size_t got = std::fread(head.data(), 1, head.size(), file_);
    offset_ += got;
    if (got == 0) return false;  // clean end of stream
    if (got < head.size()) {
      stats_.truncated_tail = true;
      return false;
    }
    const std::uint32_t magic = get_u32(head.data());
    const std::uint32_t count = get_u32(head.data() + 4);
    const std::uint32_t want_crc = get_u32(head.data() + 8);
    if (magic != kChunkMagic || count == 0 || count > meta_.traces_per_chunk) {
      // Structure is gone; without a trustworthy length there is nothing
      // to skip over, so treat the rest of the file as a damaged tail.
      stats_.truncated_tail = true;
      return false;
    }
    // Bound the allocation by the file, not by the header's word: a
    // payload that cannot fit in the bytes left is a truncated tail.
    // (Division, so a huge samples_per_trace cannot overflow the product.)
    const std::size_t left = file_bytes_ > offset_ ? file_bytes_ - offset_ : 0;
    if (count > left / record_bytes) {
      stats_.truncated_tail = true;
      return false;
    }
    payload_.resize(count * record_bytes);
    const std::size_t read = std::fread(payload_.data(), 1, payload_.size(), file_);
    offset_ += read;
    if (read != payload_.size()) {
      stats_.truncated_tail = true;
      return false;
    }
    const std::size_t ordinal = chunk_ordinal_++;
    if (crc32(payload_) != want_crc) {
      ++stats_.chunks_corrupt;
      stats_.corrupt_chunk_indices.push_back(ordinal);
      read_crc_failures_counter().add(1);
      continue;  // chunk length was intact, so the next header is right here
    }
    ++stats_.chunks_ok;
    read_chunks_counter().add(1);
    chunk_.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint8_t* p = payload_.data() + i * record_bytes;
      TraceRecord& r = chunk_[i];
      std::memcpy(&r.slot, p, 4);
      std::memcpy(&r.index, p + 4, 4);
      std::memcpy(&r.known_re_bits, p + 8, 8);
      std::memcpy(&r.known_im_bits, p + 16, 8);
      r.samples.resize(samples);
      std::memcpy(r.samples.data(), p + 24, 4 * samples);
    }
    max_resident_ = std::max(max_resident_, chunk_.size());
    return true;
  }
}

bool ArchiveReader::next(TraceRecord& out) {
  if (file_ == nullptr) return false;
  if (!scan_counted_) {
    scan_counted_ = true;
    ++scans_started_;
  }
  if (chunk_pos_ == chunk_.size() && !load_next_chunk()) return false;
  out = std::move(chunk_[chunk_pos_]);
  ++chunk_pos_;
  ++stats_.records_read;
  return true;
}

std::size_t ArchiveReader::next_batch(std::vector<TraceRecord>& out,
                                      std::size_t max_records) {
  std::size_t n = 0;
  TraceRecord rec;
  while (n < max_records && next(rec)) {
    out.push_back(std::move(rec));
    ++n;
  }
  return n;
}

void ArchiveReader::rewind() {
  if (file_ == nullptr) return;
  std::fseek(file_, static_cast<long>(kHeaderBytes), SEEK_SET);
  offset_ = kHeaderBytes;
  stats_ = {};
  chunk_.clear();
  chunk_pos_ = 0;
  chunk_ordinal_ = 0;
  scan_counted_ = false;  // the next next() starts a new counted pass
}

// --- verify / merge -------------------------------------------------------

bool verify_archive(const std::string& path, VerifyReport& report, std::string* error) {
  ArchiveReader reader;
  if (!reader.open(path)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  TraceRecord rec;
  while (reader.next(rec)) {
  }
  report.meta = reader.meta();
  report.records = reader.stats().records_read;
  report.chunks_ok = reader.stats().chunks_ok;
  report.chunks_corrupt = reader.stats().chunks_corrupt;
  report.corrupt_chunks = reader.stats().corrupt_chunk_indices;
  report.truncated_tail = reader.stats().truncated_tail;
  return true;
}

bool repair_archive(const std::string& in_path, const std::string& out_path,
                    RepairReport& report, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  report = RepairReport{};

  ArchiveReader reader;
  if (!reader.open(in_path)) return fail(reader.error());
  report.meta = reader.meta();
  const std::size_t record_bytes = reader.meta().record_bytes();

  // Header walk first: per-chunk record counts stay readable over a
  // damaged payload (only payload bytes are CRC-protected), which is
  // what lets the report name the exact record ordinals lost.
  std::vector<std::size_t> chunk_records;
  {
    std::FILE* f = std::fopen(in_path.c_str(), "rb");
    if (f == nullptr) return fail("repair: cannot reopen: " + in_path);
    bool walked = std::fseek(f, static_cast<long>(kHeaderBytes), SEEK_SET) == 0;
    std::uint8_t hdr[kChunkHeaderBytes];
    while (walked) {
      if (std::fread(hdr, 1, sizeof(hdr), f) != sizeof(hdr)) break;
      if (get_u32(hdr) != kChunkMagic) break;  // tail damage: same stop as the reader
      const std::uint32_t count = get_u32(hdr + 4);
      chunk_records.push_back(count);
      if (std::fseek(f, static_cast<long>(count * record_bytes), SEEK_CUR) != 0) break;
    }
    std::fclose(f);
    if (!walked) return fail("repair: seek failed: " + in_path);
  }

  ArchiveWriter writer;
  if (!writer.open(out_path, reader.meta())) return fail(writer.error());
  TraceRecord rec;
  while (reader.next(rec)) {
    if (!writer.append(rec)) return fail(writer.error());
  }
  if (!writer.close()) return fail(writer.error());

  const ArchiveStats& st = reader.stats();
  report.records_kept = st.records_read;
  report.chunks_kept = st.chunks_ok;
  report.chunks_dropped = st.chunks_corrupt;
  report.dropped_chunks = st.corrupt_chunk_indices;
  report.truncated_tail = st.truncated_tail;
  std::vector<std::size_t> base(chunk_records.size() + 1, 0);
  for (std::size_t i = 0; i < chunk_records.size(); ++i) {
    base[i + 1] = base[i] + chunk_records[i];
  }
  for (const std::size_t o : st.corrupt_chunk_indices) {
    if (o >= chunk_records.size()) continue;
    for (std::size_t r = 0; r < chunk_records[o]; ++r) {
      report.dropped_record_ordinals.push_back(base[o] + r);
    }
  }
  return true;
}

bool merge_archives(std::span<const std::string> inputs, const std::string& out_path,
                    std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (inputs.empty()) return fail("merge needs at least one input");

  // Pass 1: check compatibility and count each shard's signing queries
  // (max index + 1), which re-bases the indices of later shards.
  ArchiveMeta base;
  std::vector<std::uint64_t> query_counts(inputs.size(), 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ArchiveReader reader;
    if (!reader.open(inputs[i])) return fail(inputs[i] + ": " + reader.error());
    if (i == 0) {
      base = reader.meta();
    } else if (!base.compatible_with(reader.meta())) {
      return fail(inputs[i] + ": incompatible with " + inputs[0] +
                  " (logn/row/slots/trace-length/device must match)");
    }
    TraceRecord rec;
    while (reader.next(rec)) {
      query_counts[i] = std::max(query_counts[i], static_cast<std::uint64_t>(rec.index) + 1);
    }
  }

  ArchiveMeta out_meta = base;
  out_meta.flags |= kFlagMerged;
  ArchiveWriter writer;
  if (!writer.open(out_path, out_meta)) return fail(writer.error());

  // Pass 2: stream every intact record through, shifting indices.
  std::uint64_t index_base = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ArchiveReader reader;
    if (!reader.open(inputs[i])) return fail(inputs[i] + ": " + reader.error());
    TraceRecord rec;
    while (reader.next(rec)) {
      rec.index = static_cast<std::uint32_t>(index_base + rec.index);
      if (!writer.append(rec)) return fail(writer.error());
    }
    index_base += query_counts[i];
  }
  if (!writer.close()) return fail(writer.error());
  return true;
}

bool promote_shard(const std::string& in_path, const std::string& out_path, bool keep_input,
                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  // Validate the header before moving anything, so a failure leaves the
  // input where it was.
  ArchiveMeta meta;
  {
    ArchiveReader reader;
    if (!reader.open(in_path)) return fail(in_path + ": " + reader.error());
    meta = reader.meta();
  }
  if (keep_input) {
    std::error_code ec;
    std::filesystem::copy_file(in_path, out_path,
                               std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) return fail("cannot copy '" + in_path + "' to '" + out_path + "': " + ec.message());
  } else if (std::rename(in_path.c_str(), out_path.c_str()) != 0) {
    return fail("cannot rename '" + in_path + "' to '" + out_path + "'");
  }
  // Patch the header's flags word (offset 36) in place.
  const std::uint32_t flags = meta.flags | kFlagMerged;
  std::FILE* f = std::fopen(out_path.c_str(), "r+b");
  bool patched = f != nullptr && std::fseek(f, 36, SEEK_SET) == 0 &&
                 std::fwrite(&flags, 1, sizeof(flags), f) == sizeof(flags);
  if (f != nullptr) patched = std::fclose(f) == 0 && patched;
  if (!patched) return fail("cannot update the header of '" + out_path + "'");
  return true;
}

bool split_archive(const std::string& in_path, const std::string& out_prefix,
                   std::size_t num_shards, std::vector<std::string>* out_paths,
                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (num_shards == 0) return fail("split needs at least one shard");

  // Pass 1: total signing queries (max index + 1).
  std::uint64_t queries = 0;
  {
    ArchiveReader reader;
    if (!reader.open(in_path)) return fail(in_path + ": " + reader.error());
    TraceRecord rec;
    while (reader.next(rec)) {
      queries = std::max(queries, static_cast<std::uint64_t>(rec.index) + 1);
    }
    if (queries == 0) return fail(in_path + ": no records to split");
  }

  // Contiguous leading-heavy ranges: the first (queries % k) shards get
  // one extra query, mirroring exec::static_chunks (the format layer
  // does not link src/exec, so the plan is restated here).
  const std::size_t k = static_cast<std::size_t>(
      std::min<std::uint64_t>(queries, static_cast<std::uint64_t>(num_shards)));
  const std::uint64_t base_size = queries / k;
  const std::uint64_t remainder = queries % k;
  std::vector<std::uint64_t> range_begin(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    range_begin[i + 1] = range_begin[i] + base_size + (i < remainder ? 1 : 0);
  }

  ArchiveReader reader;
  if (!reader.open(in_path)) return fail(in_path + ": " + reader.error());
  ArchiveMeta shard_meta = reader.meta();
  shard_meta.flags &= ~kFlagMerged;

  std::vector<std::unique_ptr<ArchiveWriter>> writers(k);
  std::vector<std::string> paths(k);
  for (std::size_t i = 0; i < k; ++i) {
    paths[i] = out_prefix + ".shard" + std::to_string(i);
    writers[i] = std::make_unique<ArchiveWriter>();
    if (!writers[i]->open(paths[i], shard_meta)) {
      return fail(paths[i] + ": " + writers[i]->error());
    }
  }

  // Pass 2: route every record to the shard owning its query range,
  // re-based to that range's origin. One streamed pass; memory is one
  // pending chunk per shard.
  TraceRecord rec;
  while (reader.next(rec)) {
    const std::uint64_t q = rec.index;
    const std::size_t shard =
        static_cast<std::size_t>(std::upper_bound(range_begin.begin(), range_begin.end(), q) -
                                 range_begin.begin()) - 1;
    rec.index = static_cast<std::uint32_t>(q - range_begin[shard]);
    if (!writers[shard]->append(rec)) return fail(paths[shard] + ": " + writers[shard]->error());
  }
  for (std::size_t i = 0; i < k; ++i) {
    if (!writers[i]->close()) return fail(paths[i] + ": " + writers[i]->error());
  }
  if (out_paths != nullptr) *out_paths = std::move(paths);
  return true;
}

}  // namespace fd::tracestore
