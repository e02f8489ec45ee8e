// Trace-archive format tests: byte-exact roundtrip, header gating,
// damage recovery (corrupt chunks, truncated tails, header geometry the
// file cannot hold), shard merging and one-shard promotion, and the
// bounded-memory reading contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tracestore/archive.h"

namespace fd::tracestore {
namespace {

constexpr std::size_t kSamples = 10;
constexpr std::size_t kTracesPerChunk = 8;

ArchiveMeta small_meta() {
  ArchiveMeta m;
  m.logn = 4;
  m.row = 0;
  m.num_slots = 8;
  m.samples_per_trace = kSamples;
  m.traces_per_chunk = kTracesPerChunk;
  m.alpha = 1.0;
  m.noise_sigma = 2.0;
  m.seed = 0x5EED;
  return m;
}

TraceRecord make_record(std::uint32_t i, ChaCha20Prng& rng) {
  TraceRecord r;
  r.slot = i % 8;
  r.index = i / 8;
  r.known_re_bits = rng.next_u64();
  r.known_im_bits = rng.next_u64();
  r.samples.resize(kSamples);
  for (auto& s : r.samples) s = static_cast<float>(rng.gaussian());
  return r;
}

// Writes `count` deterministic records and returns them.
std::vector<TraceRecord> write_archive(const std::string& path, std::size_t count,
                                       std::uint64_t seed = 0xA7C41) {
  ChaCha20Prng rng(seed);
  std::vector<TraceRecord> recs;
  ArchiveWriter writer;
  EXPECT_TRUE(writer.open(path, small_meta())) << writer.error();
  for (std::size_t i = 0; i < count; ++i) {
    recs.push_back(make_record(static_cast<std::uint32_t>(i), rng));
    EXPECT_TRUE(writer.append(recs.back())) << writer.error();
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return recs;
}

// In-place byte surgery on an archive file.
void patch_file(const std::string& path, long offset, std::uint8_t xor_mask) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ xor_mask, f);
  std::fclose(f);
}

// Overwrites a little-endian u32 field of an archive file.
void write_u32_at(const std::string& path, long offset, std::uint32_t v) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const std::uint8_t b[4] = {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 24)};
  ASSERT_EQ(std::fwrite(b, 1, 4, f), 4U);
  std::fclose(f);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void truncate_file(const std::string& path, long new_size) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<char> bytes(static_cast<std::size_t>(new_size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::size_t chunk_offset(std::size_t chunk) {
  return kHeaderBytes + chunk * (kChunkHeaderBytes + kTracesPerChunk * (24 + 4 * kSamples));
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) { std::remove(path.c_str()); }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Crc32, KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926U);
}

TEST(Archive, RoundTripIsExact) {
  TempFile tmp("ts_roundtrip.fdtrace");
  const auto recs = write_archive(tmp.path, 20);  // 2 full chunks + partial

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path)) << reader.error();
  EXPECT_EQ(reader.meta().logn, 4U);
  EXPECT_EQ(reader.meta().num_slots, 8U);
  EXPECT_EQ(reader.meta().seed, 0x5EEDULL);

  TraceRecord rec;
  for (const auto& want : recs) {
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.slot, want.slot);
    EXPECT_EQ(rec.index, want.index);
    EXPECT_EQ(rec.known_re_bits, want.known_re_bits);
    EXPECT_EQ(rec.known_im_bits, want.known_im_bits);
    ASSERT_EQ(rec.samples.size(), want.samples.size());
    for (std::size_t s = 0; s < kSamples; ++s) {
      // Bit-exact: floats survive the container unchanged.
      EXPECT_EQ(rec.samples[s], want.samples[s]);
    }
  }
  EXPECT_FALSE(reader.next(rec));
  EXPECT_EQ(reader.stats().records_read, recs.size());
  EXPECT_EQ(reader.stats().chunks_ok, 3U);
  EXPECT_TRUE(reader.stats().clean());
}

TEST(Archive, RewindReplaysFromTheTop) {
  TempFile tmp("ts_rewind.fdtrace");
  write_archive(tmp.path, 11);
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  while (reader.next(rec)) {
  }
  reader.rewind();
  std::size_t again = 0;
  while (reader.next(rec)) ++again;
  EXPECT_EQ(again, 11U);
}

TEST(Archive, RejectsBadMagic) {
  TempFile tmp("ts_badmagic.fdtrace");
  write_archive(tmp.path, 4);
  patch_file(tmp.path, 0, 0xFF);
  ArchiveReader reader;
  EXPECT_FALSE(reader.open(tmp.path));
  EXPECT_NE(reader.error().find("magic"), std::string::npos);
}

TEST(Archive, RejectsUnknownVersion) {
  TempFile tmp("ts_badver.fdtrace");
  write_archive(tmp.path, 4);
  patch_file(tmp.path, 8, 0x40);  // version u32 lives at offset 8
  ArchiveReader reader;
  EXPECT_FALSE(reader.open(tmp.path));
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST(Archive, CorruptedChunkIsSkippedNotFatal) {
  TempFile tmp("ts_corrupt.fdtrace");
  write_archive(tmp.path, 3 * kTracesPerChunk);
  // Flip one payload byte in the middle chunk.
  patch_file(tmp.path, static_cast<long>(chunk_offset(1) + kChunkHeaderBytes + 5), 0x01);

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::vector<std::uint32_t> indices;
  while (reader.next(rec)) indices.push_back(rec.index * 8 + rec.slot);
  // Chunks 0 and 2 survive; chunk 1's records are gone but nothing dies.
  EXPECT_EQ(indices.size(), 2 * kTracesPerChunk);
  EXPECT_EQ(indices.front(), 0U);
  EXPECT_EQ(indices.back(), 3 * kTracesPerChunk - 1);
  EXPECT_EQ(reader.stats().chunks_ok, 2U);
  EXPECT_EQ(reader.stats().chunks_corrupt, 1U);
  EXPECT_FALSE(reader.stats().truncated_tail);
}

TEST(Archive, TruncatedTailEndsStreamCleanly) {
  TempFile tmp("ts_trunc.fdtrace");
  write_archive(tmp.path, 3 * kTracesPerChunk);
  // Cut the file in the middle of chunk 2's payload.
  truncate_file(tmp.path, static_cast<long>(chunk_offset(2) + kChunkHeaderBytes + 30));

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, 2 * kTracesPerChunk);
  EXPECT_TRUE(reader.stats().truncated_tail);
  EXPECT_EQ(reader.stats().chunks_corrupt, 0U);
}

TEST(Archive, TruncatedChunkHeaderEndsStreamCleanly) {
  TempFile tmp("ts_trunchdr.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk);
  truncate_file(tmp.path, static_cast<long>(chunk_offset(1) + 7));
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, kTracesPerChunk);
  EXPECT_TRUE(reader.stats().truncated_tail);
}

TEST(Archive, VerifyReportsDamage) {
  TempFile tmp("ts_verify.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk);

  VerifyReport report;
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records, 2 * kTracesPerChunk);

  patch_file(tmp.path, static_cast<long>(chunk_offset(0) + kChunkHeaderBytes + 2), 0x80);
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.chunks_corrupt, 1U);
  EXPECT_EQ(report.records, kTracesPerChunk);
}

TEST(Archive, WriterRejectsRaggedRecords) {
  TempFile tmp("ts_ragged.fdtrace");
  ArchiveWriter writer;
  ASSERT_TRUE(writer.open(tmp.path, small_meta()));
  TraceRecord r;
  r.samples.resize(kSamples + 1);
  EXPECT_FALSE(writer.append(r));
  EXPECT_NE(writer.error().find("samples"), std::string::npos);
}

TEST(Archive, BatchReadingIsChunkBounded) {
  TempFile small("ts_small.fdtrace");
  TempFile large("ts_large.fdtrace");
  write_archive(small.path, 2 * kTracesPerChunk);
  write_archive(large.path, 10 * kTracesPerChunk);

  std::size_t residents[2];
  const std::string* paths[2] = {&small.path, &large.path};
  for (int i = 0; i < 2; ++i) {
    ArchiveReader reader;
    ASSERT_TRUE(reader.open(*paths[i]));
    std::vector<TraceRecord> batch;
    std::size_t total = 0;
    for (;;) {
      batch.clear();
      const std::size_t got = reader.next_batch(batch, 3);
      if (got == 0) break;
      EXPECT_LE(got, 3U);
      total += got;
    }
    EXPECT_EQ(total, (i == 0 ? 2 : 10) * kTracesPerChunk);
    residents[i] = reader.max_resident_records();
    EXPECT_LE(residents[i], kTracesPerChunk);
  }
  // Peak decoded state is the chunk size, independent of archive length.
  EXPECT_EQ(residents[0], residents[1]);
}

TEST(Merge, ShardCountsAddUpAndIndicesRebase) {
  TempFile a("ts_shard_a.fdtrace");
  TempFile b("ts_shard_b.fdtrace");
  TempFile out("ts_merged.fdtrace");
  write_archive(a.path, 24, /*seed=*/1);  // queries 0..2 over 8 slots
  write_archive(b.path, 16, /*seed=*/2);  // queries 0..1 over 8 slots

  const std::string inputs[2] = {a.path, b.path};
  std::string error;
  ASSERT_TRUE(merge_archives(inputs, out.path, &error)) << error;

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(out.path));
  EXPECT_NE(reader.meta().flags & kFlagMerged, 0U);
  TraceRecord rec;
  std::size_t n = 0;
  std::uint32_t max_index = 0;
  while (reader.next(rec)) {
    ++n;
    max_index = std::max(max_index, rec.index);
  }
  EXPECT_EQ(n, 24U + 16U);
  // Shard A had queries 0..2, so shard B's queries became 3..4.
  EXPECT_EQ(max_index, 4U);
  EXPECT_TRUE(reader.stats().clean());
}

TEST(Merge, IncompatibleShardsRejected) {
  TempFile a("ts_inc_a.fdtrace");
  TempFile b("ts_inc_b.fdtrace");
  TempFile out("ts_inc_out.fdtrace");
  write_archive(a.path, 8);
  {
    ArchiveMeta other = small_meta();
    other.samples_per_trace = kSamples + 2;
    ArchiveWriter writer;
    ASSERT_TRUE(writer.open(b.path, other));
    TraceRecord r;
    r.samples.resize(kSamples + 2);
    ASSERT_TRUE(writer.append(r));
    ASSERT_TRUE(writer.close());
  }
  const std::string inputs[2] = {a.path, b.path};
  std::string error;
  EXPECT_FALSE(merge_archives(inputs, out.path, &error));
  EXPECT_NE(error.find("incompatible"), std::string::npos);
}

// Reads every record of an archive in stream order.
std::vector<TraceRecord> read_all(const std::string& path) {
  std::vector<TraceRecord> recs;
  ArchiveReader reader;
  EXPECT_TRUE(reader.open(path)) << reader.error();
  TraceRecord rec;
  while (reader.next(rec)) recs.push_back(rec);
  EXPECT_TRUE(reader.stats().clean());
  return recs;
}

void expect_same_records(const std::vector<TraceRecord>& a, const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].slot, b[i].slot) << "record " << i;
    EXPECT_EQ(a[i].index, b[i].index) << "record " << i;
    EXPECT_EQ(a[i].known_re_bits, b[i].known_re_bits) << "record " << i;
    EXPECT_EQ(a[i].known_im_bits, b[i].known_im_bits) << "record " << i;
    EXPECT_EQ(a[i].samples, b[i].samples) << "record " << i;
  }
}

TEST(Split, ContiguousQueryRangesRebasedToZero) {
  TempFile in("ts_split_in.fdtrace");
  write_archive(in.path, 56, /*seed=*/7);  // queries 0..6 over 8 slots
  TempFile s0("ts_split_out.shard0"), s1("ts_split_out.shard1"), s2("ts_split_out.shard2");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_split_out", 3, &paths, &error)) << error;
  ASSERT_EQ(paths.size(), 3U);

  // 7 queries over 3 shards: leading-heavy plan 3 + 2 + 2.
  const std::size_t expected_queries[3] = {3, 2, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto recs = read_all(paths[i]);
    EXPECT_EQ(recs.size(), expected_queries[i] * 8) << "shard " << i;
    std::uint32_t max_index = 0;
    for (const auto& r : recs) max_index = std::max(max_index, r.index);
    EXPECT_EQ(max_index + 1, expected_queries[i]) << "shard " << i;  // re-based to 0
    ArchiveReader reader;
    ASSERT_TRUE(reader.open(paths[i]));
    EXPECT_EQ(reader.meta().flags & kFlagMerged, 0U);
  }
}

TEST(Split, MergeOfSplitReproducesTheArchive) {
  TempFile in("ts_roundtrip_in.fdtrace");
  TempFile out("ts_roundtrip_out.fdtrace");
  write_archive(in.path, 40, /*seed=*/11);  // queries 0..4 over 8 slots
  TempFile s0("ts_roundtrip.shard0"), s1("ts_roundtrip.shard1"), s2("ts_roundtrip.shard2");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_roundtrip", 3, &paths, &error)) << error;
  ASSERT_TRUE(merge_archives(paths, out.path, &error)) << error;
  expect_same_records(read_all(out.path), read_all(in.path));
}

TEST(Split, ShardCountCappedAtQueries) {
  TempFile in("ts_split_cap.fdtrace");
  write_archive(in.path, 16, /*seed=*/13);  // only 2 queries
  TempFile s0("ts_split_cap_out.shard0"), s1("ts_split_cap_out.shard1");

  std::string error;
  std::vector<std::string> paths;
  ASSERT_TRUE(split_archive(in.path, "ts_split_cap_out", 9, &paths, &error)) << error;
  EXPECT_EQ(paths.size(), 2U);  // one shard per query, no empty shards
}

TEST(Split, EmptyArchiveRejected) {
  TempFile in("ts_split_empty.fdtrace");
  write_archive(in.path, 0);
  std::string error;
  EXPECT_FALSE(split_archive(in.path, "ts_split_empty_out", 2, nullptr, &error));
  EXPECT_NE(error.find("no records"), std::string::npos);
}

// A header whose trace length no chunk of this file could hold must not
// drive the reader's allocation (it used to zero-fill count * 16 GB and
// die on bad_alloc): the first chunk reads as a truncated tail.
TEST(Archive, HugeTraceLengthIsBoundedByTheFile) {
  TempFile tmp("ts_huge_geom.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk);
  write_u32_at(tmp.path, 28, 0xFFFFFFF0U);  // samples_per_trace

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path)) << reader.error();
  TraceRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_TRUE(reader.stats().truncated_tail);
  EXPECT_EQ(reader.stats().records_read, 0U);

  VerifyReport report;
  ASSERT_TRUE(verify_archive(tmp.path, report));
  EXPECT_TRUE(report.truncated_tail);
  EXPECT_EQ(report.records, 0U);

  // The offline tools that re-write an archive take its geometry as
  // given; they must not allocate by it either.
  TempFile repaired("ts_huge_geom_repaired.fdtrace");
  RepairReport rr;
  EXPECT_TRUE(repair_archive(tmp.path, repaired.path, rr));
  EXPECT_TRUE(rr.truncated_tail);
  EXPECT_EQ(rr.records_kept, 0U);
}

#ifdef FD_TRACEDB_BIN

// export-csv sizes its CSV header from the records it reads, not from
// the claimed samples_per_trace: a forged header must neither write one
// header column per claimed sample nor exit 0 on a file with no
// readable record. The file-size limit turns a regression into a
// bounded failure instead of a disk-filling one.
TEST(TraceDbCli, ExportCsvForgedSampleCountIsBounded) {
  TempFile tmp("ts_forged_export.fdtrace");
  TempFile out("ts_forged_export.csv");
  write_archive(tmp.path, 2 * kTracesPerChunk);
  write_u32_at(tmp.path, 28, 0xFFFFFFF0U);  // samples_per_trace
  const std::string cmd = "ulimit -f 1024; " + std::string(FD_TRACEDB_BIN) + " export-csv " +
                          tmp.path + " > " + out.path + " 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, 0);
  const std::string csv = read_file(out.path);
  EXPECT_EQ(csv, "slot,index,known_re_bits,known_im_bits\n");
}

TEST(TraceDbCli, ExportCsvHeaderMatchesRecords) {
  TempFile tmp("ts_export.fdtrace");
  TempFile out("ts_export.csv");
  write_archive(tmp.path, 3);
  const std::string cmd = std::string(FD_TRACEDB_BIN) + " export-csv " + tmp.path + " > " +
                          out.path;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string csv = read_file(out.path);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 3 + static_cast<long>(kSamples));
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

#endif  // FD_TRACEDB_BIN

// A chunk header claiming one record more than the file holds.
TEST(Archive, ChunkOneRecordPastTheEndIsTruncatedTail) {
  TempFile tmp("ts_count_past_end.fdtrace");
  write_archive(tmp.path, 2 * kTracesPerChunk + 3);  // chunks of 8, 8, 3
  write_u32_at(tmp.path, static_cast<long>(chunk_offset(2) + 4), 4);

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(tmp.path));
  TraceRecord rec;
  std::size_t n = 0;
  while (reader.next(rec)) ++n;
  EXPECT_EQ(n, 2 * kTracesPerChunk);
  EXPECT_TRUE(reader.stats().truncated_tail);
  EXPECT_EQ(reader.stats().chunks_corrupt, 0U);
}

// promote_shard is the one-input merge without the re-encode: the same
// bytes, whether the input is renamed away or kept.
TEST(Promote, ByteIdenticalToSingleInputMerge) {
  TempFile in("ts_promote_in.fdtrace");
  TempFile merged("ts_promote_merged.fdtrace");
  TempFile kept("ts_promote_kept.fdtrace");
  TempFile moved("ts_promote_moved.fdtrace");
  write_archive(in.path, 2 * kTracesPerChunk + 5);
  const std::string original = read_file(in.path);
  const std::string inputs[1] = {in.path};
  std::string error;
  ASSERT_TRUE(merge_archives(inputs, merged.path, &error)) << error;
  const std::string want = read_file(merged.path);
  ASSERT_NE(want, original);  // the merged flag differs

  ASSERT_TRUE(promote_shard(in.path, kept.path, /*keep_input=*/true, &error)) << error;
  EXPECT_EQ(read_file(kept.path), want);
  EXPECT_EQ(read_file(in.path), original);

  ASSERT_TRUE(promote_shard(in.path, moved.path, /*keep_input=*/false, &error)) << error;
  EXPECT_EQ(read_file(moved.path), want);
  EXPECT_EQ(std::fopen(in.path.c_str(), "rb"), nullptr);
}

TEST(Promote, RejectsNonArchive) {
  TempFile in("ts_promote_junk.fdtrace");
  TempFile out("ts_promote_junk_out.fdtrace");
  {
    std::ofstream f(in.path, std::ios::binary);
    f << std::string(2 * kHeaderBytes, 'x');  // long enough to reach the magic check
  }
  std::string error;
  EXPECT_FALSE(promote_shard(in.path, out.path, /*keep_input=*/true, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_FALSE(promote_shard("ts_promote_missing.fdtrace", out.path, false, &error));
}

}  // namespace
}  // namespace fd::tracestore
