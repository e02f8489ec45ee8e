// fd-tracedb: offline tooling for .fdtrace archives.
//
//   fd-tracedb info <archive> [--json]        header + record census
//   fd-tracedb verify <archive> [--json]      CRC walk; exit 1 on damage
//   fd-tracedb repair <in> <out> [--json]     salvage CRC-valid chunks
//   fd-tracedb merge <out> <in1> <in2> [...]  join shards into one archive
//   fd-tracedb split <in> <out-prefix> <k>    cut into k query-range shards
//   fd-tracedb export-csv <archive> [slot [max_records]]  exit 1 on damage
//
// --json replaces the human output of info/verify with one flat JSON
// object on stdout (the telemetry JSONL dialect), for scripting and CI.
//
// Links only fd_tracestore: the tool runs anywhere the capture rig does
// not (analysis boxes, CI), which is the point of a persistent format.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/jsonl.h"
#include "tracestore/archive.h"

using namespace fd::tracestore;
namespace jsonl = fd::obs::jsonl;

namespace {

// Tiny flat-JSON object writer over the canonical jsonl helpers.
class JsonOut {
 public:
  JsonOut& field(std::string_view key, double v) {
    key_(key);
    jsonl::append_number(buf_, v);
    return *this;
  }
  // Integral values route through double explicitly; without this, a
  // size_t argument is ambiguous between the double and bool overloads.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonOut& field(std::string_view key, T v) {
    return field(key, static_cast<double>(v));
  }
  JsonOut& field(std::string_view key, std::string_view v) {
    key_(key);
    buf_ += '"';
    buf_ += jsonl::escape(v);
    buf_ += '"';
    return *this;
  }
  JsonOut& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonOut& field(std::string_view key, bool v) {
    key_(key);
    buf_ += v ? "true" : "false";
    return *this;
  }
  JsonOut& field(std::string_view key, std::span<const std::size_t> values) {
    key_(key);
    buf_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) buf_ += ',';
      jsonl::append_number(buf_, static_cast<double>(values[i]));
    }
    buf_ += ']';
    return *this;
  }
  void print() { std::printf("{%s}\n", buf_.c_str()); }

 private:
  void key_(std::string_view key) {
    if (!buf_.empty()) buf_ += ',';
    buf_ += '"';
    buf_ += jsonl::escape(key);
    buf_ += "\":";
  }
  std::string buf_;
};

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llX", static_cast<unsigned long long>(v));
  return buf;
}

void print_meta(const ArchiveMeta& m) {
  std::printf("format version     %u\n", m.version);
  std::printf("logn               %u (n = %u)\n", m.logn, 1U << m.logn);
  std::printf("basis row          %u (%s)\n", m.row, m.row == 0 ? "f-row" : "F-row");
  std::printf("complex slots      %u\n", m.num_slots);
  std::printf("samples per trace  %u\n", m.samples_per_trace);
  std::printf("traces per chunk   %u\n", m.traces_per_chunk);
  std::printf("device             alpha=%g sigma=%g spe=%u jitter=%u%s\n", m.alpha,
              m.noise_sigma, m.samples_per_event, m.jitter_max,
              (m.flags & kFlagConstantWeight) != 0 ? " constant-weight" : "");
  std::printf("capture seed       0x%llX%s\n", static_cast<unsigned long long>(m.seed),
              (m.flags & kFlagMerged) != 0 ? " (merged shards)" : "");
}

int cmd_info(const std::string& path, bool json) {
  ArchiveReader reader;
  if (!reader.open(path)) {
    std::fprintf(stderr, "fd-tracedb: %s\n", reader.error().c_str());
    return 2;
  }
  TraceRecord rec;
  std::size_t per_slot_min = SIZE_MAX;
  std::size_t per_slot_max = 0;
  std::vector<std::size_t> per_slot(reader.meta().num_slots, 0);
  while (reader.next(rec)) {
    if (rec.slot < per_slot.size()) ++per_slot[rec.slot];
  }
  for (const std::size_t c : per_slot) {
    per_slot_min = std::min(per_slot_min, c);
    per_slot_max = std::max(per_slot_max, c);
  }
  if (per_slot.empty()) per_slot_min = 0;
  const auto& m = reader.meta();
  const auto& st = reader.stats();
  if (json) {
    JsonOut out;
    out.field("archive", path)
        .field("version", m.version)
        .field("logn", m.logn)
        .field("n", 1U << m.logn)
        .field("row", m.row)
        .field("num_slots", m.num_slots)
        .field("samples_per_trace", m.samples_per_trace)
        .field("traces_per_chunk", m.traces_per_chunk)
        .field("alpha", m.alpha)
        .field("noise_sigma", m.noise_sigma)
        .field("samples_per_event", m.samples_per_event)
        .field("jitter_max", m.jitter_max)
        .field("constant_weight", (m.flags & kFlagConstantWeight) != 0)
        .field("merged", (m.flags & kFlagMerged) != 0)
        .field("seed", hex64(m.seed))  // string: a 64-bit seed can exceed 2^53
        .field("records", st.records_read)
        .field("per_slot_min", per_slot_min)
        .field("per_slot_max", per_slot_max)
        .field("chunks_ok", st.chunks_ok)
        .field("chunks_corrupt", st.chunks_corrupt)
        .field("corrupt_chunks", std::span<const std::size_t>(st.corrupt_chunk_indices))
        .field("truncated_tail", st.truncated_tail);
    out.print();
    return 0;
  }
  print_meta(m);
  std::printf("records            %zu (%zu..%zu per slot)\n", st.records_read, per_slot_min,
              per_slot_max);
  std::printf("chunks             %zu ok, %zu corrupt%s\n", st.chunks_ok, st.chunks_corrupt,
              st.truncated_tail ? ", truncated tail" : "");
  return 0;
}

int cmd_verify(const std::string& path, bool json) {
  VerifyReport report;
  std::string error;
  if (!verify_archive(path, report, &error)) {
    if (json) {
      JsonOut out;
      out.field("archive", path).field("ok", false).field("error", error);
      out.print();
    } else {
      std::fprintf(stderr, "fd-tracedb: %s\n", error.c_str());
    }
    return 2;
  }
  if (json) {
    JsonOut out;
    out.field("archive", path)
        .field("ok", true)
        .field("clean", report.clean())
        .field("records", report.records)
        .field("chunks_ok", report.chunks_ok)
        .field("chunks_corrupt", report.chunks_corrupt)
        .field("corrupt_chunks", std::span<const std::size_t>(report.corrupt_chunks))
        .field("truncated_tail", report.truncated_tail);
    out.print();
    return report.clean() ? 0 : 1;
  }
  std::printf("%s: %zu records in %zu chunks", path.c_str(), report.records,
              report.chunks_ok + report.chunks_corrupt);
  if (report.clean()) {
    std::printf(" -- OK\n");
    return 0;
  }
  std::printf(" -- DAMAGED (%zu corrupt chunk%s%s)\n", report.chunks_corrupt,
              report.chunks_corrupt == 1 ? "" : "s",
              report.truncated_tail ? ", truncated tail" : "");
  for (const std::size_t c : report.corrupt_chunks) {
    std::printf("  corrupt chunk #%zu (CRC mismatch)\n", c);
  }
  return 1;
}

int cmd_repair(const std::string& in, const std::string& out_path, bool json) {
  RepairReport report;
  std::string error;
  if (!repair_archive(in, out_path, report, &error)) {
    if (json) {
      JsonOut out;
      out.field("archive", in).field("ok", false).field("error", error);
      out.print();
    } else {
      std::fprintf(stderr, "fd-tracedb: repair failed: %s\n", error.c_str());
    }
    return 2;
  }
  if (json) {
    JsonOut out;
    out.field("archive", in)
        .field("repaired", out_path)
        .field("ok", true)
        .field("records_kept", report.records_kept)
        .field("chunks_kept", report.chunks_kept)
        .field("chunks_dropped", report.chunks_dropped)
        .field("dropped_chunks", std::span<const std::size_t>(report.dropped_chunks))
        .field("dropped_records",
               std::span<const std::size_t>(report.dropped_record_ordinals))
        .field("truncated_tail", report.truncated_tail);
    out.print();
    return report.chunks_dropped == 0 && !report.truncated_tail ? 0 : 1;
  }
  std::printf("repaired %s -> %s: kept %zu records (%zu chunks), dropped %zu chunk%s%s\n",
              in.c_str(), out_path.c_str(), report.records_kept, report.chunks_kept,
              report.chunks_dropped, report.chunks_dropped == 1 ? "" : "s",
              report.truncated_tail ? ", truncated tail" : "");
  for (const std::size_t o : report.dropped_chunks) {
    std::printf("  dropped chunk #%zu (CRC mismatch)\n", o);
  }
  if (!report.dropped_record_ordinals.empty()) {
    std::printf("  dropped record ordinals:");
    for (const std::size_t r : report.dropped_record_ordinals) std::printf(" %zu", r);
    std::printf("\n");
  }
  return report.chunks_dropped == 0 && !report.truncated_tail ? 0 : 1;
}

int cmd_merge(const std::string& out, std::span<const std::string> inputs) {
  std::string error;
  if (!merge_archives(inputs, out, &error)) {
    std::fprintf(stderr, "fd-tracedb: merge failed: %s\n", error.c_str());
    return 2;
  }
  VerifyReport report;
  if (!verify_archive(out, report, &error)) {
    std::fprintf(stderr, "fd-tracedb: merged archive unreadable: %s\n", error.c_str());
    return 2;
  }
  std::printf("merged %zu input%s -> %s (%zu records)\n", inputs.size(),
              inputs.size() == 1 ? "" : "s", out.c_str(), report.records);
  return 0;
}

int cmd_split(const std::string& in, const std::string& prefix, std::size_t k) {
  std::string error;
  std::vector<std::string> paths;
  if (!split_archive(in, prefix, k, &paths, &error)) {
    std::fprintf(stderr, "fd-tracedb: split failed: %s\n", error.c_str());
    return 2;
  }
  std::size_t records = 0;
  for (const auto& p : paths) {
    VerifyReport report;
    if (!verify_archive(p, report, &error)) {
      std::fprintf(stderr, "fd-tracedb: shard unreadable: %s: %s\n", p.c_str(), error.c_str());
      return 2;
    }
    records += report.records;
  }
  std::printf("split %s -> %zu shard%s at %s.shard* (%zu records)\n", in.c_str(), paths.size(),
              paths.size() == 1 ? "" : "s", prefix.c_str(), records);
  return 0;
}

int cmd_export_csv(const std::string& path, long slot, std::size_t max_records) {
  ArchiveReader reader;
  if (!reader.open(path)) {
    std::fprintf(stderr, "fd-tracedb: %s\n", reader.error().c_str());
    return 2;
  }
  // One sample column per sample of the first record the file actually
  // holds -- never per the header's claimed samples_per_trace, which a
  // forged header could set to 2^32 and make this line gigabytes long.
  TraceRecord rec;
  bool more = reader.next(rec);
  std::printf("slot,index,known_re_bits,known_im_bits");
  if (more) {
    for (std::size_t s = 0; s < rec.samples.size(); ++s) std::printf(",s%zu", s);
  }
  std::printf("\n");
  std::size_t emitted = 0;
  for (; more && emitted < max_records; more = reader.next(rec)) {
    if (slot >= 0 && rec.slot != static_cast<std::uint32_t>(slot)) continue;
    std::printf("%u,%u,0x%016llX,0x%016llX", rec.slot, rec.index,
                static_cast<unsigned long long>(rec.known_re_bits),
                static_cast<unsigned long long>(rec.known_im_bits));
    for (const float v : rec.samples) std::printf(",%.9g", v);
    std::printf("\n");
    ++emitted;
  }
  if (!reader.stats().clean()) {
    std::fprintf(stderr,
                 "fd-tracedb: %s is damaged (%zu corrupt chunk%s%s); exported %zu records\n",
                 path.c_str(), reader.stats().chunks_corrupt,
                 reader.stats().chunks_corrupt == 1 ? "" : "s",
                 reader.stats().truncated_tail ? ", truncated tail" : "", emitted);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: fd-tracedb info <archive> [--json]\n"
               "       fd-tracedb verify <archive> [--json]\n"
               "       fd-tracedb repair <in> <out> [--json]\n"
               "       fd-tracedb merge <out> <in1> <in2> [...]\n"
               "       fd-tracedb split <in> <out-prefix> <k>\n"
               "       fd-tracedb export-csv <archive> [slot [max_records]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json wherever it appears; positional arguments keep their order.
  bool json = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      json = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const std::string& cmd = args[0];
  if (cmd == "info") return cmd_info(args[1], json);
  if (cmd == "verify") return cmd_verify(args[1], json);
  if (cmd == "repair") {
    if (args.size() < 3) return usage();
    return cmd_repair(args[1], args[2], json);
  }
  if (cmd == "merge") {
    if (args.size() < 3) return usage();
    const std::vector<std::string> inputs(args.begin() + 2, args.end());
    return cmd_merge(args[1], inputs);
  }
  if (cmd == "split") {
    if (args.size() < 4) return usage();
    const long long k = std::atoll(args[3].c_str());
    if (k <= 0) return usage();
    return cmd_split(args[1], args[2], static_cast<std::size_t>(k));
  }
  if (cmd == "export-csv") {
    const long slot = args.size() > 2 ? std::atol(args[2].c_str()) : -1;
    const std::size_t max_records =
        args.size() > 3 ? static_cast<std::size_t>(std::atoll(args[3].c_str())) : SIZE_MAX;
    return cmd_export_csv(args[1], slot, max_records);
  }
  return usage();
}
