#ifndef EMX_IO_EMXM_H_
#define EMX_IO_EMXM_H_

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "io/mmap_file.h"
#include "util/status.h"

namespace emx {
namespace io {

// The "EMXM1" zero-copy model container.
//
//   +-----------------------------+  offset 0
//   | EmxmHeader (64 bytes)       |
//   +-----------------------------+  header.table_offset
//   | EmxmSectionEntry[count]     |  96 bytes each
//   +-----------------------------+  header.strtab_offset
//   | string table (section names)|
//   +-----------------------------+  64-byte aligned
//   | payload 0 (64-byte aligned) |
//   | payload 1 (64-byte aligned) |
//   | ...                         |
//   +-----------------------------+  header.file_bytes == file size
//
// Every multi-byte field is little-endian, a contract enforced at compile
// time (the static_asserts below), so a mapped file is readable by pointer
// on any supported platform with zero parsing. Payloads are 64-byte
// aligned so an int8 weight tile or an fp32 tensor row can be loaded with
// aligned SIMD instructions straight out of the mapping.
//
// A model file is a container with a "p:<name>" kF32Tensor section per
// parameter, the int8 sections of a quantized matcher if it has them, and
// a kManifest section named kManifestSection. A retrieval index is a
// container of "ridx:" sections and a catalog adds "cat:" text sections
// (see retrieval/qgram_index.h).

static_assert(std::endian::native == std::endian::little,
              "EMXM1 containers are little-endian and read in place; "
              "big-endian hosts would need byte-swapping loaders");
static_assert(sizeof(void*) == 8 && sizeof(std::size_t) == 8,
              "EMXM1 offsets are 64-bit; 32-bit hosts cannot map "
              "multi-GB model containers");
static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
              "EMXM1 stores IEEE-754 binary32 tensor payloads");

/// Payload alignment: one cache line, and the unit the int8 GEMM loads
/// per 512-bit instruction.
inline constexpr uint64_t kEmxmAlign = 64;

/// "EMXM1\0\0\0" as a little-endian u64.
inline constexpr uint64_t kEmxmMagic = 0x0000'0031'4d58'4d45ull;
inline constexpr uint32_t kEmxmVersion = 1;

/// What a section's payload holds; `aux` is interpreted per kind.
enum class SectionKind : uint32_t {
  /// fp32 tensor. aux[0] = ndim (<= 5), aux[1 + i] = dim i.
  /// payload = row-major floats, 4 * prod(dims) bytes.
  kF32Tensor = 1,
  /// Packed int8 weight image in the quant kernel's blocked layout.
  /// aux = {in, out, k_padded, n_padded, f32-bits(act_scale),
  /// act_zero_point}; payload = n_padded * k_padded int8 bytes, read by
  /// the GEMM directly from the mapping.
  kInt8Packed = 2,
  /// fp32 vector. aux[0] = count; payload = 4 * count bytes.
  kF32Vec = 3,
  /// int32 vector. aux[0] = count; payload = 4 * count bytes.
  kI32Vec = 4,
  /// Fused-FFN metadata, no payload. aux = {activation,
  /// f32-bits(mid_scale), mid_zero_point}.
  kFfnMeta = 5,
  /// Model manifest: payload = architecture name (unterminated bytes);
  /// aux = {fp32 tensor count, int8 linear count, ffn count}.
  kManifest = 6,
  /// uint32 vector. aux[0] = count; payload = 4 * count bytes.
  kU32Vec = 7,
  /// uint64 vector. aux[0] = count; payload = 8 * count bytes.
  kU64Vec = 8,
  /// Byte blob (concatenated strings). aux[0] = count of bytes.
  kBytes = 9,
  /// Retrieval index header, no payload. aux = {qgram, index_tokens,
  /// max_postings, num_shards, next_id, num_features}.
  kIndexMeta = 10,
};

/// Name of a model file's manifest section.
inline constexpr char kManifestSection[] = "emxm:manifest";

/// Round-trips a float through the u64 aux slots.
inline uint64_t AuxFromF32(float v) {
  return static_cast<uint64_t>(std::bit_cast<uint32_t>(v));
}
inline float F32FromAux(uint64_t v) {
  return std::bit_cast<float>(static_cast<uint32_t>(v));
}

/// On-disk header, mapped in place.
struct EmxmHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t header_bytes;  // sizeof(EmxmHeader)
  uint64_t section_count;
  uint64_t table_offset;
  uint64_t strtab_offset;
  uint64_t strtab_bytes;
  uint64_t file_bytes;  // must equal the mapped size exactly
  uint64_t reserved;
};
static_assert(sizeof(EmxmHeader) == 64, "EMXM1 header is one cache line");

/// On-disk section-table entry, mapped in place.
struct EmxmSectionEntry {
  uint64_t name_offset;  // absolute, inside the string table
  uint64_t name_bytes;
  uint32_t kind;
  uint32_t reserved0;
  uint64_t payload_offset;  // absolute; 64-byte aligned (0 when empty)
  uint64_t payload_bytes;
  uint64_t aux[6];
  uint64_t reserved1;
};
static_assert(sizeof(EmxmSectionEntry) == 96,
              "section entries are fixed-stride for in-place indexing");

/// A validated view of one section. `data` points into the mapping.
struct Section {
  std::string name;
  SectionKind kind = SectionKind::kF32Tensor;
  std::array<uint64_t, 6> aux{};
  const uint8_t* data = nullptr;
  uint64_t bytes = 0;
};

/// Accumulates sections, then writes the container in one pass through an
/// AtomicFileWriter (the publish primitive hot-swap watchers rely on:
/// `path` either holds the old complete file or the new complete file,
/// never a torn intermediate). Payload pointers are borrowed — they must
/// stay valid until WriteFile returns; nothing is copied.
class EmxmWriter {
 public:
  /// `payload` may be null iff `payload_bytes` is 0.
  void AddSection(std::string name, SectionKind kind,
                  const std::array<uint64_t, 6>& aux, const void* payload,
                  uint64_t payload_bytes);

  Status WriteFile(const std::string& path) const;

  /// Sections added so far of one kind.
  uint64_t count(SectionKind kind) const;

 private:
  struct Pending {
    std::string name;
    SectionKind kind;
    std::array<uint64_t, 6> aux;
    const void* payload;
    uint64_t payload_bytes;
  };
  std::vector<Pending> sections_;
};

/// True when `offsets` starts at 0, never decreases and ends at `total`:
/// the invariant of every CSR offset array read from a container. Counts
/// the non-empty ranges into `*nonempty` when given.
template <typename T>
bool ValidOffsets(std::span<const T> offsets, uint64_t total,
                  int64_t* nonempty = nullptr) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return false;
  }
  bool decreasing = false;
  int64_t ranges = 0;
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    decreasing |= offsets[i] > offsets[i + 1];
    ranges += offsets[i] != offsets[i + 1];
  }
  if (nonempty != nullptr) *nonempty = ranges;
  return !decreasing;
}

/// Opens a container by mmap and validates the entire structure up front:
/// magic/version, header geometry, table and string-table bounds, per-
/// section name bounds, payload bounds, payload alignment, known kinds,
/// and that header.file_bytes matches the real file size (no trailing
/// garbage, no truncation). After Open succeeds, every Section::data
/// pointer is guaranteed in-bounds — loaders only need kind-specific
/// checks. Returned shared so weight backends can keep the mapping alive
/// for as long as they serve from it.
class EmxmReader {
 public:
  static Result<std::shared_ptr<const EmxmReader>> Open(
      const std::string& path);

  const std::vector<Section>& sections() const { return sections_; }
  /// Null when no section has that name.
  const Section* Find(std::string_view name) const;

  /// Section `name` as an array of T: InvalidArgument unless it exists,
  /// has `kind`, aux[0] == `count` (any count for kAnyCount) and a payload
  /// of exactly aux[0] elements. The span points into the mapping.
  static constexpr uint64_t kAnyCount = ~0ull;
  template <typename T>
  Result<std::span<const T>> View(std::string_view name, SectionKind kind,
                                  uint64_t count = kAnyCount) const {
    const Section* s = Find(name);
    if (s == nullptr || s->kind != kind) {
      return Status::InvalidArgument("EMXM " + path() + ": no section " +
                                     std::string(name) + " of kind " +
                                     std::to_string(static_cast<int>(kind)));
    }
    const uint64_t n = s->aux[0];
    if ((count != kAnyCount && n != count) || n > s->bytes / sizeof(T) ||
        n * sizeof(T) != s->bytes) {
      return Status::InvalidArgument(
          "EMXM " + path() + ": section " + std::string(name) + " holds " +
          std::to_string(s->bytes) + " bytes for " + std::to_string(n) +
          " elements" +
          (count == kAnyCount ? "" : ", expected " + std::to_string(count)));
    }
    return std::span<const T>(reinterpret_cast<const T*>(s->data), n);
  }

  uint64_t file_bytes() const { return map_.size(); }
  const std::string& path() const { return map_.path(); }
  const MmapFile& mapping() const { return map_; }

 private:
  explicit EmxmReader(MmapFile map) : map_(std::move(map)) {}

  MmapFile map_;
  std::vector<Section> sections_;
  std::unordered_map<std::string, size_t> by_name_;
};

}  // namespace io
}  // namespace emx

#endif  // EMX_IO_EMXM_H_
