#include "io/emxm.h"

#include <algorithm>
#include <cstring>

#include "io/atomic_file.h"

namespace emx {
namespace io {
namespace {

uint64_t AlignUp(uint64_t v) {
  return (v + (kEmxmAlign - 1)) & ~(kEmxmAlign - 1);
}

/// `offset + bytes <= limit` without wrapping.
bool RangeOk(uint64_t offset, uint64_t bytes, uint64_t limit) {
  return offset <= limit && bytes <= limit - offset;
}

bool KnownKind(uint32_t kind) {
  return kind >= static_cast<uint32_t>(SectionKind::kF32Tensor) &&
         kind <= static_cast<uint32_t>(SectionKind::kIndexMeta);
}

// Caps far above any real model, far below an allocation that could hurt.
constexpr uint64_t kMaxSections = 1ull << 20;
constexpr uint64_t kMaxNameBytes = 1ull << 16;

}  // namespace

void EmxmWriter::AddSection(std::string name, SectionKind kind,
                            const std::array<uint64_t, 6>& aux,
                            const void* payload, uint64_t payload_bytes) {
  sections_.push_back(
      Pending{std::move(name), kind, aux, payload, payload_bytes});
}

uint64_t EmxmWriter::count(SectionKind kind) const {
  return static_cast<uint64_t>(
      std::count_if(sections_.begin(), sections_.end(),
                    [kind](const Pending& p) { return p.kind == kind; }));
}

Status EmxmWriter::WriteFile(const std::string& path) const {
  // Lay out the whole file first so the header and table are final before
  // the first byte is written.
  const uint64_t table_offset = sizeof(EmxmHeader);
  const uint64_t table_bytes = sections_.size() * sizeof(EmxmSectionEntry);
  const uint64_t strtab_offset = table_offset + table_bytes;

  std::vector<EmxmSectionEntry> entries(sections_.size());
  std::string strtab;
  for (size_t i = 0; i < sections_.size(); ++i) {
    entries[i] = EmxmSectionEntry{};
    entries[i].name_offset = strtab_offset + strtab.size();
    entries[i].name_bytes = sections_[i].name.size();
    entries[i].kind = static_cast<uint32_t>(sections_[i].kind);
    std::memcpy(entries[i].aux, sections_[i].aux.data(),
                sizeof(entries[i].aux));
    strtab += sections_[i].name;
  }

  uint64_t cursor = AlignUp(strtab_offset + strtab.size());
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].payload_bytes == 0) continue;
    entries[i].payload_offset = cursor;
    entries[i].payload_bytes = sections_[i].payload_bytes;
    cursor = AlignUp(cursor + sections_[i].payload_bytes);
  }

  EmxmHeader header{};
  header.magic = kEmxmMagic;
  header.version = kEmxmVersion;
  header.header_bytes = sizeof(EmxmHeader);
  header.section_count = sections_.size();
  header.table_offset = table_offset;
  header.strtab_offset = strtab_offset;
  header.strtab_bytes = strtab.size();
  // file_bytes is where the *last* payload ends, not the aligned cursor:
  // trailing pad after the final section would make the mapped size
  // disagree with the sum of parts for no benefit.
  uint64_t file_bytes = AlignUp(strtab_offset + strtab.size());
  for (const auto& e : entries) {
    if (e.payload_bytes > 0) {
      file_bytes = e.payload_offset + e.payload_bytes;
    }
  }
  header.file_bytes = file_bytes;

  AtomicFileWriter writer(path);
  EMX_RETURN_IF_ERROR(writer.status());
  std::ofstream& out = writer.stream();

  uint64_t written = 0;
  auto put = [&](const void* p, uint64_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written += n;
  };
  static constexpr char kZeros[kEmxmAlign] = {};
  auto pad_to = [&](uint64_t offset) {
    while (written < offset) {
      const uint64_t n = std::min<uint64_t>(offset - written, kEmxmAlign);
      put(kZeros, n);
    }
  };

  put(&header, sizeof(header));
  put(entries.data(), table_bytes);
  put(strtab.data(), strtab.size());
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].payload_bytes == 0) continue;
    pad_to(entries[i].payload_offset);
    put(sections_[i].payload, sections_[i].payload_bytes);
  }
  if (written != file_bytes) {
    return Status::Internal("EMXM layout mismatch: wrote " +
                            std::to_string(written) + " bytes, planned " +
                            std::to_string(file_bytes));
  }
  return writer.Commit();
}

Result<std::shared_ptr<const EmxmReader>> EmxmReader::Open(
    const std::string& path) {
  EMX_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
  const uint64_t size = map.size();
  const uint8_t* base = map.data();

  auto bad = [&](const std::string& what) {
    return Status::InvalidArgument("EMXM " + path + ": " + what);
  };

  if (size < sizeof(EmxmHeader)) {
    return bad("file shorter than header (" + std::to_string(size) +
               " bytes)");
  }
  EmxmHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (header.magic != kEmxmMagic) return bad("bad magic");
  if (header.version != kEmxmVersion) {
    return bad("unsupported version " + std::to_string(header.version));
  }
  if (header.header_bytes != sizeof(EmxmHeader)) {
    return bad("unexpected header size " +
               std::to_string(header.header_bytes));
  }
  if (header.file_bytes != size) {
    // A truncated copy or a torn non-atomic write shows up here before any
    // section pointer is formed.
    return bad("header claims " + std::to_string(header.file_bytes) +
               " bytes but file has " + std::to_string(size));
  }
  if (header.section_count > kMaxSections) {
    return bad("implausible section count " +
               std::to_string(header.section_count));
  }
  const uint64_t table_bytes =
      header.section_count * sizeof(EmxmSectionEntry);
  if (!RangeOk(header.table_offset, table_bytes, size)) {
    return bad("section table out of bounds");
  }
  if (!RangeOk(header.strtab_offset, header.strtab_bytes, size)) {
    return bad("string table out of bounds");
  }

  auto reader = std::shared_ptr<EmxmReader>(new EmxmReader(std::move(map)));
  base = reader->map_.data();
  reader->sections_.reserve(header.section_count);

  for (uint64_t i = 0; i < header.section_count; ++i) {
    EmxmSectionEntry entry;
    std::memcpy(&entry, base + header.table_offset + i * sizeof(entry),
                sizeof(entry));
    const std::string at = "section " + std::to_string(i);
    if (!KnownKind(entry.kind)) {
      return bad(at + ": unknown kind " + std::to_string(entry.kind));
    }
    if (entry.name_bytes > kMaxNameBytes) {
      return bad(at + ": name length " + std::to_string(entry.name_bytes));
    }
    if (entry.name_offset < header.strtab_offset ||
        !RangeOk(entry.name_offset, entry.name_bytes,
                 header.strtab_offset + header.strtab_bytes)) {
      return bad(at + ": name outside string table");
    }
    if (entry.payload_bytes > 0) {
      if (entry.payload_offset % kEmxmAlign != 0) {
        return bad(at + ": payload misaligned (offset " +
                   std::to_string(entry.payload_offset) + ")");
      }
      if (!RangeOk(entry.payload_offset, entry.payload_bytes, size)) {
        return bad(at + ": payload out of bounds");
      }
    }

    Section s;
    s.name.assign(reinterpret_cast<const char*>(base + entry.name_offset),
                  entry.name_bytes);
    s.kind = static_cast<SectionKind>(entry.kind);
    std::memcpy(s.aux.data(), entry.aux, sizeof(entry.aux));
    s.bytes = entry.payload_bytes;
    s.data = entry.payload_bytes > 0 ? base + entry.payload_offset : nullptr;
    if (reader->by_name_.count(s.name) > 0) {
      return bad("duplicate section name \"" + s.name + "\"");
    }
    reader->by_name_.emplace(s.name, reader->sections_.size());
    reader->sections_.push_back(std::move(s));
  }

  // Weight pages are touched in whatever order the first forward needs
  // them; telling the kernel not to read ahead keeps the cold-start cost
  // proportional to what is actually used.
  (void)reader->map_.Advise(MapAdvice::kRandom);
  return std::shared_ptr<const EmxmReader>(std::move(reader));
}

const Section* EmxmReader::Find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &sections_[it->second];
}

}  // namespace io
}  // namespace emx
