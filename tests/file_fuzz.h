#ifndef EMX_TESTS_FILE_FUZZ_H_
#define EMX_TESTS_FILE_FUZZ_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <ios>
#include <string>
#include <vector>

#include "util/status.h"

namespace emx {
namespace testing {

/// Reads a whole file into memory (empty vector for a missing file, which
/// the corruption helpers treat as a test setup bug via ASSERT).
inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  std::vector<uint8_t> bytes(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "short write to " << path;
}

/// Runs `load` against every truncation of the file at `path`: each prefix
/// length in [0, size) at `stride`-byte steps, plus every boundary in
/// `boundaries` (field edges the strided sweep might skip). Each loader
/// call must return a non-OK Status — never crash, never succeed, never
/// allocate unboundedly (ASan/ulimit enforce the latter two). The original
/// file is restored afterwards so later assertions can reuse it.
inline void ExpectAllTruncationsFail(
    const std::string& path,
    const std::function<Status(const std::string&)>& load, size_t stride = 1,
    const std::vector<size_t>& boundaries = {}) {
  const std::vector<uint8_t> whole = ReadFileBytes(path);
  ASSERT_FALSE(whole.empty()) << path << " missing or empty before fuzzing";

  std::vector<size_t> cuts;
  for (size_t n = 0; n < whole.size(); n += stride) cuts.push_back(n);
  for (size_t n : boundaries) {
    if (n < whole.size()) cuts.push_back(n);
  }

  const std::string trunc = path + ".trunc";
  for (size_t n : cuts) {
    WriteFileBytes(trunc,
                   std::vector<uint8_t>(whole.begin(),
                                        whole.begin() + static_cast<long>(n)));
    const Status s = load(trunc);
    EXPECT_FALSE(s.ok()) << "loader accepted " << n << " of " << whole.size()
                         << " bytes of " << path;
    // Removed rather than truncated by the next write: truncating a file
    // with data blocks can cost tens of ms on filesystems that discard
    // freed blocks, creating a new one does not.
    std::remove(trunc.c_str());
  }
}

/// Overwrites sizeof(T) bytes at `offset` with `value`, runs `check`
/// against the patched file, then restores the original bytes. For
/// flipping magics, versions, counts, offsets, and dims in place.
template <typename T>
void WithPatchedField(const std::string& path, size_t offset, T value,
                      const std::function<void(const std::string&)>& check) {
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), offset + sizeof(T)) << "patch outside " << path;
  const std::string patched = path + ".patched";
  std::vector<uint8_t> copy = bytes;
  std::memcpy(copy.data() + offset, &value, sizeof(T));
  WriteFileBytes(patched, copy);
  check(patched);
  std::remove(patched.c_str());
}

}  // namespace testing
}  // namespace emx

#endif  // EMX_TESTS_FILE_FUZZ_H_
