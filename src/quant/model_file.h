#ifndef EMX_QUANT_MODEL_FILE_H_
#define EMX_QUANT_MODEL_FILE_H_

#include <cstdint>
#include <string>

#include "core/entity_matcher.h"
#include "util/status.h"

namespace emx {
namespace quant {

/// What a container held, reported by LoadModelFileMapped.
struct ModelFileInfo {
  int64_t fp32_params = 0;
  int64_t int8_linears = 0;  // standalone + per-FFN fc1/fc2 entries
  int64_t int8_ffns = 0;
  /// True when the file carried quantized backends — the matcher is ready
  /// to serve int8 with no calibration pass.
  bool has_int8 = false;
};

/// Writes the matcher's full serving state as its model file
/// (EntityMatcher::Save, byte for byte when the matcher is not quantized),
/// plus — when it is — the packed int8 image of every linear, its
/// per-channel scales/bias/column sums, and each FFN's fusion grid,
/// exactly as the kernels use them. The packed bytes go into the file
/// verbatim, which is what lets the loader hand the mapping straight to
/// the GEMM. The write is atomic (tmp + rename), so a watcher seeing the
/// file change always sees it whole.
Status SaveModelFile(core::EntityMatcher* matcher, const std::string& path);

/// Opens an EMXM container by mmap and loads it into the matcher, zero-copy
/// throughout: each fp32 parameter becomes a read-only Tensor::FromExternal
/// view of its mapped payload (nn::LoadParametersMapped), and the attached
/// int8 backends alias the packed weights in the same mapping. Both keep
/// the mapping alive, so cold-start cost is O(metadata), not O(model
/// bytes), and replicas mapping the same file share one physical copy of
/// the weights. The matcher is read-only afterwards: the mapping is
/// PROT_READ, so fine-tuning or re-quantizing it is undefined behavior
/// (load with EntityMatcher::Load for mutable parameters). The container's
/// architecture manifest must match the matcher. On any error the matcher
/// is left untouched.
Result<ModelFileInfo> LoadModelFileMapped(core::EntityMatcher* matcher,
                                          const std::string& path);

}  // namespace quant
}  // namespace emx

#endif  // EMX_QUANT_MODEL_FILE_H_
