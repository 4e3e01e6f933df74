#ifndef EMX_NN_MODULE_H_
#define EMX_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "io/emxm.h"
#include "tensor/variable.h"
#include "util/status.h"

namespace emx {
namespace nn {

class Linear;
class FeedForward;

/// A named trainable parameter. The Variable is a shared handle, so copies
/// refer to the same underlying storage and gradient.
struct NamedParam {
  std::string name;
  Variable var;
};

/// The quantizable layers of a module tree, collected by
/// Module::CollectQuantTargets. FeedForward blocks are reported as whole
/// units (not as their two inner Linears) so a quantization pass can fuse
/// fc1 -> activation -> fc2 into a single integer pipeline; every other
/// Linear (attention projections, pooler, classifier head) is reported
/// individually.
struct QuantTargets {
  std::vector<std::pair<std::string, Linear*>> linears;
  std::vector<std::pair<std::string, FeedForward*>> ffns;
};

/// Base class for trainable components. A Module owns parameter Variables
/// and reports them via CollectParameters so optimizers and serialization
/// can reach every tensor without knowing the concrete type.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends all parameters, with names prefixed by `prefix` (e.g.
  /// "encoder.layer0.attn.wq").
  virtual void CollectParameters(const std::string& prefix,
                                 std::vector<NamedParam>* out) = 0;

  /// Appends the module's quantizable layers (see QuantTargets), with the
  /// same name scheme as CollectParameters. The default reports nothing;
  /// Linear/FeedForward report themselves and containers forward to their
  /// children. Modules that never run on the serving path (MLM/NSP heads,
  /// RNN baselines) keep the default.
  virtual void CollectQuantTargets(const std::string& prefix,
                                   QuantTargets* out) {
    (void)prefix;
    (void)out;
  }

  /// Convenience: all parameters with an empty prefix.
  std::vector<NamedParam> Parameters() {
    std::vector<NamedParam> out;
    CollectParameters("", &out);
    return out;
  }

  /// Zeroes every parameter gradient.
  void ZeroGrad() {
    for (auto& p : Parameters()) p.var.ZeroGrad();
  }

  /// Total scalar parameter count.
  int64_t NumParameters() {
    int64_t n = 0;
    for (auto& p : Parameters()) n += p.var.size();
    return n;
  }
};

/// Joins a prefix and a leaf name with '.' (no leading dot for empty prefix).
std::string JoinName(const std::string& prefix, const std::string& leaf);

/// Saves parameters as an EMXM1 container: one "p:<name>" fp32 tensor
/// section per parameter, published atomically (tmp + rename).
Status SaveParameters(const std::string& path,
                      const std::vector<NamedParam>& params);

/// Loads parameters by name from an EMXM1 container into existing
/// Variables; shapes must match and every parameter must be present.
/// Other sections (a model file's int8 images and manifest) are ignored.
/// Each value is copied into a fresh heap tensor, so the model stays
/// trainable; on any error the model is left untouched.
Status LoadParameters(const std::string& path,
                      const std::vector<NamedParam>& params);

/// Adds one "p:<name>" fp32 tensor section per parameter to an EMXM
/// container under construction. The tensors are borrowed, not copied —
/// keep the model alive until EmxmWriter::WriteFile returns.
Status AppendParametersEmxm(io::EmxmWriter* writer,
                            const std::vector<NamedParam>& params);

/// LoadParameters without the copy, from an already opened container:
/// each Variable's value becomes a read-only view of the mapped payload
/// (holding `reader` alive), so the load costs O(sections) regardless of
/// model size and N processes mapping the same container share one
/// physical copy of the weights. The model must be treated as read-only
/// afterwards — fine-tuning or re-quantizing a mapped model is undefined
/// behavior (the mapping is PROT_READ).
Status LoadParametersMapped(std::shared_ptr<const io::EmxmReader> reader,
                            const std::vector<NamedParam>& params);

/// Copies parameter values from `src` into `dst`, matching by name for all
/// names present in both (used to initialize a student from a teacher).
/// Returns the number of tensors copied.
int64_t CopyMatchingParameters(const std::vector<NamedParam>& src,
                               const std::vector<NamedParam>& dst);

}  // namespace nn
}  // namespace emx

#endif  // EMX_NN_MODULE_H_
