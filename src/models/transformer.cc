#include "models/transformer.h"

#include "models/encoder.h"
#include "models/xlnet.h"
#include "util/logging.h"

namespace emx {
namespace models {

Variable TransformerModel::EncodeCls(const Batch& batch, bool train,
                                     Rng* rng) {
  return EncodeBatch(batch, train, rng);
}

Variable TransformerModel::EncodeSegmentPrefix(const Batch&, int64_t, int64_t,
                                               Rng*) {
  EMX_CHECK(false) << ArchitectureName(config().arch)
                   << " does not support split encoding "
                      "(SupportsSplitEncode() is false)";
  return Variable();
}

Variable TransformerModel::EncodeFromLayer(const Variable&, const Tensor&,
                                           int64_t, bool, Rng*, bool) {
  EMX_CHECK(false) << ArchitectureName(config().arch)
                   << " does not support split encoding "
                      "(SupportsSplitEncode() is false)";
  return Variable();
}

Variable TransformerModel::EncodeBatchSegmentLocal(const Batch&, int64_t, bool,
                                                   Rng*, bool) {
  EMX_CHECK(false) << ArchitectureName(config().arch)
                   << " does not support split encoding "
                      "(SupportsSplitEncode() is false)";
  return Variable();
}

std::unique_ptr<TransformerModel> CreateTransformer(
    const TransformerConfig& config, Rng* rng) {
  if (config.arch == Architecture::kXlnet) {
    return std::make_unique<XlnetModel>(config, rng);
  }
  return std::make_unique<EncoderModel>(config, rng);
}

}  // namespace models
}  // namespace emx
