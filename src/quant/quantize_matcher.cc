#include "quant/quantize_matcher.h"

#include <algorithm>
#include <memory>

namespace emx {
namespace quant {

FlatQuantTargets FlattenQuantTargets(core::EntityMatcher* matcher) {
  nn::QuantTargets targets;
  matcher->classifier()->CollectQuantTargets("", &targets);
  FlatQuantTargets flat;
  flat.linears = targets.linears;
  flat.ffns = targets.ffns;
  for (auto& [name, ffn] : targets.ffns) {
    flat.linears.emplace_back(nn::JoinName(name, "fc1"), ffn->fc1());
    flat.linears.emplace_back(nn::JoinName(name, "fc2"), ffn->fc2());
  }
  return flat;
}

std::shared_ptr<Int8LinearBackend> Int8BackendOf(const nn::Linear* layer) {
  return std::static_pointer_cast<Int8LinearBackend>(layer->backend());
}

Result<QuantizeReport> QuantizeMatcher(core::EntityMatcher* matcher,
                                       const CalibrationData& calib,
                                       const QuantizeOptions& options) {
  if (calib.texts_a.empty() || calib.texts_a.size() != calib.texts_b.size()) {
    return Status::InvalidArgument(
        "QuantizeMatcher: calibration data must hold equal, non-empty text "
        "lists");
  }
  FlatQuantTargets flat = FlattenQuantTargets(matcher);
  if (flat.linears.empty()) {
    return Status::InvalidArgument(
        "QuantizeMatcher: model reports no quantizable layers");
  }

  // 1. Attach observing backends (not ready, so forwards stay fp32).
  for (auto& [name, layer] : flat.linears) {
    layer->set_backend(std::make_shared<Int8LinearBackend>(options.observer));
  }

  // 2. Calibration: the normal grad-free bulk path, sliced so activation
  // shapes match serving batches.
  const int64_t batch = std::max<int64_t>(1, calib.batch_size);
  const int64_t total = static_cast<int64_t>(calib.texts_a.size());
  for (int64_t begin = 0; begin < total; begin += batch) {
    const int64_t end = std::min(begin + batch, total);
    std::vector<std::string> as(calib.texts_a.begin() + begin,
                                calib.texts_a.begin() + end);
    std::vector<std::string> bs(calib.texts_b.begin() + begin,
                                calib.texts_b.begin() + end);
    (void)matcher->MatchProbabilities(as, bs);
  }

  // 3. Freeze every Linear backend, then fuse each FFN from its inner
  // layers' calibration: fc1's output grid feeds the activation LUT and
  // fc2's input grid is where the LUT lands.
  QuantizeReport report;
  report.calibration_pairs = total;
  for (auto& [name, layer] : flat.linears) {
    Status st = Int8BackendOf(layer)->Freeze(*layer);
    if (!st.ok()) {
      return Status(st.code(),
                    "layer '" + name + "': " + st.message());
    }
  }
  report.num_linears =
      static_cast<int64_t>(flat.linears.size() - 2 * flat.ffns.size());
  for (auto& [name, ffn] : flat.ffns) {
    auto fc1 = Int8BackendOf(ffn->fc1());
    auto fc2 = Int8BackendOf(ffn->fc2());
    ffn->set_backend(std::make_shared<Int8FfnBackend>(
        fc1->packed(), fc2->packed(), fc1->ObservedOutputParams(),
        ffn->activation()));
    ++report.num_ffns;
  }
  return report;
}

bool IsQuantized(core::EntityMatcher* matcher) {
  FlatQuantTargets flat = FlattenQuantTargets(matcher);
  for (auto& [name, layer] : flat.linears) {
    if (layer->backend() != nullptr && layer->backend()->ready()) return true;
  }
  for (auto& [name, ffn] : flat.ffns) {
    if (ffn->backend() != nullptr && ffn->backend()->ready()) return true;
  }
  return false;
}

void ClearQuantization(core::EntityMatcher* matcher) {
  FlatQuantTargets flat = FlattenQuantTargets(matcher);
  for (auto& [name, layer] : flat.linears) layer->set_backend(nullptr);
  for (auto& [name, ffn] : flat.ffns) ffn->set_backend(nullptr);
}

}  // namespace quant
}  // namespace emx
