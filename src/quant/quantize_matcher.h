#ifndef EMX_QUANT_QUANTIZE_MATCHER_H_
#define EMX_QUANT_QUANTIZE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/entity_matcher.h"
#include "nn/layers.h"
#include "quant/observer.h"
#include "quant/quantized_linear.h"
#include "util/status.h"

namespace emx {
namespace quant {

/// Serialized text pairs used to calibrate activation ranges. A few
/// hundred representative pairs are plenty — the observers only need the
/// activation distributions, not labels.
struct CalibrationData {
  std::vector<std::string> texts_a;
  std::vector<std::string> texts_b;
  /// Pairs per calibration forward (sliced internally).
  int64_t batch_size = 16;
};

struct QuantizeOptions {
  /// How activation ranges reduce to a grid. Min/max (the default) keeps
  /// every observed value on-grid; measured on the bench datasets it is
  /// ~15x closer to fp32 probabilities than percentile, whose tail
  /// clipping saturates genuinely-large activations at this model scale.
  /// Percentile remains available for activation distributions with true
  /// outlier tails.
  ObserverKind observer = ObserverKind::kMinMax;
};

struct QuantizeReport {
  int64_t num_linears = 0;  // standalone Linears quantized
  int64_t num_ffns = 0;     // FeedForward blocks fused to int8 pipelines
  int64_t calibration_pairs = 0;
};

/// Post-training quantization pass over a fine-tuned matcher:
///   1. attaches observing int8 backends to every layer the model reports
///      via CollectQuantTargets (attention projections, FFNs, pooler,
///      classifier dense),
///   2. runs the calibration pairs through the normal grad-free path so
///      the observers see real activation ranges,
///   3. freezes each backend: per-output-channel int8 weights + the
///      calibrated u8 activation grid, with whole FFN blocks fused into
///      integer pipelines (activation as a 256-entry LUT).
/// After this returns, grad-free forwards (Predict / MatchProbability /
/// the serving engine) run int8 whenever nn::QuantMode is enabled; the
/// fp32 weights stay in place, so disabling QuantMode falls straight back.
/// Not thread-safe against concurrent forwards on the same matcher.
Result<QuantizeReport> QuantizeMatcher(core::EntityMatcher* matcher,
                                       const CalibrationData& calib,
                                       const QuantizeOptions& options = {});

/// A matcher's quant targets, as QuantizeMatcher and the model file see
/// them: `linears` holds every Linear that gets its own int8 backend —
/// the standalone targets of CollectQuantTargets plus the fc1/fc2 of each
/// FFN target, named "<ffn>.fc1" / "<ffn>.fc2" (those calibrate
/// individually but serve through the fused block backend).
struct FlatQuantTargets {
  std::vector<std::pair<std::string, nn::Linear*>> linears;
  std::vector<std::pair<std::string, nn::FeedForward*>> ffns;
};

/// Collects the matcher's FlatQuantTargets.
FlatQuantTargets FlattenQuantTargets(core::EntityMatcher* matcher);

/// The int8 backend QuantizeMatcher or LoadModelFileMapped attached to
/// `layer` (null when it has none).
std::shared_ptr<Int8LinearBackend> Int8BackendOf(const nn::Linear* layer);

/// True when any quant target carries a ready int8 backend.
bool IsQuantized(core::EntityMatcher* matcher);

/// Detaches every int8 backend, returning the matcher to pure fp32.
void ClearQuantization(core::EntityMatcher* matcher);

}  // namespace quant
}  // namespace emx

#endif  // EMX_QUANT_QUANTIZE_MATCHER_H_
