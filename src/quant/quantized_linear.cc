#include "quant/quantized_linear.h"

#include <utility>

#include "obs/trace.h"
#include "tensor/kernel_math.h"
#include "util/logging.h"

namespace emx {
namespace quant {

void Int8LinearBackend::ObserveInput(const Tensor& x2d) {
  in_minmax_.Observe(x2d.data(), x2d.size());
  in_hist_.Observe(x2d.data(), x2d.size());
}

void Int8LinearBackend::ObserveOutput(const Tensor& y2d) {
  out_minmax_.Observe(y2d.data(), y2d.size());
  out_hist_.Observe(y2d.data(), y2d.size());
}

QuantParams Int8LinearBackend::ObservedInputParams() const {
  return kind_ == ObserverKind::kMinMax ? in_minmax_.ComputeQuantParams()
                                        : in_hist_.ComputeQuantParams();
}

QuantParams Int8LinearBackend::ObservedOutputParams() const {
  return kind_ == ObserverKind::kMinMax ? out_minmax_.ComputeQuantParams()
                                        : out_hist_.ComputeQuantParams();
}

Status Int8LinearBackend::Freeze(const nn::Linear& layer) {
  if (!observed()) {
    return Status::InvalidArgument(
        "Int8LinearBackend: no calibration data observed; run grad-free "
        "forwards through the layer before freezing");
  }
  packed_ = PackWeights(layer.weight().value(), layer.bias().value(),
                        ObservedInputParams());
  ready_ = true;
  return Status::OK();
}

void Int8LinearBackend::FreezeFromPacked(PackedWeights packed) {
  packed_ = std::move(packed);
  ready_ = true;
}

const PackedWeights& Int8LinearBackend::packed() const {
  EMX_CHECK(ready_) << "Int8LinearBackend: packed() before Freeze";
  return packed_;
}

Tensor Int8LinearBackend::Forward(const Tensor& x2d) const {
  EMX_CHECK(ready_);
  EMX_CHECK_EQ(x2d.ndim(), 2);
  EMX_CHECK_EQ(x2d.dim(1), packed_.in);
  const int64_t m = x2d.dim(0);
  EMX_TRACE_SPAN("kernel.int8_gemm", [&] {
    return obs::KeyValues({{"m", m}, {"n", packed_.out}, {"k", packed_.in}});
  });
  Tensor y({m, packed_.out});
  Int8LinearForward(x2d.data(), m, packed_, y.data());
  return y;
}

float ActivationScalar(float x, nn::Activation activation) {
  switch (activation) {
    case nn::Activation::kGelu:
      return ops::Gelu(x);
    case nn::Activation::kRelu:
      return ops::Relu(x);
    case nn::Activation::kTanh:
      return ops::TanhApprox(x);
  }
  EMX_CHECK(false) << "unknown activation";
  return x;
}

Int8FfnBackend::Int8FfnBackend(PackedWeights fc1, PackedWeights fc2,
                               QuantParams mid_in, nn::Activation activation)
    : fc1_(std::move(fc1)),
      fc2_(std::move(fc2)),
      mid_in_(mid_in),
      activation_(activation) {
  EMX_CHECK_EQ(fc1_.out, fc2_.in) << "FFN fc1/fc2 dims do not chain";
  // Each u8 code on the pre-activation grid maps to the u8 code of its
  // activated value on fc2's input grid.
  const QuantParams out = fc2_.act;
  const float inv_out = 1.0f / out.scale;
  for (int32_t q = 0; q < 256; ++q) {
    const float v = mid_in_.scale * static_cast<float>(q - mid_in_.zero_point);
    lut_[static_cast<size_t>(q)] =
        QuantizeCode(ActivationScalar(v, activation_) * inv_out,
                     static_cast<float>(out.zero_point));
  }
}

Tensor Int8FfnBackend::Forward(const Tensor& x2d) const {
  EMX_CHECK_EQ(x2d.ndim(), 2);
  EMX_CHECK_EQ(x2d.dim(1), fc1_.in);
  const int64_t m = x2d.dim(0);
  EMX_TRACE_SPAN("kernel.int8_ffn", [&] {
    return obs::KeyValues(
        {{"m", m}, {"hidden", fc1_.in}, {"ffn", fc1_.out}});
  });

  Tensor y({m, fc2_.out});
  Int8FfnForward(x2d.data(), m, fc1_, mid_in_, lut_, fc2_, y.data());
  return y;
}

}  // namespace quant
}  // namespace emx
