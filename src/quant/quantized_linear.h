#ifndef EMX_QUANT_QUANTIZED_LINEAR_H_
#define EMX_QUANT_QUANTIZED_LINEAR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "quant/int8_gemm.h"
#include "quant/observer.h"
#include "util/status.h"

namespace emx {
namespace quant {

/// int8 inference backend for one nn::Linear.
///
/// Lifecycle (the nn::LinearBackend contract): freshly constructed, it is
/// not ready and records input/output ranges while the layer runs its fp32
/// path (calibration). Freeze() then turns the observed input range into a
/// u8 activation grid, quantizes the layer's weights per output channel,
/// and flips the backend to ready — from then on grad-free forwards run
/// quantize -> int8 GEMM -> fused dequant+bias. Forward is const over
/// immutable packed state, so concurrent serving workers are safe;
/// calibration itself must be single-threaded.
class Int8LinearBackend : public nn::LinearBackend {
 public:
  explicit Int8LinearBackend(ObserverKind kind = ObserverKind::kPercentile)
      : kind_(kind) {}

  void ObserveInput(const Tensor& x2d) override;
  void ObserveOutput(const Tensor& y2d) override;
  bool ready() const override { return ready_; }
  Tensor Forward(const Tensor& x2d) const override;

  /// Quantizes `layer`'s weights against the calibrated input grid.
  /// Fails with InvalidArgument when nothing was observed.
  Status Freeze(const nn::Linear& layer);

  /// Adopts fully materialized packed weights (checkpoint load).
  void FreezeFromPacked(PackedWeights packed);

  /// Grids computed from the observers with this backend's ObserverKind —
  /// usable before Freeze (the FFN fusion reads the output grid of fc1 and
  /// the input grid of fc2 while both are still calibrating).
  QuantParams ObservedInputParams() const;
  QuantParams ObservedOutputParams() const;

  bool observed() const { return in_minmax_.seen(); }
  /// Pre-condition: ready().
  const PackedWeights& packed() const;

 private:
  ObserverKind kind_;
  // Both statistics are tracked; kind_ picks which one becomes the grid.
  MinMaxObserver in_minmax_, out_minmax_;
  HistogramObserver in_hist_, out_hist_;
  bool ready_ = false;
  PackedWeights packed_;
};

/// Fully fused int8 pipeline for a FeedForward block:
///   quantize -> int8 GEMM (fc1) -> dequant -> requantize to the
///   activation-input grid -> 256-entry activation LUT -> int8 GEMM (fc2)
///   -> dequant.
/// The LUT maps each u8 code of the fc1-output grid to the u8 code of the
/// corresponding activation value on the fc2-input grid, replacing the
/// activation's arithmetic per element with a table read. Always ready: it
/// is built only at freeze time, from the two inner Linears' calibration.
class Int8FfnBackend : public nn::FeedForwardBackend {
 public:
  /// `mid_in` is the fc1-output (pre-activation) grid; fc2's packed input
  /// grid is the activation-output grid the LUT lands on.
  Int8FfnBackend(PackedWeights fc1, PackedWeights fc2, QuantParams mid_in,
                 nn::Activation activation);

  bool ready() const override { return true; }
  Tensor Forward(const Tensor& x2d) const override;

  const PackedWeights& fc1() const { return fc1_; }
  const PackedWeights& fc2() const { return fc2_; }
  QuantParams mid_in() const { return mid_in_; }
  nn::Activation activation() const { return activation_; }
  /// Pre-activation code -> activated code on fc2's input grid.
  const std::array<uint8_t, 256>& lut() const { return lut_; }

 private:
  PackedWeights fc1_;
  PackedWeights fc2_;
  QuantParams mid_in_;
  nn::Activation activation_;
  std::array<uint8_t, 256> lut_;
};

/// The activation value f(x) used by the LUT: the scalar functions of
/// tensor/kernel_math.h that the fp32 ops and the GEMM epilogue run, so
/// the two paths cannot drift apart and quantization error is the only
/// delta.
float ActivationScalar(float x, nn::Activation activation);

}  // namespace quant
}  // namespace emx

#endif  // EMX_QUANT_QUANTIZED_LINEAR_H_
