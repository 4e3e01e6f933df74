#ifndef EMX_NN_LAYERS_H_
#define EMX_NN_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/autograd_ops.h"
#include "tensor/variable.h"
#include "util/rng.h"

namespace emx {
namespace nn {

/// Thread-local switch for quantized inference backends. While enabled (the
/// default), a Linear/FeedForward carrying a *ready* backend routes grad-free
/// forwards through it; while disabled, every layer runs its fp32 path even
/// when a backend is attached. Training forwards (GradMode enabled) always
/// run fp32 regardless of this flag, so quantization never perturbs
/// fine-tuning.
class QuantMode {
 public:
  static bool IsEnabled();
  static void SetEnabled(bool enabled);
};

/// RAII scope pinning QuantMode on the current thread — the serving engine
/// uses it to honor EngineOptions::precision per micro-batch.
class QuantModeGuard {
 public:
  explicit QuantModeGuard(bool enabled) : prev_(QuantMode::IsEnabled()) {
    QuantMode::SetEnabled(enabled);
  }
  ~QuantModeGuard() { QuantMode::SetEnabled(prev_); }

  QuantModeGuard(const QuantModeGuard&) = delete;
  QuantModeGuard& operator=(const QuantModeGuard&) = delete;

 private:
  bool prev_;
};

/// Alternative inference implementation attachable to a Linear (the int8
/// backend in src/quant implements this; nn itself has no quant dependency).
///
/// Lifecycle: a freshly attached backend is *not ready* — while grad-free
/// fp32 forwards run, it observes the layer's inputs/outputs (calibration).
/// Once frozen (ready() == true) the layer routes grad-free forwards through
/// Forward() whenever QuantMode is enabled.
class LinearBackend {
 public:
  virtual ~LinearBackend() = default;

  /// Calibration taps, called with the flattened fp32 activations while the
  /// backend is not ready. Observation must be thread-compatible with the
  /// caller (calibration is single-threaded).
  virtual void ObserveInput(const Tensor& x2d) { (void)x2d; }
  virtual void ObserveOutput(const Tensor& y2d) { (void)y2d; }

  /// True once the backend is frozen and Forward may be used.
  virtual bool ready() const = 0;

  /// [N, in] -> [N, out], replacing x @ W + b. Must be safe for concurrent
  /// calls (serving workers share the layer).
  virtual Tensor Forward(const Tensor& x2d) const = 0;
};

/// Alternative inference implementation for a whole FeedForward block
/// (fc1 -> activation -> fc2), enabling fused integer pipelines that never
/// materialize the fp32 intermediate. Calibration happens through the inner
/// Linears' LinearBackend taps.
class FeedForwardBackend {
 public:
  virtual ~FeedForwardBackend() = default;
  virtual bool ready() const = 0;
  /// [N, hidden] -> [N, hidden].
  virtual Tensor Forward(const Tensor& x2d) const = 0;
};

/// Affine layer y = x @ W + b with W of shape [in, out].
/// Accepts inputs of shape [..., in]; leading dims are rows of one GEMM,
/// so callers can pass [B, T, in] directly.
class Linear : public Module {
 public:
  /// Initializes W ~ N(0, init_stddev^2) (BERT uses 0.02), b = 0.
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         float init_stddev = 0.02f);

  /// y = act(x @ W + b) through the fused ag::LinearAct node (bias and
  /// activation in the GEMM epilogue). A calibrating backend observes the
  /// pre-activation x @ W + b; a ready backend replaces the affine map and
  /// `act` is applied to its output.
  Variable Forward(const Variable& x, ops::Act act = ops::Act::kNone) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           QuantTargets* out) override;

  /// Attaches (or clears, with nullptr) an alternative inference backend.
  /// See LinearBackend for the observe-then-serve lifecycle.
  void set_backend(std::shared_ptr<LinearBackend> backend) {
    backend_ = std::move(backend);
  }
  const std::shared_ptr<LinearBackend>& backend() const { return backend_; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Variable weight_;  // [in, out]
  Variable bias_;    // [out]
  std::shared_ptr<LinearBackend> backend_;  // null = fp32 only
};

/// Token/positional/segment embedding table of shape [num_embeddings, dim].
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng* rng,
            float init_stddev = 0.02f);

  /// Looks up `ids` (flattened) and reshapes to `out_shape` + [dim].
  /// E.g. ids of a [B, T] batch passed flat with out_shape {B, T} give
  /// a [B, T, dim] result.
  Variable Forward(const std::vector<int64_t>& ids, Shape out_shape) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;

  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }
  const Variable& table() const { return table_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  Variable table_;  // [V, dim]
};

/// Layer normalization over the last axis with learned gamma/beta.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Variable Forward(const Variable& x) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;

 private:
  int64_t dim_;
  float eps_;
  Variable gamma_;  // [dim], init 1
  Variable beta_;   // [dim], init 0
};

/// Which nonlinearity a FeedForward uses.
enum class Activation { kGelu, kRelu, kTanh };

/// Position-wise feed-forward block: Linear -> activation -> Linear. The
/// fp32 path fuses fc1's bias and activation into its GEMM.
class FeedForward : public Module {
 public:
  FeedForward(int64_t hidden, int64_t intermediate, Rng* rng,
              Activation activation = Activation::kGelu,
              float init_stddev = 0.02f);

  /// `train`/`rng` control the dropout after the activation.
  Variable Forward(const Variable& x, float dropout_p, bool train,
                   Rng* rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParam>* out) override;
  void CollectQuantTargets(const std::string& prefix,
                           QuantTargets* out) override;

  /// Attaches (or clears) a fused block backend. When ready, grad-free
  /// forwards bypass fc1/activation/fc2 entirely (dropout is identity at
  /// inference time, so nothing is lost).
  void set_backend(std::shared_ptr<FeedForwardBackend> backend) {
    backend_ = std::move(backend);
  }
  const std::shared_ptr<FeedForwardBackend>& backend() const {
    return backend_;
  }

  Linear* fc1() { return &fc1_; }
  Linear* fc2() { return &fc2_; }
  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }
  Activation activation() const { return activation_; }

 private:
  Linear fc1_;
  Linear fc2_;
  Activation activation_;
  std::shared_ptr<FeedForwardBackend> backend_;  // null = fp32 only
};

/// Applies the configured activation.
Variable ApplyActivation(const Variable& x, Activation activation);

}  // namespace nn
}  // namespace emx

#endif  // EMX_NN_LAYERS_H_
