#include "nn/layers.h"

#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace emx {
namespace nn {

namespace ag = autograd;

namespace {
thread_local bool g_quant_mode_enabled = true;

/// The kernel-level activation for `activation`.
ops::Act KernelAct(Activation activation) {
  switch (activation) {
    case Activation::kGelu:
      return ops::Act::kGelu;
    case Activation::kRelu:
      return ops::Act::kRelu;
    case Activation::kTanh:
      return ops::Act::kTanh;
  }
  EMX_CHECK(false) << "unknown activation";
  return ops::Act::kNone;
}

}  // namespace

bool QuantMode::IsEnabled() { return g_quant_mode_enabled; }
void QuantMode::SetEnabled(bool enabled) { g_quant_mode_enabled = enabled; }

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               float init_stddev)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Variable::Parameter(
          Tensor::Randn({in_features, out_features}, rng, init_stddev))),
      bias_(Variable::Parameter(Tensor::Zeros({out_features}))) {}

Variable Linear::Forward(const Variable& x, ops::Act act) const {
  const Shape& in_shape = x.shape();
  EMX_CHECK_EQ(in_shape.back(), in_features_)
      << "Linear: input last dim " << in_shape.back() << " != in_features "
      << in_features_;

  // Backend routing is inference-only: training forwards (tape on) always
  // take the fp32 path below, so the autograd graph never sees the backend.
  const bool inference = backend_ != nullptr && !GradMode::IsEnabled();
  if (inference && backend_->ready() && QuantMode::IsEnabled()) {
    Shape out_shape(in_shape.begin(), in_shape.end() - 1);
    out_shape.push_back(out_features_);
    Tensor x2d = x.value().Reshape({-1, in_features_});
    return Variable::Constant(
        ops::Activate(backend_->Forward(x2d), act).Reshape(out_shape));
  }
  const bool calibrating = inference && !backend_->ready();
  if (!calibrating) return ag::LinearAct(x, weight_, bias_, act);

  backend_->ObserveInput(x.value().Reshape({-1, in_features_}));
  Tensor pre_act;
  Variable y = ag::LinearAct(x, weight_, bias_, act, &pre_act);
  backend_->ObserveOutput(pre_act.Reshape({-1, out_features_}));
  return y;
}

void Linear::CollectParameters(const std::string& prefix,
                               std::vector<NamedParam>* out) {
  out->push_back({JoinName(prefix, "weight"), weight_});
  out->push_back({JoinName(prefix, "bias"), bias_});
}

void Linear::CollectQuantTargets(const std::string& prefix,
                                 QuantTargets* out) {
  out->linears.emplace_back(prefix, this);
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng* rng,
                     float init_stddev)
    : num_embeddings_(num_embeddings),
      dim_(dim),
      table_(Variable::Parameter(
          Tensor::Randn({num_embeddings, dim}, rng, init_stddev))) {}

Variable Embedding::Forward(const std::vector<int64_t>& ids,
                            Shape out_shape) const {
  EMX_CHECK_EQ(NumElements(out_shape), static_cast<int64_t>(ids.size()));
  Variable flat = ag::EmbeddingLookup(table_, ids);
  out_shape.push_back(dim_);
  return ag::Reshape(flat, out_shape);
}

void Embedding::CollectParameters(const std::string& prefix,
                                  std::vector<NamedParam>* out) {
  out->push_back({JoinName(prefix, "table"), table_});
}

LayerNorm::LayerNorm(int64_t dim, float eps)
    : dim_(dim),
      eps_(eps),
      gamma_(Variable::Parameter(Tensor::Ones({dim}))),
      beta_(Variable::Parameter(Tensor::Zeros({dim}))) {}

Variable LayerNorm::Forward(const Variable& x) const {
  EMX_CHECK_EQ(x.shape().back(), dim_);
  return ag::LayerNorm(x, gamma_, beta_, eps_);
}

void LayerNorm::CollectParameters(const std::string& prefix,
                                  std::vector<NamedParam>* out) {
  out->push_back({JoinName(prefix, "gamma"), gamma_});
  out->push_back({JoinName(prefix, "beta"), beta_});
}

Variable ApplyActivation(const Variable& x, Activation activation) {
  switch (activation) {
    case Activation::kGelu:
      return ag::Gelu(x);
    case Activation::kRelu:
      return ag::Relu(x);
    case Activation::kTanh:
      return ag::Tanh(x);
  }
  EMX_CHECK(false) << "unknown activation";
  return x;
}

FeedForward::FeedForward(int64_t hidden, int64_t intermediate, Rng* rng,
                         Activation activation, float init_stddev)
    : fc1_(hidden, intermediate, rng, init_stddev),
      fc2_(intermediate, hidden, rng, init_stddev),
      activation_(activation) {}

Variable FeedForward::Forward(const Variable& x, float dropout_p, bool train,
                              Rng* rng) const {
  if (backend_ != nullptr && backend_->ready() && !GradMode::IsEnabled() &&
      QuantMode::IsEnabled()) {
    // Fused inference path for the whole block. Dropout is identity at
    // inference, so skipping it loses nothing.
    const Shape& in_shape = x.shape();
    Tensor x2d = x.value().Reshape({-1, in_shape.back()});
    return Variable::Constant(backend_->Forward(x2d).Reshape(in_shape));
  }
  Variable h = fc1_.Forward(x, KernelAct(activation_));
  h = ag::Dropout(h, dropout_p, train, rng);
  return fc2_.Forward(h);
}

void FeedForward::CollectParameters(const std::string& prefix,
                                    std::vector<NamedParam>* out) {
  fc1_.CollectParameters(JoinName(prefix, "fc1"), out);
  fc2_.CollectParameters(JoinName(prefix, "fc2"), out);
}

void FeedForward::CollectQuantTargets(const std::string& prefix,
                                      QuantTargets* out) {
  out->ffns.emplace_back(prefix, this);
}

}  // namespace nn
}  // namespace emx
