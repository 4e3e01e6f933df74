#ifndef EMX_TENSOR_KERNEL_MATH_H_
#define EMX_TENSOR_KERNEL_MATH_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace emx {
namespace ops {

/// One rounding behaviour for every accumulation kernel. The default
/// -ffp-contract=fast lets the compiler contract a*b+c into FMA in some
/// loop shapes and split it into mul-then-add in others, which would break
/// the bitwise guarantees between the blocked GEMM, the naive reference and
/// the fused attention kernel; an explicit fused (or explicitly unfused)
/// multiply-add pins the rounding down once for all of them.
inline float MulAdd(float a, float b, float c) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

/// The activation a fused kernel applies; kNone is the identity.
enum class Act { kNone, kGelu, kRelu, kTanh };

/// `take_a ? a : b` as a bitwise blend. A float ternary whose operand is a
/// constant becomes a branch that GCC threads into the arithmetic after
/// it, and under the default -ftrapping-math it then refuses to vectorize
/// the loop on targets without masked vector ops (anything below
/// AVX-512); the blend stays data flow and vectorizes everywhere.
inline float Select(bool take_a, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(take_a);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

/// Branch-free tanh: the input is clamped to [-9, 9] and tanh is the ratio
/// of an odd degree-13 and an even degree-6 polynomial, the result clamped
/// to [-1, 1] (the ratio overshoots 1 by up to two ulp just below the
/// clamp and reaches exactly 1 at it, so the output saturates at exactly
/// +-1 in FMA and non-FMA builds alike). Max abs error against std::tanh
/// on [-12, 12]: 3.0e-7 with FMA, 4.2e-7 without. NaN propagates; -0 stays
/// -0. Every multiply-add goes through MulAdd, so the value does not depend
/// on where the compiler inlines it: the GEMM epilogue, the elementwise
/// ops and the int8 activation table all get the same bits.
inline float TanhApprox(float x) {
  constexpr float kClamp = 9.0f;
  x = Select(x < -kClamp, -kClamp, x);
  x = Select(x > kClamp, kClamp, x);
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = MulAdd(p, x2, 2.00018790482477e-13f);
  p = MulAdd(p, x2, -8.60467152213735e-11f);
  p = MulAdd(p, x2, 5.12229709037114e-08f);
  p = MulAdd(p, x2, 1.48572235717979e-05f);
  p = MulAdd(p, x2, 6.37261928875436e-04f);
  p = MulAdd(p, x2, 4.89352455891786e-03f);
  float q = 1.19825839466702e-06f;
  q = MulAdd(q, x2, 1.18534705686654e-04f);
  q = MulAdd(q, x2, 2.26843463243900e-03f);
  q = MulAdd(q, x2, 4.89352518554385e-03f);
  float t = x * p / q;
  t = Select(t > 1.0f, 1.0f, t);
  return Select(t < -1.0f, -1.0f, t);
}

constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

/// Tanh-approximated GELU (as in BERT): 0.5 x (1 + tanh(c (x + a x^3))).
/// Max abs error against the std::tanh formula on [-12, 12]: 9.6e-7 (two
/// ulp at |x| in [4, 8)).
inline float Gelu(float x) {
  const float t = TanhApprox(kGeluC * MulAdd(kGeluA * x * x, x, x));
  const float h = 0.5f * x;
  return MulAdd(h, t, h);
}

/// d/dx of Gelu(x). Max abs error against the std::tanh formula on
/// [-12, 12]: 4.2e-6 with FMA, 5.9e-6 without.
inline float GeluDerivative(float x) {
  const float x2 = x * x;
  const float t = TanhApprox(kGeluC * MulAdd(kGeluA * x2, x, x));
  const float dinner = MulAdd(3.0f * kGeluA * kGeluC, x2, kGeluC);
  const float sech2 = MulAdd(-t, t, 1.0f);
  return MulAdd(0.5f * x * sech2, dinner, MulAdd(0.5f, t, 0.5f));
}

/// max(x, 0); NaN maps to 0.
inline float Relu(float x) { return Select(x > 0.0f, x, 0.0f); }

/// The activation `A` applied to one value.
template <Act A>
inline float Activate(float x) {
  if constexpr (A == Act::kGelu) {
    return Gelu(x);
  } else if constexpr (A == Act::kRelu) {
    return Relu(x);
  } else if constexpr (A == Act::kTanh) {
    return TanhApprox(x);
  } else {
    return x;
  }
}

/// dy * act'(u) for the pre-activation u.
template <Act A>
inline float ActivateGrad(float dy, float u) {
  if constexpr (A == Act::kGelu) {
    return dy * GeluDerivative(u);
  } else if constexpr (A == Act::kRelu) {
    return Select(u > 0.0f, dy, 0.0f);
  } else if constexpr (A == Act::kTanh) {
    const float t = TanhApprox(u);
    return dy * MulAdd(-t, t, 1.0f);
  } else {
    return dy;
  }
}

}  // namespace ops
}  // namespace emx

#endif  // EMX_TENSOR_KERNEL_MATH_H_
