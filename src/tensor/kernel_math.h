#ifndef EMX_TENSOR_KERNEL_MATH_H_
#define EMX_TENSOR_KERNEL_MATH_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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

/// Branch-free exp. Cody-Waite reduction x = n ln2 + r with |r| <= ln2/2
/// (n rounded by the 1.5 * 2^23 shifter, ln2 split into an exact high
/// part and a low part), e^r as the degree-6 polynomial
/// 1 + r + r^2 q(r) (q a Chebyshev fit of (e^r - 1 - r) / r^2), and the
/// 2^n scale added straight into the exponent bits. Below ln(FLT_MIN) ~=
/// -87.34 the result is exactly 0 (no subnormals), so a masked score minus
/// its row max contributes exactly nothing to a softmax; above
/// ln(FLT_MAX) it is +inf; NaN propagates. Max relative error against
/// std::exp on [-87, 88]: 8.0e-8 with FMA, 1.04e-7 without. Every
/// multiply-add goes through MulAdd, so every caller gets the same bits.
/// ExpApprox's constants; the fused attention kernel's 16-lane copy reads
/// the same ones.
namespace exp_approx {
constexpr float kLo = -87.33654022216797f;  // first float above ln(FLT_MIN)
constexpr float kHi = 88.72283172607422f;   // last float below ln(FLT_MAX)
constexpr float kShifter = 0x1.8p23f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// q(r) by Horner from r^4 down; then 0.5, 1 and 1 complete 1 + r + r^2 q.
constexpr float kQ4 = 1.3926176119935578884e-3f;
constexpr float kQ3 = 8.3631730745137109028e-3f;
constexpr float kQ2 = 4.1666554662050533982e-2f;
constexpr float kQ1 = 1.6666577025597988190e-1f;
}  // namespace exp_approx

inline float ExpApprox(float x) {
  using namespace exp_approx;
  const float xc = Select(x > kHi, kHi, Select(x < kLo, kLo, x));
  const float t = MulAdd(xc, kLog2e, kShifter);
  const float nf = t - kShifter;
  const uint32_t n =
      std::bit_cast<uint32_t>(t) - std::bit_cast<uint32_t>(kShifter);
  float r = MulAdd(nf, -kLn2Hi, xc);
  r = MulAdd(nf, -kLn2Lo, r);
  float p = kQ4;
  p = MulAdd(p, r, kQ3);
  p = MulAdd(p, r, kQ2);
  p = MulAdd(p, r, kQ1);
  p = MulAdd(p, r, 0.5f);
  p = MulAdd(p, r, 1.0f);
  p = MulAdd(p, r, 1.0f);
  // p is in [0.707, 1.415], so adding n to its exponent field stays a
  // normal float for every n the clamp allows.
  float y = std::bit_cast<float>(std::bit_cast<uint32_t>(p) + (n << 23));
  y = Select(x < kLo, 0.0f, y);
  y = Select(x > kHi, std::numeric_limits<float>::infinity(), y);
  return Select(x != x, x, y);
}

/// Sum of x[0, n) in one fixed order: kLanes running sums (element j goes
/// to lane j % kLanes), then the lanes pairwise. The order depends only on
/// n, not on the ISA or the caller, and the lane loop vectorizes without
/// reassociating anything, so every softmax that sums with it agrees bit
/// for bit.
inline float LaneSum(const float* x, int64_t n) {
  constexpr int64_t kLanes = 8;
  float acc[kLanes] = {};
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) acc[l] += x[j + l];
  }
  for (int64_t l = 0; j + l < n; ++l) acc[l] += x[j + l];
  return ((acc[0] + acc[4]) + (acc[2] + acc[6])) +
         ((acc[1] + acc[5]) + (acc[3] + acc[7]));
}

/// The one dropout decision. Element `idx` of a dropout call seeded with
/// `seed` is dropped iff DropoutHash(seed, idx) < DropoutThreshold(p):
/// a pure function of (seed, flat index), so the mask does not depend on
/// the order or the thread that computes it, and a backward pass recomputes
/// it instead of storing it.
inline uint64_t DropoutHash(uint64_t seed, int64_t idx) {
  uint64_t x = seed ^ (static_cast<uint64_t>(idx) * 0xd1342543de82ef95ULL +
                       0x2545f4914f6cdd1dULL);
  // SplitMix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Drop iff hash < p * 2^64: a pure integer compare, so the kernel loops
/// stay free of float divisions and int-to-double conversions.
inline uint64_t DropoutThreshold(float dropout_p) {
  return static_cast<uint64_t>(static_cast<double>(dropout_p) * 0x1.0p64);
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
