#ifndef EMX_TESTS_REFERENCE_KERNELS_H_
#define EMX_TESTS_REFERENCE_KERNELS_H_

#include "tensor/tensor.h"

namespace emx {
namespace reference {

// Golden references for the tensor kernels, used by the tests and the
// baseline side of the kernel micro-benchmarks. Nothing in src/ calls them.

/// Single-threaded triple-loop GEMM with ops::MatMul's shape, transpose and
/// broadcast rules. Every output is one ascending-k MulAdd chain from zero,
/// so the blocked GEMM must match it bit for bit.
Tensor MatMulNaive(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false);

/// Tanh-approximated GELU evaluated with std::tanh, the formula ops::Gelu
/// computed before it moved onto the rational tanh of kernel_math.h.
float GeluReference(float x);

/// d/dx of GeluReference, with std::tanh.
float GeluGradReference(float x);

}  // namespace reference
}  // namespace emx

#endif  // EMX_TESTS_REFERENCE_KERNELS_H_
