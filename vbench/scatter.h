// Inputs and independent references for the non-affine scatter nest
//   A[B[i]] = A[B[i]] + C[i]
// that suite_postfix runs beside the paper-suite kernels: three seeded
// index patterns, the hand-written sequential loop, and the inspector's
// class shape counted from the index array.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace vbench {

struct ScatterInput {
  std::string name;        ///< "scatter_<pattern>"
  i64 n = 0;               ///< iterations
  i64 cells = 0;           ///< extent of A
  std::string dsl;         ///< the nest as mini-DSL text
  std::vector<i64> index;  ///< the contents of B
};

/// The three patterns, drawn from `rng`:
///  - duplicates: B uniform over n/4 cells, so chains average 4;
///  - skewed: one hub cell takes 1/4 of the iterations and two more 1/16
///    each, so the hub's chain is as long as one worker's share;
///  - permutation: B a permutation, so every class is a singleton.
std::vector<ScatterInput> scatter_inputs(Rng& rng);

/// Inspector classes and the largest class, counted from the index array:
/// two iterations conflict exactly when they hit the same cell of A.
void scatter_shape(const ScatterInput& in, i64& classes, i64& max_component);

/// The hand-written sequential loop over `store` (built for the input's
/// nest), in wrapping arithmetic.
void scatter_reference(exec::ArrayStore& store, i64 n);

}  // namespace vbench
