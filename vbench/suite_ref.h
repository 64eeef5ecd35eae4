// Independent references for the eleven core::paper_suite kernels:
// hand-written loops in wrapping arithmetic, closed-form iteration counts
// and the kernels' DSL text. None of them calls the library's evaluators.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace vbench {

/// The suite's kernel names, in core::paper_suite order.
const std::vector<std::string>& suite_names();

/// Builds kernel `name` at size n through core::paper_suite's builders.
loopir::LoopNest suite_nest(const std::string& name, i64 n);

/// Points of kernel `name`'s iteration space at size n, in closed form.
i64 suite_iterations(const std::string& name, i64 n);

/// Runs kernel `name` at size n sequentially over `store` (built for
/// suite_nest(name, n)) in two's-complement wrapping arithmetic.
void suite_reference(const std::string& name, i64 n, exec::ArrayStore& store,
                     const loopir::LoopNest& nest);

/// The kernel as mini-DSL text, arrays declared with the builder's shapes.
std::string suite_dsl(const std::string& name, i64 n);

}  // namespace vbench
