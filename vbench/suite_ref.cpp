#include "suite_ref.h"

#include <stdexcept>

#include "core/suite.h"

namespace vbench {

const std::vector<std::string>& suite_names() {
  static const std::vector<std::string> names = {
      "example_4_1",       "example_4_2",        "uniform_wavefront",
      "uniform_blocked",   "zero_column",        "parity_independent",
      "sequential_chain",  "variable_3deep",     "triangular_uniform",
      "matmul_reduction",  "skewed_extent"};
  return names;
}

loopir::LoopNest suite_nest(const std::string& name, i64 n) {
  // paper_suite(n) builds all eleven at one n; the workloads size each
  // kernel on its own.
  using namespace vdep::core;
  if (name == "example_4_1") return example41(n);
  if (name == "example_4_2") return example42(n);
  if (name == "uniform_wavefront") return uniform_wavefront(n);
  if (name == "uniform_blocked") return uniform_blocked(n);
  if (name == "zero_column") return zero_column(n);
  if (name == "parity_independent") return parity_independent(n);
  if (name == "sequential_chain") return sequential_chain(n);
  if (name == "variable_3deep") return variable_3deep(n);
  if (name == "triangular_uniform") return triangular_uniform(n);
  if (name == "matmul_reduction") return matmul_reduction(n);
  if (name == "skewed_extent") return skewed_extent(n);
  throw std::invalid_argument("unknown suite kernel " + name);
}

i64 suite_iterations(const std::string& name, i64 n) {
  const i64 sq = (2 * n + 1) * (2 * n + 1);
  if (name == "example_4_1" || name == "example_4_2") return sq;
  if (name == "variable_3deep") return sq * (n + 1);
  if (name == "sequential_chain") return n + 1;
  if (name == "triangular_uniform") return (n + 1) * (n + 2) / 2;
  if (name == "matmul_reduction") return (n + 1) * (n + 1) * (n + 1);
  if (name == "skewed_extent") return 2 * (n + 1);
  return (n + 1) * (n + 1);  // the [0, n]^2 kernels
}

void suite_reference(const std::string& name, i64 n, exec::ArrayStore& store,
                     const loopir::LoopNest& nest) {
  auto view = [&](const char* array) { return View(store, nest.array(array)); };
  if (name == "example_4_1") {
    View a = view("A");
    for (i64 i1 = -n; i1 <= n; ++i1)
      for (i64 i2 = -n; i2 <= n; ++i2) {
        i64 v = wadd(wadd(a(i1, i2), a(i1 + 2, i2 - 2)), 1);
        a(3 * i1 - 2 * i2 + 2, -2 * i1 + 3 * i2 - 2) = v;
      }
  } else if (name == "example_4_2") {
    View a = view("A"), b = view("B");
    for (i64 i1 = -n; i1 <= n; ++i1)
      for (i64 i2 = -n; i2 <= n; ++i2) {
        a(i1 - 2 * i2 + 4) = wadd(a(i1 - 2 * i2), 1);
        b(i1, i2) = a(i1 - 2 * i2 + 8);
      }
  } else if (name == "uniform_wavefront") {
    View a = view("A");
    for (i64 i1 = 0; i1 <= n; ++i1)
      for (i64 i2 = 0; i2 <= n; ++i2)
        a(i1, i2) = wadd(a(i1 - 1, i2), a(i1, i2 - 1));
  } else if (name == "uniform_blocked") {
    View a = view("A");
    for (i64 i1 = 0; i1 <= n; ++i1)
      for (i64 i2 = 0; i2 <= n; ++i2)
        a(i1 + 2, i2) = wadd(a(i1, i2 - 2), a(i1 + 2, i2 + 2));
  } else if (name == "zero_column") {
    View a = view("A");
    for (i64 i1 = 0; i1 <= n; ++i1)
      for (i64 i2 = 0; i2 <= n; ++i2) a(i1 + 1, i2) = a(i1, i2);
  } else if (name == "parity_independent") {
    View a = view("A");
    for (i64 i1 = 0; i1 <= n; ++i1)
      for (i64 i2 = 0; i2 <= n; ++i2) a(2 * i1, i2) = wadd(a(2 * i1 + 1, i2), 3);
  } else if (name == "sequential_chain") {
    View a = view("A");
    for (i64 i = 0; i <= n; ++i) a(i + 1) = wadd(a(i), 1);
  } else if (name == "variable_3deep") {
    View a = view("A");
    for (i64 i1 = -n; i1 <= n; ++i1)
      for (i64 i2 = -n; i2 <= n; ++i2)
        for (i64 i3 = 0; i3 <= n; ++i3)
          a(3 * i1 - 2 * i2 + 2, -2 * i1 + 3 * i2 - 2, i3) =
              wadd(a(i1, i2, i3), 1);
  } else if (name == "triangular_uniform") {
    View a = view("A");
    for (i64 i1 = 0; i1 <= n; ++i1)
      for (i64 i2 = i1; i2 <= n; ++i2) a(i1, i2) = wadd(a(i1 - 1, i2), 1);
  } else if (name == "matmul_reduction") {
    View c = view("C"), a = view("A"), b = view("B");
    for (i64 i = 0; i <= n; ++i)
      for (i64 j = 0; j <= n; ++j)
        for (i64 k = 0; k <= n; ++k)
          c(i, j) = wadd(c(i, j), wmul(a(i, k), b(k, j)));
  } else if (name == "skewed_extent") {
    View a = view("A"), b = view("B");
    for (i64 i1 = 0; i1 <= 1; ++i1)
      for (i64 i2 = 0; i2 <= n; ++i2)
        a(i1, i2) = wadd(wmul(b(i1, i2), 3), wadd(wmul(i1, 7), i2));
  } else {
    throw std::invalid_argument("unknown suite kernel " + name);
  }
}

std::string suite_dsl(const std::string& name, i64 n) {
  const std::string N = std::to_string(n), M = std::to_string(-n);
  auto num = [](i64 v) { return std::to_string(v); };
  auto loops2 = [&](const std::string& lo, const std::string& body) {
    return "do i1 = " + lo + ", " + N + "\n  do i2 = " + lo + ", " + N +
           "\n    " + body + "\n  enddo\nenddo\n";
  };
  if (name == "example_4_1") {
    i64 e = 5 * n + 10;
    return "array A[" + num(-e) + ":" + num(e) + ", " + num(-e) + ":" + num(e) +
           "]\n" +
           loops2(M, "A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2] = A[i1, i2] + "
                     "A[i1 + 2, i2 - 2] + 1");
  }
  if (name == "example_4_2") {
    i64 e = 3 * n + 10;
    return "array A[" + num(-e) + ":" + num(e) + "]\narray B[" + M + ":" + N +
           ", " + M + ":" + N + "]\ndo i1 = " + M + ", " + N + "\n  do i2 = " +
           M + ", " + N +
           "\n    A[i1 - 2*i2 + 4] = A[i1 - 2*i2] + 1\n"
           "    B[i1, i2] = A[i1 - 2*i2 + 8]\n  enddo\nenddo\n";
  }
  if (name == "uniform_wavefront")
    return "array A[-1:" + N + ", -1:" + N + "]\n" +
           loops2("0", "A[i1, i2] = A[i1 - 1, i2] + A[i1, i2 - 1]");
  if (name == "uniform_blocked")
    return "array A[-4:" + num(n + 4) + ", -4:" + num(n + 4) + "]\n" +
           loops2("0", "A[i1 + 2, i2] = A[i1, i2 - 2] + A[i1 + 2, i2 + 2]");
  if (name == "zero_column")
    return "array A[0:" + num(n + 1) + ", 0:" + N + "]\n" +
           loops2("0", "A[i1 + 1, i2] = A[i1, i2]");
  if (name == "parity_independent")
    return "array A[-1:" + num(2 * n + 2) + ", 0:" + N + "]\n" +
           loops2("0", "A[2*i1, i2] = A[2*i1 + 1, i2] + 3");
  if (name == "sequential_chain")
    return "array A[0:" + num(n + 1) + "]\ndo i1 = 0, " + N +
           "\n  A[i1 + 1] = A[i1] + 1\nenddo\n";
  if (name == "variable_3deep") {
    i64 e = 5 * n + 10;
    return "array A[" + num(-e) + ":" + num(e) + ", " + num(-e) + ":" + num(e) +
           ", 0:" + N + "]\ndo i1 = " + M + ", " + N + "\n  do i2 = " + M +
           ", " + N + "\n    do i3 = 0, " + N +
           "\n      A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2, i3] = A[i1, i2, i3] + 1"
           "\n    enddo\n  enddo\nenddo\n";
  }
  if (name == "triangular_uniform")
    return "array A[-1:" + N + ", 0:" + N + "]\ndo i1 = 0, " + N +
           "\n  do i2 = i1, " + N +
           "\n    A[i1, i2] = A[i1 - 1, i2] + 1\n  enddo\nenddo\n";
  if (name == "matmul_reduction")
    return "array C[0:" + N + ", 0:" + N + "]\narray A[0:" + N + ", 0:" + N +
           "]\narray B[0:" + N + ", 0:" + N + "]\ndo i = 0, " + N +
           "\n  do j = 0, " + N + "\n    do k = 0, " + N +
           "\n      C[i, j] = C[i, j] + A[i, k] * B[k, j]\n    enddo\n"
           "  enddo\nenddo\n";
  if (name == "skewed_extent")
    return "array A[0:1, 0:" + N + "]\narray B[0:1, 0:" + N +
           "]\ndo i1 = 0, 1\n  do i2 = 0, " + N +
           "\n    A[i1, i2] = B[i1, i2] * 3 + (i1 * 7 + i2)\n  enddo\nenddo\n";
  throw std::invalid_argument("unknown suite kernel " + name);
}

}  // namespace vbench
