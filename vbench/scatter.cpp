#include "scatter.h"

#include <algorithm>

namespace vbench {

namespace {

// 32,768 iterations each: the three kinds sit in the lower half of
// suite_postfix's first cost tier and take under a tenth of a round.
constexpr i64 kN = i64{1} << 15;

std::string scatter_dsl(i64 n, i64 cells) {
  return "array A[0:" + std::to_string(cells - 1) + "]\narray B[0:" +
         std::to_string(n - 1) + "]\narray C[0:" + std::to_string(n - 1) +
         "]\ndo i = 0, " + std::to_string(n - 1) +
         "\n  A[B[i]] = A[B[i]] + C[i]\nenddo\n";
}

}  // namespace

std::vector<ScatterInput> scatter_inputs(Rng& rng) {
  std::vector<ScatterInput> out;
  for (auto [kind, cells] : {std::pair<const char*, i64>{"duplicates", kN / 4},
                             {"skewed", kN},
                             {"permutation", kN}}) {
    ScatterInput in{std::string("scatter_") + kind, kN, cells, scatter_dsl(kN, cells),
                    std::vector<i64>(kN)};
    std::vector<i64>& b = in.index;
    if (in.name == "scatter_duplicates") {
      for (i64& v : b) v = rng.range(0, cells - 1);
    } else if (in.name == "scatter_permutation") {
      for (i64 i = 0; i < kN; ++i) b[i] = i;
      rng.shuffle(b);
    } else {  // skewed: hub 0 takes 1/4 of the iterations, hubs 1-2 1/16 each
      i64 hubs[3] = {rng.range(0, cells - 1), rng.range(0, cells - 1),
                     rng.range(0, cells - 1)};
      for (i64& v : b) {
        u64 r = rng.next() % 16;
        v = r < 4 ? hubs[0] : r == 4 ? hubs[1] : r == 5 ? hubs[2] : rng.range(0, cells - 1);
      }
    }
    out.push_back(std::move(in));
  }
  return out;
}

void scatter_shape(const ScatterInput& in, i64& classes, i64& max_component) {
  std::vector<i64> hits(in.cells, 0);
  for (i64 v : in.index) ++hits[v];
  classes = max_component = 0;
  for (i64 h : hits) {
    classes += h > 0;
    max_component = std::max(max_component, h);
  }
}

void scatter_reference(exec::ArrayStore& store, i64 n) {
  i64* a = store.raw_mutable("A").data();
  const i64* b = store.raw("B").data();
  const i64* c = store.raw("C").data();
  for (i64 i = 0; i < n; ++i) a[b[i]] = wadd(a[b[i]], c[i]);
}

}  // namespace vbench
