// suite_postfix: the eleven paper-suite kernels at 10^6..10^7 iterations
// on the library's default policy (streaming runtime, postfix kernel),
// plus the non-affine scatter nest A[B[i]] = A[B[i]] + C[i] over three
// seeded index patterns, which the same policy routes to the
// inspector-executor. Everything is compiled once during set-up. One
// operation is one CompiledLoop::execute over a fresh copy of the kind's
// pattern-filled store.
#include <algorithm>
#include <thread>

#include "api/vdep.h"
#include "bench.h"
#include "dsl/parser.h"
#include "inspect/inspector.h"
#include "scatter.h"
#include "suite_ref.h"

namespace vbench {

namespace {

struct Kernel {
  const char* name;
  i64 n;
  int weight;  ///< operations per round
};

// Sizes keep every store under ~200 MiB (example_4_1 and variable_3deep
// declare arrays five times wider than their loops). Ten kernels are sized
// to one tier of ~10-19 ms on 4 workers, which the three scatter kinds
// join at ~5-10 ms; matmul_reduction, three per round, is a tier of its
// own at ~4x that. The p50 then falls at 62% of the first tier and the p90
// at 47% of the second, never on the edge between two kinds of different
// cost (README, "Where the percentiles land"). The top tier is a parallel
// kernel: a serial one runs on a single vCPU, and its latency jumps between
// two levels with that vCPU's load from outside the VM, which would put the
// p90 on the jump.
const Kernel kKernels[] = {
    {"example_4_1", 400, 1},        {"example_4_2", 460, 1},
    {"uniform_wavefront", 870, 1},  {"uniform_blocked", 1480, 1},
    {"zero_column", 1170, 1},       {"parity_independent", 1650, 1},
    {"sequential_chain", 1300000, 1}, {"variable_3deep", 50, 1},
    {"triangular_uniform", 1560, 1}, {"matmul_reduction", 203, 3},
    {"skewed_extent", 1000000, 1},
};

/// One kind of operation, checked against its own reference.
struct Prepared {
  std::string name;
  int weight;
  vdep::CompiledLoop loop;
  exec::ArrayStore pristine;
  u64 expected;
  i64 iterations;
  /// Scatter kinds only: the expected inspector shape, counted from the
  /// index array, and their timed operations for the inspect layer.
  bool scatter = false;
  i64 classes = 0, max_component = 0;
  std::vector<double> op_ms, inspect_ms, share;
};

std::size_t workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

}  // namespace

void run_suite_postfix(const Args& args, Result& res, SpanLog& spans) {
  Rng rng(args.seed ^ 0x5017E0000ULL);
  Rng scatter_rng(args.seed ^ 0x5CA77E0000ULL);
  vdep::Compiler compiler(
      vdep::CompileOptions().trace(args.trace).metrics(args.trace));
  const vdep::ExecPolicy policy = vdep::ExecPolicy()
                                      .threads(workers())
                                      .digest(false)
                                      .trace(args.trace)
                                      .metrics(args.trace);

  std::vector<Prepared> prep;
  std::vector<double> store_ms;
  // Compiles `nest`, builds its store and lets `fill` set it up.
  auto prepare = [&](const std::string& name, int weight, const loopir::LoopNest& nest,
                     i64 iterations, const auto& fill) -> Prepared& {
    vdep::Expected<vdep::CompiledLoop> loop = compiler.compile(nest);
    if (!loop) throw std::runtime_error(name + ": " + loop.error().message);
    i64 t = now_ns();
    exec::ArrayStore store(nest);
    store.fill_pattern();
    store_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);
    spans.add("exec.store_build", t, now_ns() - t, name.c_str());
    fill(store);
    prep.push_back({name, weight, *loop, std::move(store), 0, iterations, false, 0, 0,
                    {}, {}, {}});
    return prep.back();
  };
  for (const Kernel& k : kKernels) {
    loopir::LoopNest nest = suite_nest(k.name, k.n);
    Prepared& pr = prepare(k.name, k.weight, nest, suite_iterations(k.name, k.n),
                           [](exec::ArrayStore&) {});
    OwnWork own(res);
    exec::ArrayStore ref = pr.pristine;
    suite_reference(k.name, k.n, ref, nest);
    pr.expected = digest(ref, nest);
  }
  for (const ScatterInput& in : scatter_inputs(scatter_rng)) {
    Prepared& pr = prepare(in.name, 1, vdep::dsl::parse_loop_nest(in.dsl), in.n,
                           [&](exec::ArrayStore& s) {
                             std::copy(in.index.begin(), in.index.end(),
                                       s.raw_mutable("B").begin());
                           });
    OwnWork own(res);
    pr.scatter = true;
    scatter_shape(in, pr.classes, pr.max_component);
    exec::ArrayStore ref = pr.pristine;
    scatter_reference(ref, in.n);
    pr.expected = digest(ref, pr.loop.nest());
  }

  std::vector<std::size_t> round;
  for (std::size_t p = 0; p < prep.size(); ++p)
    for (int w = 0; w < prep[p].weight; ++w) round.push_back(p);

  std::vector<double> exec_ms, build_ms, idle_ms, steals, failed_steals, tasks, classes,
      max_comp;
  exec::ArrayStore work = prep.front().pristine;
  i64 op = 0;
  bool classes_planted = false;
  // One untimed warm-up pass over every kind, checked like the rest.
  auto run_op = [&](std::size_t p, bool timed) {
    Prepared& pr = prep[p];
    {
      OwnWork own(res);
      work = pr.pristine;
    }
    spans.set_op(timed ? op : -1);
    i64 t = now_ns();
    vdep::Expected<vdep::ExecReport> rep = pr.loop.execute(policy, work);
    i64 d = now_ns() - t;
    spans.add("runtime.execute", t, d, pr.name.c_str());
    OpCheck c;
    OwnWork own(res);
    if (rep) {
      i64 iters = rep->iterations;
      i64 cls = rep->inspector_classes;
      if (timed && op == 0 && args.fault == "iters") ++iters;
      if (timed && op == 0 && args.fault == "store")
        work.raw_mutable(pr.loop.nest().arrays().front().name)[0] ^= 1;
      if (timed && pr.scatter && args.fault == "classes" && !classes_planted) {
        ++cls;
        classes_planted = true;  // in the first timed scatter operation only
      }
      c.expect(iters == pr.iterations, pr.name + ": iterations " + std::to_string(iters) +
                                           " != " + std::to_string(pr.iterations));
      c.expect(digest(work, pr.loop.nest()) == pr.expected,
               pr.name + ": final store differs from the reference");
      c.expect(rep->exec_ns <= d && rep->inspect_ns <= d,
               pr.name + ": ExecReport time exceeds the call");
      c.expect(rep->inspector == pr.scatter,
               pr.name + (pr.scatter ? ": did not run on the inspector"
                                     : ": ran on the inspector"));
      if (pr.scatter) {
        c.expect(cls == pr.classes, pr.name + ": inspector classes " + std::to_string(cls) +
                                        " != " + std::to_string(pr.classes));
        c.expect(rep->inspector_max_component == pr.max_component,
                 pr.name + ": largest component");
      }
    } else {
      complain(pr.name + ": " + rep.error().message);
    }
    if (!timed) {
      if (!rep || !c.ok) res.wrong(pr.name + ": warm-up failed");
      return;
    }
    const double ms = static_cast<double>(d) / 1e6;
    res.record_op(ms, !rep, rep && !c.ok);
    ++op;
    if (rep) {
      exec_ms.push_back(static_cast<double>(rep->exec_ns) / 1e6);
      build_ms.push_back(static_cast<double>(rep->analyze_ns) / 1e6);
      idle_ms.push_back(static_cast<double>(rep->idle_ns) / 1e6);
      steals.push_back(static_cast<double>(rep->steals));
      failed_steals.push_back(static_cast<double>(rep->failed_steals));
      tasks.push_back(static_cast<double>(rep->tasks));
      if (pr.scatter) {
        pr.op_ms.push_back(ms);
        pr.inspect_ms.push_back(static_cast<double>(rep->inspect_ns) / 1e6);
        pr.share.push_back(static_cast<double>(rep->inspect_ns) / static_cast<double>(d));
        classes.push_back(static_cast<double>(rep->inspector_classes));
        max_comp.push_back(static_cast<double>(rep->inspector_max_component));
      }
    }
  };
  for (std::size_t p = 0; p < prep.size(); ++p) run_op(p, false);

  res.start_timed_phase();
  while (res.time_left()) {
    rng.shuffle(round);
    for (std::size_t p : round) run_op(p, true);
  }

  if (!args.trace) return;
  res.layer("runtime.exec_ms", median(exec_ms));
  res.layer("runtime.executor_build_ms", median(build_ms));
  res.layer("runtime.idle_ms", median(idle_ms));
  res.layer("runtime.steals", mean(steals));
  res.layer("runtime.failed_steals", mean(failed_steals));
  res.layer("runtime.leaf_tasks", mean(tasks));
  res.layer("exec.store_build_ms", median(store_ms));

  // Scaling: each suite kernel at 1 worker and at the run's worker count,
  // the median of three calls each, outside the timed phase. The scatter
  // kinds: the hand-written loop's time, and one direct inspection whose
  // counts must agree with the ones counted from the index array.
  std::vector<double> ratios, inspect_all, share_all, vs_seq;
  double ns_1w = 0, iters = 0;
  for (Prepared& pr : prep) {
    if (pr.scatter) {
      std::vector<double> ts;
      for (int r = 0; r < 5; ++r) {
        work = pr.pristine;
        i64 t = now_ns();
        scatter_reference(work, pr.iterations);
        spans.add("exec.sequential_scatter", t, now_ns() - t, pr.name.c_str());
        ts.push_back(static_cast<double>(now_ns() - t) / 1e6);
      }
      vs_seq.push_back(median(ts) / median(pr.op_ms));
      i64 t = now_ns();
      vdep::inspect::DynamicPartition part = vdep::inspect::inspect(pr.loop.nest(), pr.pristine);
      spans.add("inspect.inspect", t, now_ns() - t, pr.name.c_str());
      if (part.stats().classes != pr.classes || part.stats().max_component != pr.max_component)
        res.wrong(pr.name + ": direct inspection disagrees with the index array");
      inspect_all.insert(inspect_all.end(), pr.inspect_ms.begin(), pr.inspect_ms.end());
      share_all.insert(share_all.end(), pr.share.begin(), pr.share.end());
      continue;
    }
    double t1 = 0, tw = 0;
    for (std::size_t threads : {std::size_t{1}, workers()}) {
      std::vector<double> ts;
      for (int r = 0; r < 3; ++r) {
        work = pr.pristine;
        i64 t = now_ns();
        auto rep = pr.loop.execute(vdep::ExecPolicy(policy).threads(threads), work);
        i64 d = now_ns() - t;
        if (!rep || digest(work, pr.loop.nest()) != pr.expected)
          res.wrong(pr.name + ": scaling run output differs");
        ts.push_back(static_cast<double>(d));
      }
      (threads == 1 ? t1 : tw) = median(ts);
    }
    ratios.push_back(t1 / tw);
    ns_1w += t1;
    iters += static_cast<double>(pr.iterations);
  }
  res.layer("runtime.speedup_4w", geomean(ratios));
  res.layer("exec.ns_per_iter_1w", ns_1w / iters);
  res.layer("inspect.inspect_ms", median(inspect_all));
  res.layer("inspect.share", median(share_all));
  res.layer("inspect.classes", mean(classes));
  res.layer("inspect.max_component", mean(max_comp));
  res.layer("inspect.vs_sequential", geomean(vs_seq));
}

}  // namespace vbench
