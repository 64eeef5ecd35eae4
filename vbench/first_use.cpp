// first_use: at least 32 distinct affine structures given as DSL text, each
// used four times per round in a seeded order. One operation is a fresh
// Compiler session taking the text through parse -> compile -> jit() ->
// execute at small bounds. The kernel disk cache is a run-private
// directory that starts each round empty, so the first use of a structure
// pays analysis, emission, the verifier, cc and publishing, and the other
// three load plan and kernel from disk.
#include <filesystem>
#include <functional>
#include <optional>
#include <set>

#include "analysis/kernel_verifier.h"
#include "analysis/loop_partition.h"
#include "api/vdep.h"
#include "bench.h"
#include "cache/disk_cache.h"
#include "codegen/emit_c.h"
#include "codegen/rewrite.h"
#include "dsl/parser.h"
#include "obs/metrics.h"
#include "suite_ref.h"

namespace vbench {

namespace {

namespace fs = std::filesystem;

constexpr i64 kSuiteN = 8;
constexpr int kGeneratedPerDepth = 7;
constexpr int kUses = 4;

/// c . i + c0 over the loop indices.
struct Affine {
  std::vector<i64> c;
  i64 c0 = 0;
};

/// The generator's own representation of one nest:
///   do i1..iD over [0, hi]:  A[w] = A[r] + B[b] * k + c
/// B is only read, so every value stays within |pattern| + iterations *
/// (99 * k + |c|): overflow-free by construction.
struct Gen {
  int depth = 1;
  i64 hi = 0;
  std::vector<Affine> w, r, b;
  i64 k = 1, c = 0;
  std::vector<std::pair<i64, i64>> a_dims, b_dims;
};

std::pair<i64, i64> hull(const Affine& a, i64 hi) {
  i64 lo = a.c0, up = a.c0;
  for (i64 c : a.c) (c < 0 ? lo : up) += c * hi;
  return {lo, up};
}

std::vector<Affine> random_map(Rng& rng, int depth, bool coupled) {
  std::vector<Affine> m(depth);
  for (int d = 0; d < depth; ++d) {
    m[d].c.assign(depth, 0);
    for (int e = 0; e < depth; ++e)
      m[d].c[e] = d == e ? (rng.next() % 2 ? 1 : -1) * rng.range(1, 3)
                         : (coupled ? rng.range(-2, 2) : 0);
    m[d].c0 = rng.range(-3, 3);
  }
  if (coupled && depth > 1 && m[0].c[1] == 0) m[0].c[1] = 1;  // keep it coupled
  return m;
}

Gen generate(Rng& rng, int depth) {
  Gen g;
  g.depth = depth;
  g.hi = depth == 1 ? 63 : depth == 2 ? 11 : 5;
  g.w = random_map(rng, depth, true);
  g.r = random_map(rng, depth, true);
  g.b = random_map(rng, depth, false);
  g.k = rng.range(1, 5);
  g.c = rng.range(-9, 9);
  for (int d = 0; d < depth; ++d) {
    auto [wl, wh] = hull(g.w[d], g.hi);
    auto [rl, rh] = hull(g.r[d], g.hi);
    g.a_dims.push_back({std::min(wl, rl), std::max(wh, rh)});
    g.b_dims.push_back(hull(g.b[d], g.hi));
  }
  return g;
}

std::string render(const Affine& a) {
  std::string s;
  for (std::size_t e = 0; e < a.c.size(); ++e) {
    if (a.c[e] == 0) continue;
    i64 m = a.c[e] < 0 ? -a.c[e] : a.c[e];
    s += s.empty() ? (a.c[e] < 0 ? "-" : "") : (a.c[e] < 0 ? " - " : " + ");
    s += std::to_string(m) + "*i" + std::to_string(e + 1);
  }
  if (s.empty()) return std::to_string(a.c0);
  if (a.c0) s += (a.c0 < 0 ? " - " : " + ") + std::to_string(a.c0 < 0 ? -a.c0 : a.c0);
  return s;
}

std::string dsl_text(const Gen& g) {
  auto decl = [](const char* name, const std::vector<std::pair<i64, i64>>& dims) {
    std::string s = std::string("array ") + name + "[";
    for (std::size_t d = 0; d < dims.size(); ++d)
      s += (d ? ", " : "") + std::to_string(dims[d].first) + ":" +
           std::to_string(dims[d].second);
    return s + "]\n";
  };
  auto ref = [](const char* name, const std::vector<Affine>& m) {
    std::string s = std::string(name) + "[";
    for (std::size_t d = 0; d < m.size(); ++d) s += (d ? ", " : "") + render(m[d]);
    return s + "]";
  };
  std::string s = decl("A", g.a_dims) + decl("B", g.b_dims);
  for (int d = 0; d < g.depth; ++d)
    s += std::string(2 * d, ' ') + "do i" + std::to_string(d + 1) + " = 0, " +
         std::to_string(g.hi) + "\n";
  s += std::string(2 * g.depth, ' ') + ref("A", g.w) + " = " + ref("A", g.r) +
       " + " + ref("B", g.b) + " * " + std::to_string(g.k) +
       (g.c < 0 ? " - " : " + ") + std::to_string(g.c < 0 ? -g.c : g.c) + "\n";
  for (int d = g.depth - 1; d >= 0; --d) s += std::string(2 * d, ' ') + "enddo\n";
  return s;
}

i64 gen_iterations(const Gen& g) {
  i64 n = 1;
  for (int d = 0; d < g.depth; ++d) n *= g.hi + 1;
  return n;
}

/// Sequential evaluation of `g` over `store` (built for its parsed nest):
/// the generator's own subscripts, row-major addressing, wrapping
/// arithmetic.
void evaluate(const Gen& g, exec::ArrayStore& store) {
  auto offset = [](const std::vector<Affine>& m,
                   const std::vector<std::pair<i64, i64>>& dims,
                   const std::vector<i64>& i) {
    i64 off = 0;
    for (std::size_t d = 0; d < m.size(); ++d) {
      i64 v = m[d].c0;
      for (std::size_t e = 0; e < i.size(); ++e) v += m[d].c[e] * i[e];
      off = off * (dims[d].second - dims[d].first + 1) + (v - dims[d].first);
    }
    return off;
  };
  i64* a = store.raw_mutable("A").data();
  const i64* b = store.raw("B").data();
  std::vector<i64> i(g.depth, 0);
  for (;;) {
    i64 v = wadd(wadd(a[offset(g.r, g.a_dims, i)],
                      wmul(b[offset(g.b, g.b_dims, i)], g.k)),
                 g.c);
    a[offset(g.w, g.a_dims, i)] = v;
    int d = g.depth - 1;
    while (d >= 0 && i[d] == g.hi) i[d--] = 0;
    if (d < 0) break;
    ++i[d];
  }
}

struct Structure {
  std::string label;
  std::string text;
  u64 expected = 0;
  i64 iterations = 0;
};

/// Builds the structure and its expected digest. The reference run is the
/// benchmark's own work, so it is left out of setup_s.
Structure make_structure(Result& res, const std::string& label,
                         const std::string& text, i64 iterations,
                         const std::function<void(exec::ArrayStore&,
                                                  const loopir::LoopNest&)>& ref) {
  OwnWork own(res);
  loopir::LoopNest nest = vdep::dsl::parse_loop_nest(text);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  ref(store, nest);
  return {label, text, digest(store, nest), iterations};
}

std::size_t kernel_files(const fs::path& cache) {
  std::error_code ec;
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(cache / "kernels", ec))
    if (e.path().extension() == ".so") ++n;
  return n;
}

i64 counter(const char* name) {
  return vdep::obs::MetricsRegistry::instance().counter(name).value();
}

}  // namespace

void run_first_use(const Args& args, Result& res, SpanLog& spans) {
  Rng rng(args.seed ^ 0xF125700000ULL);
  const fs::path scratch = args.scratch;
  vdep::jit::JitOptions jo;
  jo.work_dir = (scratch / "jit").string();
  fs::create_directories(jo.work_dir);

  // The structures: the suite's eleven kernels plus seeded generated nests,
  // a fixed number at each depth so that seeds change coefficients, not
  // the mix. Duplicate texts are redrawn: every structure is distinct.
  std::vector<Structure> structs;
  for (const std::string& name : suite_names())
    structs.push_back(make_structure(
        res, name, suite_dsl(name, kSuiteN), suite_iterations(name, kSuiteN),
        [&](exec::ArrayStore& s, const loopir::LoopNest& nest) {
          suite_reference(name, kSuiteN, s, nest);
        }));
  std::set<std::string> seen;
  for (int depth = 1; depth <= 3; ++depth)
    for (int k = 0; k < kGeneratedPerDepth;) {
      Gen g = generate(rng, depth);
      std::string text = dsl_text(g);
      if (!seen.insert(text).second) continue;
      structs.push_back(make_structure(
          res, "generated depth " + std::to_string(depth) + " #" + std::to_string(k),
          text, gen_iterations(g),
          [&](exec::ArrayStore& s, const loopir::LoopNest&) { evaluate(g, s); }));
      ++k;
    }

  std::vector<double> compile_cold, compile_warm, kernel_cold, kernel_warm, parse_us,
      emit_us, verify_us;
  i64 op = 0, jit_partitioned = 0, jit_fallbacks = 0;
  const bool trace = args.trace;

  // One use of one structure. `cold` says whether this is its first use in
  // the current cache directory.
  auto use = [&](const Structure& st, const fs::path& cache, bool cold, bool timed) {
    spans.set_op(timed ? op : -1);
    const char* detail = timed ? st.label.c_str() : "warm-up";
    vdep::jit::JitOptions o = jo;
    o.cache_dir = cache.string();
    const vdep::ExecPolicy policy = vdep::ExecPolicy()
                                        .backend(vdep::ExecBackend::kJit)
                                        .jit_options(o)
                                        .threads(1)
                                        .digest(false)
                                        .trace(trace)
                                        .metrics(trace);
    const std::size_t files0 = kernel_files(cache);
    const i64 builds0 = trace ? counter("vdep_jit_builds_total") : 0;
    OpCheck c;
    bool error = false;
    const i64 t0 = now_ns();
    {
      vdep::Compiler session(vdep::CompileOptions()
                                 .disk_cache(cache.string())
                                 .trace(trace)
                                 .metrics(trace));
      i64 t = now_ns();
      auto nest = vdep::dsl::try_parse_loop_nest(st.text);
      const i64 parse_ns = now_ns() - t;
      spans.add("dsl.parse", t, parse_ns, detail);
      error = !nest;
      std::optional<vdep::CompiledLoop> loop;
      i64 compile_ns = 0, kernel_ns = 0;
      if (nest) {
        t = now_ns();
        auto l = session.compile(*nest);
        compile_ns = now_ns() - t;
        spans.add("api.compile", t, compile_ns, detail);
        if (l) loop = *l;
        else complain(st.label + ": compile: " + l.error().message), error = true;
      }
      if (loop) {
        t = now_ns();
        auto kernel = loop->jit(o);
        kernel_ns = now_ns() - t;
        spans.add("jit.kernel", t, kernel_ns, detail);
        if (!kernel) complain(st.label + ": jit: " + kernel.error().message), error = true;
      }
      if (loop && !error) {
        t = now_ns();
        exec::ArrayStore store(loop->nest());
        store.fill_pattern();
        spans.add("exec.store_build", t, now_ns() - t, detail);
        t = now_ns();
        auto rep = loop->execute(policy, store);
        const i64 exec_ns = now_ns() - t;
        spans.add("runtime.execute", t, exec_ns, detail);
        const i64 op_ns = now_ns() - t0;
        if (!rep) {
          complain(st.label + ": execute: " + rep.error().message);
          error = true;
        } else {
          c.expect(rep->iterations == st.iterations, st.label + ": iterations");
          c.expect(digest(store, loop->nest()) == st.expected,
                   st.label + ": final store differs from the evaluator's");
          c.expect(rep->exec_ns <= exec_ns, st.label + ": ExecReport exec time exceeds the call");
          if (timed) {
            jit_partitioned += rep->jit_partitioned ? 1 : 0;
            jit_fallbacks += rep->jit ? 0 : 1;
          }
        }
        // cc runs, counted apart from the library: each one publishes one
        // kernel .so into the cache directory.
        std::size_t published = kernel_files(cache) - files0;
        if (timed && op == 0 && args.fault == "ccruns") ++published;
        c.expect(published == (cold ? 1u : 0u),
                 st.label + ": " + std::to_string(published) + " kernel(s) built on a " +
                     (cold ? "cold" : "warm") + " use");
        if (trace)
          c.expect(counter("vdep_jit_builds_total") - builds0 == (cold ? 1 : 0),
                   st.label + ": vdep_jit_builds_total disagrees with the use's temperature");
        if (timed) {
          (cold ? compile_cold : compile_warm).push_back(static_cast<double>(compile_ns) / 1e6);
          (cold ? kernel_cold : kernel_warm).push_back(static_cast<double>(kernel_ns) / 1e6);
          parse_us.push_back(static_cast<double>(parse_ns) / 1e3);
          res.record_op(static_cast<double>(op_ns) / 1e6, error, !error && !c.ok);
        }
        // Side measurement of the two compile layers the JIT calls
        // internally, outside the operation's time.
        const vdep::trans::TransformPlan& plan = loop->plan().transform;
        if (trace && timed && cold && plan.num_doall > 0) {
          vdep::codegen::TransformedNest tn = vdep::codegen::rewrite_nest(loop->nest(), plan);
          auto part = vdep::analysis::analyze_partition(tn.nest, plan.num_doall);
          if (part) {
            t = now_ns();
            std::string src = vdep::codegen::emit_c_partitioned_range_kernel(
                loop->nest(), plan, *part, "vbench_kernel");
            spans.add("codegen.emit", t, now_ns() - t, detail);
            emit_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
            t = now_ns();
            vdep::analysis::verify_partitioned_kernel(
                loop->nest(), tn.nest, plan.num_doall, *part, src);
            spans.add("analysis.verify", t, now_ns() - t, detail);
            verify_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
          }
        }
      } else if (timed) {
        res.record_op(static_cast<double>(now_ns() - t0) / 1e6, true, false);
      }
    }
    if (!timed && (error || !c.ok)) res.wrong(st.label + ": warm-up use failed");
    if (timed) ++op;
  };

  // Warm-up on six distinct structures outside the set (toolchain probe,
  // first dlopen), each used cold and then warm. Six cc runs rather than
  // one keep a single slow cc from setting setup_s.
  {
    Rng wrng(args.seed ^ 0xA11CE);
    fs::path cache = scratch / "cache-warmup";
    std::set<std::string> warm_seen;
    for (int depth = 1; depth <= 3; ++depth)
      for (int k = 0; k < 2;) {
        Gen g = generate(wrng, depth);
        std::string text = dsl_text(g);
        if (!warm_seen.insert(text).second) continue;
        Structure st = make_structure(
            res, "warm-up", text, gen_iterations(g),
            [&](exec::ArrayStore& s, const loopir::LoopNest&) { evaluate(g, s); });
        use(st, cache, true, false);
        use(st, cache, false, false);
        ++k;
      }
    fs::remove_all(cache);
  }

  std::vector<std::size_t> order;
  for (std::size_t s = 0; s < structs.size(); ++s)
    for (int u = 0; u < kUses; ++u) order.push_back(s);

  i64 rounds = 0;
  const i64 hits0 = trace ? counter("vdep_disk_cache_hits_total") : 0;
  const i64 misses0 = trace ? counter("vdep_disk_cache_misses_total") : 0;
  const i64 bytes0 = trace ? counter("vdep_disk_cache_stored_bytes_total") : 0;
  const i64 builds0 = trace ? counter("vdep_jit_builds_total") : 0;
  res.start_timed_phase();
  while (res.time_left()) {
    fs::path cache = scratch / ("cache-" + std::to_string(rounds++));
    rng.shuffle(order);
    std::vector<bool> used(structs.size(), false);
    for (std::size_t s : order) {
      use(structs[s], cache, !used[s], true);
      used[s] = true;
    }
    if (trace) {
      i64 t = now_ns();
      auto disk = vdep::cache::DiskCache::open(cache.string());
      std::size_t entries = disk ? disk->usage().kernel_entries : 0;
      spans.add("cache.usage", t, now_ns() - t);
      if (entries != structs.size())
        res.wrong("first_use: " + std::to_string(entries) + " kernels cached for " +
                  std::to_string(structs.size()) + " structures");
    }
    fs::remove_all(cache);
  }

  if (!trace) return;
  const i64 cold_ops = rounds * static_cast<i64>(structs.size());
  const i64 cc_runs = counter("vdep_jit_builds_total") - builds0;
  if (cc_runs != cold_ops)
    res.wrong("first_use: " + std::to_string(cc_runs) + " cc runs for " +
              std::to_string(cold_ops) + " cold uses");
  res.layer("api.compile_cold_ms", median(compile_cold));
  res.layer("api.compile_warm_ms", median(compile_warm));
  res.layer("dsl.parse_us", median(parse_us));
  res.layer("codegen.emit_us", median(emit_us));
  res.layer("analysis.verify_us", median(verify_us));
  res.layer("jit.kernel_cold_ms", median(kernel_cold));
  res.layer("jit.kernel_warm_ms", median(kernel_warm));
  res.layer("jit.cc_runs", static_cast<double>(cc_runs));
  res.layer("jit.partitioned", static_cast<double>(jit_partitioned) / static_cast<double>(op));
  res.layer("jit.fallbacks", static_cast<double>(jit_fallbacks) / static_cast<double>(op));
  res.layer("cache.disk_hits", static_cast<double>(counter("vdep_disk_cache_hits_total") - hits0));
  res.layer("cache.disk_misses",
            static_cast<double>(counter("vdep_disk_cache_misses_total") - misses0));
  res.layer("cache.stored_bytes",
            static_cast<double>(counter("vdep_disk_cache_stored_bytes_total") - bytes0));
}

}  // namespace vbench
