// vbench: the vdep end-to-end benchmark program.
//
//   vbench --workload <suite_postfix|first_use>
//          --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//          [--t0-ns <ns>] [--trace-out <file>] [--fault <kind>]
//
// Normally started through run.py, which builds it and passes --scratch
// and --t0-ns. The last line of standard output is the result object.
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace vbench;

namespace {

/// Every per-layer metric the traced mode prints, with its unit. A layer a
/// workload does not reach reads 0 on that workload.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"runtime.exec_ms", "ms"},
    {"runtime.executor_build_ms", "ms"},
    {"runtime.idle_ms", "ms"},
    {"runtime.steals", "count"},
    {"runtime.failed_steals", "count"},
    {"runtime.leaf_tasks", "count"},
    {"runtime.speedup_4w", "x"},
    {"exec.ns_per_iter_1w", "ns"},
    {"exec.store_build_ms", "ms"},
    {"api.compile_cold_ms", "ms"},
    {"api.compile_warm_ms", "ms"},
    {"dsl.parse_us", "us"},
    {"codegen.emit_us", "us"},
    {"analysis.verify_us", "us"},
    {"jit.kernel_cold_ms", "ms"},
    {"jit.kernel_warm_ms", "ms"},
    {"jit.cc_runs", "count"},
    {"jit.partitioned", "share"},
    {"jit.fallbacks", "share"},
    {"cache.disk_hits", "count"},
    {"cache.disk_misses", "count"},
    {"cache.stored_bytes", "bytes"},
    {"inspect.inspect_ms", "ms"},
    {"inspect.share", "share"},
    {"inspect.classes", "count"},
    {"inspect.max_component", "count"},
    {"inspect.vs_sequential", "x"},
    {"trace.ops_per_s", "1/s"},
    {"trace.op_p50_ms", "ms"},
};

Args parse(int argc, char** argv) {
  Args a;
  for (int k = 1; k < argc; ++k) {
    std::string key = argv[k];
    if (k + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    std::string v = argv[++k];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = v == "1";
    else if (key == "--scratch") a.scratch = v;
    else if (key == "--trace-out") a.trace_out = v;
    else if (key == "--fault") a.fault = v;
    else if (key == "--t0-ns") a.t0_ns = std::stoll(v);
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.scratch.empty()) throw std::invalid_argument("--scratch is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  if (a.t0_ns == 0) a.t0_ns = realtime_ns();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // The library reads these at static initialization; run.py clears them
  // from the environment, and the recorders are reset here in case.
  for (const char* v : {"VDEP_TRACE", "VDEP_METRICS", "VDEP_CACHE_DIR", "VDEP_PIN"})
    unsetenv(v);
  vdep::obs::TraceRecorder::instance().disable();
  vdep::obs::MetricsRegistry::instance().disable();

  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbench: %s\n", e.what());
    return 2;
  }
  // Traced runs read the library's own counters (cc runs, disk-cache
  // traffic); untraced runs keep every library recorder off.
  if (args.trace) vdep::obs::MetricsRegistry::instance().enable();

  Result res(args);
  SpanLog spans(args.trace);
  try {
    if (args.workload == "suite_postfix") run_suite_postfix(args, res, spans);
    else if (args.workload == "first_use") run_first_use(args, res, spans);
    else {
      std::fprintf(stderr, "vbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (res.attempted() == 0) {
    std::fprintf(stderr, "vbench: no operation ran\n");
    return 1;
  }
  if (args.trace) {
    res.layer("trace.ops_per_s", res.ops_per_s());
    res.layer("trace.op_p50_ms", quantile(res.op_ms(), 0.5));
    if (!args.trace_out.empty() && !spans.write(args.trace_out))
      std::fprintf(stderr, "vbench: could not write %s\n", args.trace_out.c_str());
  }
  res.print(kLayerMetrics, args.trace);
  return 0;
}
