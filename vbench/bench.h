// Shared pieces of the vdep end-to-end benchmark: arguments, the run
// result, the in-memory span log, the benchmark's own store digest and the
// small statistics the workloads report.
//
// Everything here is the benchmark's own code: it links the library only
// through the headers of src/ and never reads the library's timers to
// decide whether an output is right.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "exec/array_store.h"
#include "loopir/nest.h"

namespace vbench {

namespace exec = vdep::exec;
namespace loopir = vdep::loopir;
using i64 = std::int64_t;
using u64 = std::uint64_t;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  ///< run-private directory (JIT work dirs, caches)
  std::string trace_out;  ///< where the traced mode writes its spans
  std::string fault;    ///< self-test: plant one wrong observation
  i64 t0_ns = 0;        ///< CLOCK_REALTIME at process spawn (run.py)
};

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline i64 realtime_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<i64>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// --seed so the same seed gives the same inputs.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 next() {
    u64 z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  i64 range(i64 lo, i64 hi) {
    return lo + static_cast<i64>(next() % static_cast<u64>(hi - lo + 1));
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t k = v.size(); k > 1; --k)
      std::swap(v[k - 1], v[next() % k]);
  }

 private:
  u64 s_;
};

/// Two's-complement wrapping arithmetic, the semantics every backend is
/// meant to share (the references compute in it).
inline i64 wadd(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}
inline i64 wmul(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
}

/// Position-sensitive digest of every element of every array of `nest`
/// in `store` (unlike ArrayStore::checksum, which is order-independent):
/// a flipped or moved element changes it.
u64 digest(const exec::ArrayStore& store, const loopir::LoopNest& nest);

/// Row-major view of one array's raw buffer, addressed by the array's
/// declared coordinates (the layout ArrayStore documents).
class View {
 public:
  View(exec::ArrayStore& store, const loopir::ArrayDecl& decl);
  i64& operator()(i64 a) { return p_[a - lo_[0]]; }
  i64& operator()(i64 a, i64 b) {
    return p_[(a - lo_[0]) * ext_[1] + (b - lo_[1])];
  }
  i64& operator()(i64 a, i64 b, i64 c) {
    return p_[((a - lo_[0]) * ext_[1] + (b - lo_[1])) * ext_[2] + (c - lo_[2])];
  }

 private:
  i64* p_;
  std::vector<i64> lo_, ext_;
};

/// One benchmark-side span: a timed call into a named layer.
struct Span {
  const char* name;    ///< "<layer>.<call>", e.g. "api.compile"
  std::string detail;  ///< what the call ran on (kernel, pattern), or ""
  i64 op;              ///< operation index, -1 outside operations
  i64 start_ns;
  i64 dur_ns;
};

/// Spans kept in memory while the run lasts and written out at its end.
/// Off (the untraced mode) it records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  void set_op(i64 op) { op_ = op; }
  /// `name` must outlive the log (a string literal); `detail` is copied.
  void add(const char* name, i64 start_ns, i64 dur_ns, const char* detail = "") {
    if (on_) spans_.push_back({name, detail, op_, start_ns, dur_ns});
  }
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Chrome trace-event JSON, one complete event per span.
  bool write(const std::string& path) const;

 private:
  bool on_;
  i64 op_ = -1;
  std::vector<Span> spans_;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// What one run reports. Operations are recorded one by one; a wrong
/// output counts the operation as failed and makes the run incorrect, an
/// error returned by the library counts it as failed only.
class Result {
 public:
  explicit Result(const Args& args);

  /// Marks the end of set-up: the first timed operation starts now.
  void start_timed_phase();
  /// Leaves `ns` of the benchmark's own set-up work (references, their
  /// digests, the copies and digests that check the warm-up) out of
  /// setup_s. Calls made once the timed phase has started are ignored.
  void own_setup_work(i64 ns);
  bool time_left() const;
  void record_op(double ms, bool error, bool wrong);
  /// Reports a wrong output found outside an operation (set-up checks).
  void wrong(const std::string& what);

  /// Sets one per-layer metric (name must be declared in main.cpp).
  void layer(const std::string& name, double value);

  /// Operations per second of timed operation: the set-up, copies and
  /// checks between operations are not part of it.
  double ops_per_s() const;
  i64 attempted() const { return attempted_; }
  const std::vector<double>& op_ms() const { return op_ms_; }
  /// Prints the result line (the last line of standard output).
  void print(const std::vector<std::pair<std::string, std::string>>& layer_units,
             bool trace) const;

 private:
  const Args& args_;
  bool correct_ = true;
  i64 attempted_ = 0;
  i64 failed_ = 0;
  double setup_s_ = 0;
  i64 own_setup_ns_ = 0;
  i64 timed_start_ns_ = 0;
  std::vector<double> op_ms_;
  std::map<std::string, double> layer_;
};

/// Times one piece of the benchmark's own work in scope and hands it to
/// Result::own_setup_work.
class OwnWork {
 public:
  explicit OwnWork(Result& res) : res_(res), start_ns_(now_ns()) {}
  ~OwnWork() { res_.own_setup_work(now_ns() - start_ns_); }
  OwnWork(const OwnWork&) = delete;
  OwnWork& operator=(const OwnWork&) = delete;

 private:
  Result& res_;
  i64 start_ns_;
};

/// Prints the first few check failures to stderr, quietly counts the rest.
void complain(const std::string& what);

/// Every operation check goes through one of these. `ok` becomes false on
/// the first failing check.
struct OpCheck {
  bool ok = true;
  void expect(bool cond, const std::string& what) {
    if (!cond) {
      if (ok) complain(what);
      ok = false;
    }
  }
};

// Workloads (one translation unit each).
void run_suite_postfix(const Args& args, Result& res, SpanLog& spans);
void run_first_use(const Args& args, Result& res, SpanLog& spans);

}  // namespace vbench
