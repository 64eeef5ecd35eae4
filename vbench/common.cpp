#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "bench.h"

namespace vbench {

u64 digest(const exec::ArrayStore& store, const loopir::LoopNest& nest) {
  // Four interleaved FNV-style lanes keep the multiply chain short enough
  // for a 200 MiB store to digest in tens of milliseconds.
  u64 lane[4] = {0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL,
                 0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL};
  constexpr u64 kMul = 0x100000001B3ULL;
  u64 out = 0;
  for (const loopir::ArrayDecl& d : nest.arrays()) {
    const exec::ArrayStore::Buffer& b = store.raw(d.name);
    for (char c : d.name) lane[0] = (lane[0] ^ static_cast<unsigned char>(c)) * kMul;
    std::size_t k = 0;
    for (; k + 4 <= b.size(); k += 4)
      for (int l = 0; l < 4; ++l)
        lane[l] = (lane[l] ^ static_cast<u64>(b[k + l])) * kMul;
    for (; k < b.size(); ++k) lane[0] = (lane[0] ^ static_cast<u64>(b[k])) * kMul;
    out ^= lane[0] + 3 * lane[1] + 5 * lane[2] + 7 * lane[3] + b.size();
  }
  return out;
}

View::View(exec::ArrayStore& store, const loopir::ArrayDecl& decl)
    : p_(store.raw_mutable(decl.name).data()) {
  for (const auto& [lo, hi] : decl.dims) {
    lo_.push_back(lo);
    ext_.push_back(hi - lo + 1);
  }
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns) / 1e6);
  return out;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  i64 base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::string name(s.name);
    std::string layer = name.substr(0, name.find('.'));
    f << (k ? ",\n" : "\n") << "{\"name\":\"" << name << "\",\"cat\":\""
      << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << static_cast<double>(s.start_ns - base) / 1e3
      << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
      << ",\"args\":{\"op\":" << s.op << ",\"detail\":\"" << s.detail << "\"}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

namespace {
int g_complaints = 0;
}

void complain(const std::string& what) {
  if (++g_complaints <= 10) std::fprintf(stderr, "vbench: check failed: %s\n", what.c_str());
}

Result::Result(const Args& args) : args_(args) {}

void Result::start_timed_phase() {
  setup_s_ = static_cast<double>(realtime_ns() - args_.t0_ns - own_setup_ns_) / 1e9;
  timed_start_ns_ = now_ns();
}

void Result::own_setup_work(i64 ns) {
  if (timed_start_ns_ == 0) own_setup_ns_ += ns;
}

bool Result::time_left() const {
  // Runs end on whole rounds: the caller asks between rounds. At least
  // 100 operations are timed so that ten samples lie beyond the p90.
  return static_cast<double>(now_ns() - timed_start_ns_) / 1e9 < args_.seconds ||
         op_ms_.size() < 100;
}

void Result::record_op(double ms, bool error, bool wrong_output) {
  ++attempted_;
  op_ms_.push_back(ms);
  if (error || wrong_output) ++failed_;
  if (wrong_output) correct_ = false;
}

void Result::wrong(const std::string& what) {
  complain(what);
  correct_ = false;
}

double Result::ops_per_s() const {
  double busy_s = std::accumulate(op_ms_.begin(), op_ms_.end(), 0.0) / 1e3;
  return busy_s > 0 ? static_cast<double>(op_ms_.size()) / busy_s : 0;
}

void Result::layer(const std::string& name, double value) { layer_[name] = value; }

void Result::print(
    const std::vector<std::pair<std::string, std::string>>& layer_units,
    bool trace) const {
  std::string m;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    m += (m.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + buf +
         ", \"unit\": \"" + unit + "\"}";
  };
  if (!trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    add("setup_s", setup_s_, "s");
    add("ops_per_s", ops_per_s(), "1/s");
    add("op_p50_ms", quantile(op_ms_, 0.5), "ms");
    add("op_p90_ms", quantile(op_ms_, 0.9), "ms");
    add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  } else {
    for (const auto& [name, unit] : layer_units) {
      auto it = layer_.find(name);
      add(name, it == layer_.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, v] : layer_) {
      bool declared = false;
      for (const auto& lu : layer_units) declared = declared || lu.first == name;
      if (!declared) throw std::logic_error("undeclared per-layer metric " + name);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct_ ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), m.c_str());
  std::fflush(stdout);
}

}  // namespace vbench
