#pragma once

// Shared pieces of the vmgrid benchmark program: the per-repetition result
// record, the outcome digest, sample statistics, and the benchmark-side
// span log that times every call the benchmark makes into a library layer.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vmbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over the simulated outcome: executed events plus every
/// operation's result in completion order. Two runs of one seed must
/// produce the same digest; a change that only alters host speed must
/// leave it untouched.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_{0xcbf29ce484222325ull};
};

/// Nearest-rank percentile of an unsorted sample vector (copied).
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(p / 100.0 * n + 0.5);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// The tail the benchmark reports: the highest of p90/p99/p99.9 that
/// leaves at least ten samples above it (p50 when even p90 does not).
struct Tail {
  double value{0.0};
  double rank{50.0};
  std::size_t samples{0};
};

[[nodiscard]] inline Tail tail_of(const std::vector<double>& v) {
  Tail t{percentile(v, 50.0), 50.0, v.size()};
  for (double p : {90.0, 99.0, 99.9}) {
    const auto beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) t = Tail{percentile(v, p), p, v.size()};
  }
  return t;
}

/// Wall-clock spans the benchmark records around its own calls into the
/// library (session creation, task submission, network send, CPU add,
/// disk write). Each span names the operation it belongs to and the
/// span that encloses it. Totals cover every span; individual records
/// are kept in memory up to a cap and written out after the run.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::uint64_t op;
    std::uint32_t parent;  // index + 1 of the enclosing record, 0 for none
    double begin_s;
    double end_s;
  };
  struct Total {
    std::uint64_t count{0};
    double seconds{0.0};
  };

  static constexpr std::size_t kMaxRecords = 50'000;

  void enable(Clock::time_point origin) {
    enabled_ = true;
    origin_ = origin;
  }

  /// RAII span; a no-op when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op) : log_{log.enabled_ ? &log : nullptr} {
      if (log_ == nullptr) return;
      name_ = name;
      op_ = op;
      parent_ = log_->open_.empty() ? 0 : log_->open_.back();
      index_ = log_->records_.size() < kMaxRecords
                   ? static_cast<std::uint32_t>(log_->records_.size() + 1)
                   : 0;
      if (index_ != 0) log_->records_.push_back({name, op, parent_, 0.0, 0.0});
      log_->open_.push_back(index_);
      start_ = Clock::now();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ == nullptr) return;
      const auto end = Clock::now();
      const double dur = std::chrono::duration<double>(end - start_).count();
      auto& t = log_->total(name_);
      ++t.count;
      t.seconds += dur;
      if (index_ != 0) {
        auto& r = log_->records_[index_ - 1];
        r.begin_s = std::chrono::duration<double>(start_ - log_->origin_).count();
        r.end_s = r.begin_s + dur;
      }
      log_->open_.pop_back();
    }

   private:
    SpanLog* log_;
    const char* name_{nullptr};
    std::uint64_t op_{0};
    std::uint32_t parent_{0};
    std::uint32_t index_{0};
    Clock::time_point start_{};
  };

  [[nodiscard]] double total_seconds(std::string_view name) const {
    for (const auto& [k, t] : totals_) {
      if (name == k) return t.seconds;
    }
    return 0.0;
  }

  /// Span names are string literals, so the few distinct names are found
  /// by pointer without building a string per span.
  Total& total(const char* name) {
    for (auto& [k, t] : totals_) {
      if (k == name) return t;
    }
    return totals_.emplace_back(name, Total{}).second;
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"totals\":{";
    bool first = true;
    for (const auto& [k, t] : totals_) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\":{\"count\":%llu,\"seconds\":%.9g}",
                    first ? "" : ",", k, static_cast<unsigned long long>(t.count),
                    t.seconds);
      out += buf;
      first = false;
    }
    out += "},\"spans\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const auto& r = records_[i];
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\":%zu,\"parent\":%u,\"op\":%llu,\"name\":\"%s\","
                    "\"begin_s\":%.9f,\"end_s\":%.9f}",
                    i == 0 ? "" : ",", i + 1, r.parent,
                    static_cast<unsigned long long>(r.op), r.name, r.begin_s, r.end_s);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  bool enabled_{false};
  Clock::time_point origin_{};
  std::vector<Record> records_;
  std::vector<std::uint32_t> open_;
  std::vector<std::pair<const char*, Total>> totals_;
};

/// Everything one repetition of a workload produced. Sim-time quantities
/// are a pure function of (workload, size, seed); the wall-clock fields
/// are measured.
struct RepResult {
  double setup_s{0.0};  // world construction before the first event
  double run_s{0.0};    // first event to the end of the run
  std::uint64_t events{0};
  std::string digest;

  std::uint64_t ops_attempted{0};
  std::uint64_t ops_failed{0};
  std::vector<double> task_latency_s;    // submit -> OK result
  std::vector<double> session_ready_s;   // create -> usable session
  double sim_span_s{0.0};                // sim time the ok tasks were produced over
  std::uint64_t tasks_ok{0};

  /// Per-layer and workload-specific values, in report order.
  std::vector<std::pair<std::string, double>> layer;
  /// Correctness-gate violations; empty when the repetition is correct.
  std::vector<std::string> gate_failures;

  void set(const std::string& key, double v) {
    for (auto& [k, x] : layer) {
      if (k == key) {
        x = v;
        return;
      }
    }
    layer.emplace_back(key, v);
  }
  [[nodiscard]] double get(std::string_view key) const {
    for (const auto& [k, x] : layer) {
      if (k == key) return x;
    }
    return 0.0;
  }
  void gate(bool holds, const std::string& what) {
    if (!holds) gate_failures.push_back(what);
  }
};

enum class Size { kFull, kSmall };

/// Runs one repetition of `workload` on a fresh world. `traced` turns on
/// the library's SimProfiler and sim-time TraceCollector; `spans` records
/// the benchmark's own call spans (enabled only in traced repetitions).
/// Throws std::invalid_argument for an unknown workload name.
RepResult run_workload(std::string_view workload, Size size, std::uint64_t seed,
                       bool traced, SpanLog& spans, const std::string& trace_path);

/// Wall time of one fixed piece of work that never calls into the library
/// (reference.cpp): a measure of the host's speed at the moment.
[[nodiscard]] double reference_work_s();

[[nodiscard]] bool known_workload(std::string_view workload);
[[nodiscard]] bool fluid_workload(std::string_view workload);

}  // namespace vmbench
