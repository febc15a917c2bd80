#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "sim/stats.hpp"

namespace vmgrid::bench {

/// Shared table formatting for the reproduction benches: every bench
/// prints its paper artifact as rows of {label, measured, paper} plus
/// the shape checks it makes.

inline void print_header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

/// Count of failed shape checks in this process (drives the exit code so
/// CI can run the benches as regression tests).
inline int& shape_failures() {
  static int n = 0;
  return n;
}

inline void print_shape_check(const std::string& claim, bool holds) {
  std::printf("  [%s] %s\n", holds ? "OK" : "MISMATCH", claim.c_str());
  if (!holds) ++shape_failures();
}

[[nodiscard]] inline int shape_exit_code() { return shape_failures() == 0 ? 0 : 1; }

/// The benches take no arguments: every sweep is fixed in the source, and
/// the only inputs are the VMGRID_* env knobs. Any argument (a stale
/// flag from an old script, say) prints a usage line and exits 2.
inline void require_no_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "usage: %s\n(takes no arguments; unexpected '%s')\n", argv[0],
               argv[1]);
  std::exit(2);
}

/// Accumulator that also retains the raw samples, so the JSON reporter
/// can emit exact p50/p99 (nearest-rank) instead of binned estimates.
/// Mirrors the sim::Accumulator reader API so bench code can swap types.
class SampleSet {
 public:
  void add(double x) {
    acc_.add(x);
    samples_.push_back(x);
    sorted_valid_ = false;
  }

  /// Append another set's samples in their insertion order (replication
  /// merge: fold per-replica sets in seed order and the result is the same
  /// vector a serial run would have built).
  void merge(const SampleSet& other) {
    acc_.merge(other.acc_);
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_valid_ = false;
  }

  [[nodiscard]] std::size_t count() const { return acc_.count(); }
  [[nodiscard]] double mean() const { return acc_.mean(); }
  [[nodiscard]] double stddev() const { return acc_.stddev(); }
  [[nodiscard]] double min() const { return acc_.min(); }
  [[nodiscard]] double max() const { return acc_.max(); }
  [[nodiscard]] double sum() const { return acc_.sum(); }
  [[nodiscard]] const sim::Accumulator& accumulator() const { return acc_; }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Nearest-rank percentile over the raw samples; 0.0 when empty.
  /// The sorted view is computed once and reused until the next add(),
  /// so a report emitting p50+p99 sorts once instead of per call.
  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    if (p <= 0.0) return sorted_.front();
    if (p >= 100.0) return sorted_.back();
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted_.size()) + 0.5);
    return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
  }

 private:
  sim::Accumulator acc_;
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;  // cache for percentile()
  mutable bool sorted_valid_{false};
};

struct StatRow {
  std::string label;
  sim::Accumulator measured;
  double paper_mean{0.0};
};

/// Machine-readable bench output: one BENCH_<name>.json per bench with
/// per-scenario count/mean/std/min/max/p50/p99 plus free-form numeric
/// fields. Schema:
///   {"bench":"<name>","schema":"vmgrid-bench-v1","unit":"<unit>",
///    "scenarios":[{"name":...,"count":...,"mean":...,"std":...,
///                  "min":...,"max":...,"p50":...,"p99":...,
///                  "fields":{...}}]}
/// Scenario order is insertion order, and numbers are emitted through
/// obs::json, so identical runs produce byte-identical files.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name) : bench_{std::move(bench_name)} {}

  void set_unit(std::string unit) { unit_ = std::move(unit); }

  void add_sample(const std::string& scenario, double v) {
    scenario_for(scenario).samples.add(v);
  }

  void add_samples(const std::string& scenario, const SampleSet& s) {
    scenario_for(scenario).samples = s;
  }

  void add_field(const std::string& scenario, const std::string& key, double v) {
    auto& sc = scenario_for(scenario);
    for (auto& [k, existing] : sc.fields) {
      if (k == key) {
        existing = v;
        return;
      }
    }
    sc.fields.emplace_back(key, v);
  }

  [[nodiscard]] std::string to_json() const {
    namespace js = obs::json;
    std::string out = "{\"bench\":" + js::quote(bench_) +
                      ",\"schema\":\"vmgrid-bench-v1\",\"unit\":" + js::quote(unit_) +
                      ",\"scenarios\":[";
    bool first = true;
    for (const auto& sc : scenarios_) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":" + js::quote(sc.name);
      out += ",\"count\":" + js::number(static_cast<double>(sc.samples.count()));
      out += ",\"mean\":" + js::number(sc.samples.mean());
      out += ",\"std\":" + js::number(sc.samples.stddev());
      out += ",\"min\":" + js::number(sc.samples.min());
      out += ",\"max\":" + js::number(sc.samples.max());
      out += ",\"p50\":" + js::number(sc.samples.percentile(50.0));
      out += ",\"p99\":" + js::number(sc.samples.percentile(99.0));
      out += ",\"fields\":{";
      bool ffirst = true;
      for (const auto& [k, v] : sc.fields) {
        if (!ffirst) out += ",";
        ffirst = false;
        out += js::quote(k) + ":" + js::number(v);
      }
      out += "}}";
    }
    out += "]}";
    return out;
  }

  /// Writes BENCH_<name>.json into the working directory; returns false
  /// (and prints a warning) on I/O failure.
  bool write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    const std::string doc = to_json();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  struct Scenario {
    std::string name;
    SampleSet samples;
    std::vector<std::pair<std::string, double>> fields;
  };

  Scenario& scenario_for(const std::string& name) {
    for (auto& sc : scenarios_) {
      if (sc.name == name) return sc;
    }
    scenarios_.push_back(Scenario{name, {}, {}});
    return scenarios_.back();
  }

  std::string bench_;
  std::string unit_{"seconds"};
  std::vector<Scenario> scenarios_;
};

inline void print_stat_table(const std::vector<StatRow>& rows,
                             const std::string& unit) {
  std::printf("%-42s %10s %8s %8s %8s | %10s\n", "scenario", ("mean(" + unit + ")").c_str(),
              "std", "min", "max", "paper");
  for (const auto& r : rows) {
    std::printf("%-42s %10.1f %8.1f %8.1f %8.1f | %10.1f\n", r.label.c_str(),
                r.measured.mean(), r.measured.stddev(), r.measured.min(),
                r.measured.max(), r.paper_mean);
  }
}

}  // namespace vmgrid::bench
