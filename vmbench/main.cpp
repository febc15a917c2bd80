// vmbench: the vmgrid benchmark program.
//
//   vmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--size full|small] [--out <dir>]
//
// Repeats the workload on a fresh world until --seconds of wall time have
// passed (at least once). Every repetition of one seed must simulate the
// same outcome (same digest). With --trace 0 it reports the end-to-end
// metrics: host time over the repetitions, stated at a fixed host speed
// (see kReferenceNominalS), plus the sim-time results. With --trace 1 it
// alternates untraced and traced repetitions and reports the per-layer
// metrics, including the tracing overhead.
// The last line of stdout is one JSON object; the exit code is 0 only
// when every correctness check held.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace vmbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"task_latency_p50_s", "s"},
    {"task_latency_tail_s", "s"},
    {"tasks_ok_per_sim_s", "1/s"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.peak_pending_events", "count"},
    {"model.solves", "count"},
    {"model.actions", "count"},
    {"model.solves_per_action", "ratio"},
    {"host.cpu_allocations", "count"},
    {"host.cpu_lazy_reuses", "count"},
    {"storage.nfs_calls", "count"},
    {"storage.nfs_rpc_p50_s", "s"},
    {"vfs.cache_hit_ratio", "ratio"},
    {"vfs.bytes_read", "bytes"},
    {"vfs.prefetch_blocks", "count"},
    {"vm.state_prep_p50_s", "s"},
    {"vm.start_p50_s", "s"},
    {"middleware.placement_p50_s", "s"},
    {"middleware.globusrun_p50_s", "s"},
    {"middleware.session_ready_p50_s", "s"},
    {"middleware.session_ready_tail_s", "s"},
    {"middleware.op_fail_ratio", "ratio"},
    {"middleware.dead_submits", "count"},
    {"middleware.setup_register_s", "s"},
    {"net.setup_topology_s", "s"},
    {"net.rpc_retries", "count"},
    {"net.rpc_attempt_failed", "count"},
    {"failover.started", "count"},
    {"failover.completed_ratio", "ratio"},
    {"failover.rto_p50_s", "s"},
    {"failover.session_downtime_frac", "ratio"},
    {"core.errors_total", "count"},
    {"core.errors_per_op", "ratio"},
    {"fault.injected", "count"},
    {"fault.healed", "count"},
    {"prof.sim.loop_s", "s"},
    {"prof.rpc.server_s", "s"},
    {"prof.nfs.client_s", "s"},
    {"prof.vfs.proxy_s", "s"},
    {"prof.vfs.flush_s", "s"},
    {"prof.scheduler.pump_s", "s"},
    {"call.create_session_s", "s"},
    {"call.run_task_s", "s"},
    {"call.net_send_s", "s"},
    {"call.cpu_add_s", "s"},
    {"call.disk_write_s", "s"},
    {"obs.trace_overhead_frac", "ratio"},
    {"bench.run_wall_s", "s"},
    {"bench.setup_wall_s", "s"},
    {"bench.reference_s", "s"},
};

// Host speed. On a shared host the wall time of one and the same
// repetition drifts by half within minutes, with the load of other
// tenants; a change to the library is judged against a bound of a
// quarter. So run_s and setup_s are stated at a fixed host speed: a fixed
// piece of work that never calls into the library (reference_work_s) is
// timed before the first repetition and after each one, and the wall times
// of the timed repetitions are divided by the reference times around them
// and multiplied by kReferenceNominalS, the reference's time on a host of
// the baseline's speed. A change to the library moves these figures as it
// moves wall time; the raw wall times are reported as bench.* values.
constexpr double kReferenceNominalS = 0.075;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{-1.0};
  int trace{-1};
  Size size{Size::kFull};
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vmbench: %s\nusage: vmbench --workload <sessions_exact|sessions_fluid|"
               "failover_churn|kernel_jobs> --seed <n> --seconds <s> --trace <0|1> "
               "[--size full|small] [--out <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') a.seconds = -1.0;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (k == "--size") {
      if (std::strcmp(v, "full") != 0 && std::strcmp(v, "small") != 0) usage("bad --size");
      a.size = std::strcmp(v, "small") == 0 ? Size::kSmall : Size::kFull;
    } else if (k == "--out") {
      a.out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!known_workload(a.workload)) usage("unknown or missing --workload");
  if (!have_seed) usage("bad or missing --seed");
  if (a.seconds < 0.0 || a.seconds > 3600.0) usage("bad or missing --seconds");
  if (a.trace < 0) usage("bad or missing --trace");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median_of(const std::vector<RepResult>& reps, double RepResult::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.*field);
  return median(v);
}

/// Wall times of the timed repetitions stated at the nominal host speed:
/// their sum over the sum of the mean reference time around each, times
/// kReferenceNominalS. refs[i] and refs[i + 1] bracket plain[i]. The first
/// repetition warms caches and the allocator and is left out when there
/// are others.
double at_nominal_speed(const std::vector<RepResult>& reps, const std::vector<double>& refs,
                        double RepResult::*field) {
  const std::size_t from = reps.size() > 1 ? 1 : 0;
  double wall = 0.0, ref = 0.0;
  for (std::size_t i = from; i < reps.size(); ++i) {
    wall += reps[i].*field;
    ref += (refs[i] + refs[i + 1]) / 2.0;
  }
  return wall / ref * kReferenceNominalS;
}

double layer_median(const std::vector<RepResult>& reps, const char* key) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.get(key));
  return median(v);
}

// The report reads the samples of the first repetition only. Later
// repetitions drop theirs, so the harness's memory does not grow with the
// number of repetitions that fit into the run.
RepResult without_samples(RepResult r) {
  r.task_latency_s = {};
  r.session_ready_s = {};
  return r;
}

std::string json_metrics(const std::vector<std::pair<Metric, double>>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].first.name, ms[i].second, ms[i].first.unit);
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // The library reads its fidelity tier once, from the environment, when
  // the first resource is built; pin it before any world exists.
  setenv("VMGRID_FIDELITY", fluid_workload(args.workload) ? "fluid" : "exact", 1);
  const bool traced_mode = args.trace == 1;
  // Traces and spans describe the latest traced run of a workload; digests
  // are kept per seed so runs can be compared later.
  const std::string size_tag = args.size == Size::kSmall ? "-small" : "";
  const std::string stem =
      args.out.empty() ? std::string{} : args.out + "/" + args.workload + size_tag;

  std::vector<RepResult> plain, traced;
  std::string spans_json;
  // Peak memory of a process that ran the workload once: taken after the
  // first repetition, so it does not depend on how many repetitions the
  // host's speed allows.
  double peak_rss = 0.0;
  // Host-speed reference times: refs[i] and refs[i + 1] bracket plain[i].
  // The untimed first call builds the reference's table.
  std::vector<double> refs;
  const auto t0 = Clock::now();
  try {
    (void)reference_work_s();
    refs.push_back(reference_work_s());
    do {
      SpanLog off;
      RepResult r = run_workload(args.workload, args.size, args.seed, false, off, "");
      refs.push_back(reference_work_s());
      if (plain.empty()) {
        plain.push_back(std::move(r));
        peak_rss = peak_rss_mb();
      } else {
        plain.push_back(without_samples(std::move(r)));
      }
      if (traced_mode) {
        SpanLog spans;
        spans.enable(Clock::now());
        const bool first = traced.empty();
        traced.push_back(without_samples(
            run_workload(args.workload, args.size, args.seed, true, spans,
                         first && !stem.empty() ? stem + ".trace.json" : "")));
        if (first) spans_json = spans.to_json();
      }
    } while (seconds_since(t0) < args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  // --- correctness ------------------------------------------------------------
  const RepResult& first = plain.front();
  std::vector<std::string> failures;
  for (const auto* set : {&plain, &traced}) {
    for (const auto& r : *set) {
      for (const auto& f : r.gate_failures) failures.push_back(f);
      if (r.digest != first.digest) {
        failures.push_back("digest " + r.digest + " differs from " + first.digest +
                           (set == &traced ? " (traced repetition)" : ""));
      }
    }
  }
  if (first.ops_attempted == 0) failures.push_back("no operation was attempted");
  const bool correct = failures.empty();

  // --- report -------------------------------------------------------------------
  const Tail tail = tail_of(first.task_latency_s);
  const Tail ready_tail = tail_of(first.session_ready_s);
  const double run_s = at_nominal_speed(plain, refs, &RepResult::run_s);
  const double setup_s = at_nominal_speed(plain, refs, &RepResult::setup_s);
  const double run_wall_s = median_of(plain, &RepResult::run_s);
  const double setup_wall_s = median_of(plain, &RepResult::setup_s);
  std::vector<std::pair<Metric, double>> out;
  if (!traced_mode) {
    const double values[] = {
        run_s,
        setup_s,
        peak_rss,
        median(first.task_latency_s),
        tail.value,
        first.sim_span_s > 0.0 ? static_cast<double>(first.tasks_ok) / first.sim_span_s : 0.0,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    const double traced_run_s = median_of(traced, &RepResult::run_s);
    for (const Metric& m : kPerLayer) {
      double v = layer_median(traced, m.name);
      if (std::strcmp(m.name, "sim.host_ns_per_event") == 0) {
        v = first.events > 0 ? run_s / static_cast<double>(first.events) * 1e9 : 0.0;
      } else if (std::strcmp(m.name, "obs.trace_overhead_frac") == 0) {
        v = run_wall_s > 0.0 ? (traced_run_s - run_wall_s) / run_wall_s : 0.0;
      } else if (std::strcmp(m.name, "bench.run_wall_s") == 0) {
        v = run_wall_s;
      } else if (std::strcmp(m.name, "bench.setup_wall_s") == 0) {
        v = setup_wall_s;
      } else if (std::strcmp(m.name, "bench.reference_s") == 0) {
        v = median(refs);
      }
      out.emplace_back(m, v);
    }
  }

  std::printf("workload %s  seed %llu  size %s  repetitions %zu untraced, %zu traced\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.size == Size::kSmall ? "small" : "full", plain.size(), traced.size());
  std::printf("digest %s  events %llu  ops %llu  failed %llu\n", first.digest.c_str(),
              static_cast<unsigned long long>(first.events),
              static_cast<unsigned long long>(first.ops_attempted),
              static_cast<unsigned long long>(first.ops_failed));
  std::printf("  task latency: p50 %.6f s, tail p%g %.6f s over %zu samples\n",
              median(first.task_latency_s), tail.rank, tail.value, tail.samples);
  if (!first.session_ready_s.empty()) {
    std::printf("  session ready: p50 %.3f s, tail p%g %.3f s over %zu sessions"
                "  (paper Table 2 warm restore, non-persistent: 12.4 s DiskFS,"
                " 29.2 s LoopbackNFS)\n",
                median(first.session_ready_s), ready_tail.rank, ready_tail.value,
                ready_tail.samples);
    std::printf("  note: the model is calibrated only for the uncontended single-session"
                " start; contended session_ready values are unvalidated\n");
  }
  std::printf("  run_s per repetition:");
  for (const auto& r : plain) std::printf(" %.4f", r.run_s);
  std::printf("\n  setup_s per repetition:");
  for (const auto& r : plain) std::printf(" %.6f", r.setup_s);
  std::printf("\n  reference_s around them:");
  for (const double ref : refs) std::printf(" %.4f", ref);
  std::printf("\n  wall-clock medians: run %.4f s, setup %.6f s; reference %.4f s, nominal %.3f s\n",
              run_wall_s, setup_wall_s, median(refs), kReferenceNominalS);
  for (const auto& [k, v] : (traced_mode ? traced.front() : first).layer) {
    std::printf("  %-34s %.9g\n", k.c_str(), v);
  }
  for (const auto& [m, v] : out) std::printf("%-34s %.9g %s\n", m.name, v, m.unit);
  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  if (!stem.empty()) {
    std::ofstream{stem + "-seed" + std::to_string(args.seed) + ".digest"} << first.digest
                                                                         << '\n';
    if (!spans_json.empty()) std::ofstream{stem + ".spans.json"} << spans_json;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(first.ops_attempted),
              static_cast<unsigned long long>(first.ops_failed), json_metrics(out).c_str());
  return correct ? 0 : 1;
}
