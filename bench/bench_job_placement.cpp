// XSCHED2: a grid scheduler over the VM substrate (§4 "the user, or a
// grid scheduler..."). Three placement policies dispatch the same job
// stream onto a 4-host farm with heterogeneous background load; the
// RPS-driven policy (per-host load sensors + AR predictors + running-
// time estimation, §3.2) should beat least-loaded, which beats random.

#include <vector>

#include "bench_common.hpp"
#include "host/trace_playback.hpp"
#include "middleware/scheduler_service.hpp"
#include "middleware/testbed.hpp"
#include "workload/spec_benchmarks.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

struct Outcome {
  double mean_response_s{0.0};
  double p_max_response_s{0.0};
  double makespan_s{0.0};
};

constexpr int kJobs = 24;

Outcome run_policy(PlacementPolicy policy, std::uint64_t seed) {
  Grid grid{seed};
  std::vector<ComputeServer*> hosts;
  std::vector<std::unique_ptr<host::TracePlayback>> loads;
  // Background load levels per host: idle .. heavily shared.
  const double levels[4] = {0.0, 0.4, 1.0, 1.7};
  for (int i = 0; i < 4; ++i) {
    auto& cs = grid.add_compute_server(
        testbed::paper_compute("farm-" + std::to_string(i), testbed::fig1_host()));
    cs.preload_image(testbed::paper_image());
    hosts.push_back(&cs);
    if (levels[i] > 0) {
      loads.push_back(std::make_unique<host::TracePlayback>(
          grid.simulation(), cs.host().cpu(),
          host::LoadTrace::constant(sim::Duration::minutes(300), levels[i])));
      loads.back()->start();
    }
  }

  SchedulerServiceParams p;
  p.policy = policy;
  SchedulerService sched{grid, p};
  for (auto* h : hosts) sched.add_worker_host(*h, testbed::paper_image());
  grid.run_for(sim::Duration::seconds(30));  // sensors warm up

  // Jobs arrive spread out (every ~40 s), so the farm is rarely
  // saturated and the placement decision — not queueing — dominates the
  // response time.
  sim::Accumulator response;
  const auto t0 = grid.now();
  double last_done = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    grid.simulation().schedule_after(sim::Duration::seconds(40.0 * i), [&, i] {
      auto spec = workload::micro_test_task(90.0);
      spec.name = "job-" + std::to_string(i);
      sched.submit("lab", std::move(spec), [&](BatchJobResult r) {
        response.add(r.total.to_seconds());
        last_done = (grid.now() - t0).to_seconds();
      });
    });
  }
  grid.run();
  Outcome out;
  out.mean_response_s = response.mean();
  out.p_max_response_s = response.max();
  out.makespan_s = last_done;
  return out;
}

struct Results {
  Outcome random, least_loaded, predicted;
};

Results& results() {
  static Results r = [] {
    Results out;
    out.random = run_policy(PlacementPolicy::kRandom, 301);
    out.least_loaded = run_policy(PlacementPolicy::kLeastLoaded, 301);
    out.predicted = run_policy(PlacementPolicy::kPredictedRuntime, 301);
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XSCHED2: placement policies, 24 x 90s jobs on a 4-host farm (bg load 0/.4/1/1.7)");
  std::printf("%-20s %16s %16s %14s\n", "policy", "mean response(s)", "max response(s)",
              "makespan(s)");
  auto row = [](const char* name, const Outcome& o) {
    std::printf("%-20s %16.1f %16.1f %14.1f\n", name, o.mean_response_s,
                o.p_max_response_s, o.makespan_s);
  };
  row("random", r.random);
  row("least-loaded", r.least_loaded);
  row("predicted-runtime", r.predicted);

  std::printf("\nShape checks:\n");
  bench::print_shape_check("load awareness beats random placement (mean response)",
                           r.least_loaded.mean_response_s < r.random.mean_response_s);
  bench::print_shape_check(
      "RPS prediction matches or beats least-loaded (mean response, within 5%)",
      r.predicted.mean_response_s < r.least_loaded.mean_response_s * 1.05);
  bench::print_shape_check(
      "prediction cuts the worst-case response vs random by >15% (no job lands on "
      "the overloaded host)",
      r.predicted.p_max_response_s < r.random.p_max_response_s * 0.85);

  bench::JsonReporter report{"job_placement"};
  report.set_unit("seconds");
  auto add = [&](const char* name, const Outcome& o) {
    report.add_sample(name, o.mean_response_s);
    report.add_field(name, "max_response_s", o.p_max_response_s);
    report.add_field(name, "makespan_s", o.makespan_s);
  };
  add("random", r.random);
  add("least-loaded", r.least_loaded);
  add("predicted-runtime", r.predicted);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
