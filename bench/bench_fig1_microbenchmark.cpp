// Reproduces Figure 1 of "A Case for Grid Computing on Virtual Machines"
// (ICDCS'03): slowdown of a CPU-bound synthetic test task under
// {none, light, heavy} background load, for all four placements of
// {test task, load} on {physical machine, virtual machine}. 1000 samples
// per scenario; mean +/- one standard deviation, as in the paper.
//
// Background load is synthetic-trace playback (the paper replayed PSC
// Alpha-cluster host-load traces; see DESIGN.md for the substitution).

#include <array>
#include <functional>

#include "bench_common.hpp"
#include "host/trace_playback.hpp"
#include "middleware/testbed.hpp"
#include "sim/replication.hpp"
#include "vm/task_runner.hpp"
#include "workload/spec_benchmarks.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

enum class LoadKind { kNone, kLight, kHeavy };
enum class Where { kPhysical, kVm };

struct Scenario {
  LoadKind load;
  Where test;
  Where load_loc;
  const char* label;
};

// All 4 placements x 3 load kinds, in the paper's presentation order.
constexpr std::array<Scenario, 12> kScenarios{{
    {LoadKind::kNone, Where::kPhysical, Where::kPhysical, "none  / test:P load:P"},
    {LoadKind::kNone, Where::kPhysical, Where::kVm, "none  / test:P load:V"},
    {LoadKind::kNone, Where::kVm, Where::kPhysical, "none  / test:V load:P"},
    {LoadKind::kNone, Where::kVm, Where::kVm, "none  / test:V load:V"},
    {LoadKind::kLight, Where::kPhysical, Where::kPhysical, "light / test:P load:P"},
    {LoadKind::kLight, Where::kPhysical, Where::kVm, "light / test:P load:V"},
    {LoadKind::kLight, Where::kVm, Where::kPhysical, "light / test:V load:P"},
    {LoadKind::kLight, Where::kVm, Where::kVm, "light / test:V load:V"},
    {LoadKind::kHeavy, Where::kPhysical, Where::kPhysical, "heavy / test:P load:P"},
    {LoadKind::kHeavy, Where::kPhysical, Where::kVm, "heavy / test:P load:V"},
    {LoadKind::kHeavy, Where::kVm, Where::kPhysical, "heavy / test:V load:P"},
    {LoadKind::kHeavy, Where::kVm, Where::kVm, "heavy / test:V load:V"},
}};

constexpr int kSamples = 1000;

host::LoadTraceParams light_params() {
  host::LoadTraceParams p;
  p.mean = 0.22;
  p.noise_sd = 0.05;
  p.burst_prob = 0.008;
  p.burst_scale = 2.0;
  return p;
}

host::LoadTraceParams heavy_params() {
  host::LoadTraceParams p;
  p.mean = 0.80;
  p.noise_sd = 0.12;
  p.burst_prob = 0.02;
  p.burst_scale = 1.2;
  return p;
}

vmgrid::bench::SampleSet run_scenario(const Scenario& sc, std::uint64_t seed) {
  Grid grid{seed};
  auto& sim = grid.simulation();
  auto& cs = grid.add_compute_server(testbed::paper_compute("fig1", testbed::fig1_host()));
  cs.preload_image(testbed::paper_image());

  const auto spec = workload::micro_test_task(3.0);
  const double native = spec.total_native_seconds();

  vm::VirtualMachine* vmachine = nullptr;
  const bool need_vm = sc.test == Where::kVm || sc.load_loc == Where::kVm;
  if (need_vm) {
    InstantiateOptions opts;
    opts.config = testbed::paper_vm("fig1-vm");
    opts.image = testbed::paper_image();
    opts.mode = VmStartMode::kWarmRestore;
    opts.access = StateAccess::kNonPersistentLocal;
    cs.instantiate(opts, [&](vm::VirtualMachine* v, InstantiationStats) { vmachine = v; });
    grid.run();
  }

  std::unique_ptr<host::TracePlayback> host_load;
  if (sc.load != LoadKind::kNone) {
    const auto params = sc.load == LoadKind::kLight ? light_params() : heavy_params();
    auto trace = host::LoadTrace::generate(sim.rng(), sim::Duration::minutes(90), params);
    if (sc.load_loc == Where::kVm) {
      vmachine->play_load(std::move(trace));
    } else {
      host_load = std::make_unique<host::TracePlayback>(sim, cs.host().cpu(),
                                                        std::move(trace));
      host_load->start();
    }
  }

  vmgrid::bench::SampleSet slowdown;
  int completed = 0;
  std::function<void()> next_sample = [&] {
    if (completed >= kSamples) {
      sim.stop();
      return;
    }
    auto on_done = [&](vm::TaskResult r) {
      slowdown.add(r.wall.to_seconds() / native);
      ++completed;
      // Decorrelate sample starts from trace epoch boundaries.
      sim.schedule_after(sim::Duration::seconds(sim.rng().uniform(0.05, 0.35)),
                         next_sample);
    };
    if (sc.test == Where::kVm) {
      vmachine->run_task(spec, on_done);
    } else {
      vm::run_task(sim, cs.host().cpu(), spec, {}, on_done);
    }
  };
  next_sample();
  sim.run();
  return slowdown;
}

std::array<bench::SampleSet, kScenarios.size()>& results() {
  // One replica per scenario, fanned across the pool: each scenario is a
  // pure function of its seed, and results return in scenario order, so
  // the sweep statistics are byte-identical for every VMGRID_JOBS value
  // (and identical to the historical serial sweep). At 4 jobs the claim
  // order hands each thread one {none, light, heavy} triple, which is
  // close to perfectly balanced because the heavy scenarios dominate.
  static std::array<bench::SampleSet, kScenarios.size()> acc = [] {
    sim::ReplicationRunner pool;
    auto replicas = pool.map(kScenarios.size(), [](std::size_t i) {
      return run_scenario(kScenarios[i], 7000 + i);
    });
    std::array<bench::SampleSet, kScenarios.size()> a;
    for (std::size_t i = 0; i < replicas.size(); ++i) a[i] = std::move(replicas[i]);
    return a;
  }();
  return acc;
}

void print_figure() {
  auto& acc = results();
  bench::print_header(
      "Figure 1 reproduction: microbenchmark slowdown (1000 samples per scenario)");
  std::printf("%-26s %10s %8s %8s %8s\n", "scenario", "mean", "std", "min", "max");
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    std::printf("%-26s %10.4f %8.4f %8.4f %8.4f\n", kScenarios[i].label, acc[i].mean(),
                acc[i].stddev(), acc[i].min(), acc[i].max());
  }
  std::printf("\nASCII rendering (mean slowdown, '#' = 0.01 above 1.0):\n");
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    const int ticks = static_cast<int>((acc[i].mean() - 1.0) * 100.0 + 0.5);
    std::printf("%-26s |%s\n", kScenarios[i].label,
                std::string(static_cast<std::size_t>(std::max(0, ticks)), '#').c_str());
  }

  std::printf("\nShape checks (paper's qualitative findings):\n");
  const auto mean = [&](std::size_t i) { return acc[i].mean(); };
  bool all_low = true;
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    all_low = all_low && mean(i) <= 1.10;
  }
  bench::print_shape_check(
      "test task sees <=10% typical slowdown in every scenario (headline)", all_low);
  bench::print_shape_check("unloaded physical run defines the baseline (mean ~1.0)",
                           std::abs(mean(0) - 1.0) < 0.005);
  bench::print_shape_check("virtualization alone costs a few percent (test:V, none)",
                           mean(2) > 1.005 && mean(2) < 1.06);
  bench::print_shape_check(
      "dual CPUs absorb background load on the physical path (test:P)",
      mean(4) < 1.02 && mean(8) < 1.06),
  bench::print_shape_check(
      "world switches: load beside the VM raises VM-task slowdown with load level",
      mean(10) > mean(6) && mean(6) > mean(2) - 0.002);
  bench::print_shape_check(
      "trapped guest context switches: in-VM load slows the in-VM test task most",
      mean(11) >= mean(10) - 0.01);

  bench::JsonReporter report{"fig1_microbenchmark"};
  report.set_unit("slowdown");
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    report.add_samples(kScenarios[i].label, acc[i]);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_figure();
  return vmgrid::bench::shape_exit_code();
}
