// XSCHED (DESIGN.md): §3.2's resource-control claim — compile owner
// constraints into schedules and compare the mechanisms the paper lists
// (real-time reservations, lottery, WFQ, priority, SIGSTOP/SIGCONT duty
// cycling) at holding a greedy guest VM to a 25% CPU target while the
// owner's interactive work stays protected.
//
// Besides the achieved long-run share, the bench reports short-window
// jitter: the duty-cycle mechanism hits the average but is coarse —
// exactly the qualification the paper attaches to it.

#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "middleware/schedule_compiler.hpp"
#include "middleware/testbed.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

struct Mechanism {
  const char* name;
  const char* policy;  // guest entity is "guest", owner entity "owner"
};

// Target: guest held to ~25% of ONE cpu on a dual-CPU host whose other
// capacity is contested by the owner's (infinite) workload + one batch job.
const std::vector<Mechanism>& mechanisms() {
  static const std::vector<Mechanism> ms{
      {"rt reservation", R"(policy { scheduler rt;
         rt guest slice=5ms period=20ms; cap guest 0.25;
         reserve owner 1.0; weight owner 8; weight guest 0.01; })"},
      {"lottery tickets", R"(policy { scheduler lottery;
         shares guest 100; shares owner 300; cap guest 0.25; })"},
      {"wfq weights", R"(policy { scheduler wfq;
         weight guest 1; weight owner 3; cap guest 0.25; })"},
      {"priority (nice 19)", R"(policy { scheduler priority;
         nice guest 19; nice owner 0; cap guest 0.25; })"},
      {"sigstop duty cycle", R"(policy { scheduler fair;
         dutycycle guest 0.25 period=4s; weight owner 1; weight guest 1; })"},
  };
  return ms;
}

struct Outcome {
  double guest_share{0.0};   // long-run fraction of one CPU
  double owner_share{0.0};
  double jitter{0.0};        // std-dev of guest share over 5 s windows
};

Outcome run_mechanism(const Mechanism& m, std::uint64_t seed) {
  Grid grid{seed};
  auto& cs = grid.add_compute_server(testbed::paper_compute("ctl", testbed::fig1_host()));
  auto& engine = cs.host().cpu();

  const auto parsed = parse_policy(m.policy);
  if (!parsed.ok()) {
    std::fprintf(stderr, "policy error in '%s': %s\n", m.name,
                 parsed.errors[0].message.c_str());
    std::abort();
  }
  ScheduleEnforcer enforcer{grid.simulation(), engine,
                            compile_policy(*parsed.policy, cs.host().params().ncpus)};

  // The greedy guest: saturating demand.
  auto guest = engine.add("guest", {}, host::CpuEngine::kInfiniteWork);
  enforcer.bind("guest", guest);
  // The owner's interactive process wants ~1 CPU; a batch job takes the rest.
  auto owner = engine.add("owner", {}, host::CpuEngine::kInfiniteWork);
  enforcer.bind("owner", owner);
  engine.add("batch", {}, host::CpuEngine::kInfiniteWork);

  // Sample guest usage in 5-second windows over 10 minutes.
  sim::Accumulator windows;
  double last_guest = 0.0;
  const double window_s = 5.0;
  for (int w = 0; w < 120; ++w) {
    grid.run_for(sim::Duration::seconds(window_s));
    const double now_guest = engine.cpu_time_used(guest);
    windows.add((now_guest - last_guest) / window_s);
    last_guest = now_guest;
  }
  Outcome out;
  const double total_s = 120 * window_s;
  out.guest_share = engine.cpu_time_used(guest) / total_s;
  out.owner_share = engine.cpu_time_used(owner) / total_s;
  out.jitter = windows.stddev();
  return out;
}

std::vector<Outcome>& results() {
  static std::vector<Outcome> r = [] {
    std::vector<Outcome> out;
    for (const auto& m : mechanisms()) out.push_back(run_mechanism(m, 31));
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XSCHED: owner-constraint enforcement — hold greedy guest VM to 25% of a CPU");
  std::printf("%-22s %12s %12s %14s %12s\n", "mechanism", "guest share", "error",
              "5s-window std", "owner share");
  for (std::size_t i = 0; i < r.size(); ++i) {
    std::printf("%-22s %11.1f%% %11.1f%% %14.3f %11.1f%%\n", mechanisms()[i].name,
                r[i].guest_share * 100.0, (r[i].guest_share - 0.25) * 100.0,
                r[i].jitter, r[i].owner_share * 100.0);
  }

  std::printf("\nShape checks:\n");
  bool fine_grained_close = true, owners_safe = true;
  for (std::size_t i = 0; i < 3; ++i) {
    fine_grained_close = fine_grained_close && std::abs(r[i].guest_share - 0.25) < 0.02;
  }
  for (const auto& o : r) owners_safe = owners_safe && o.owner_share > 0.55;
  bench::print_shape_check(
      "fine-grained mechanisms (rt/lottery/wfq) hit the 25% target exactly",
      fine_grained_close);
  bench::print_shape_check("strict priority starves the guest below the target",
                           r[3].guest_share < 0.25);
  bench::print_shape_check("owner's interactive work keeps the bulk of a CPU everywhere",
                           owners_safe);
  bench::print_shape_check(
      "SIGSTOP/SIGCONT approximates the target but is biased under contention "
      "(the paper's 'coarse-grain' caveat)",
      r[4].guest_share > 0.10 && r[4].guest_share < 0.25);
  bench::print_shape_check(
      "...and shows the worst short-window jitter of all mechanisms",
      r[4].jitter > 2.0 * std::max({r[0].jitter, r[1].jitter, r[2].jitter}));

  bench::JsonReporter report{"resource_control"};
  report.set_unit("cpu_share");
  for (std::size_t i = 0; i < r.size(); ++i) {
    const std::string name = mechanisms()[i].name;
    report.add_sample(name, r[i].guest_share);
    report.add_field(name, "owner_share", r[i].owner_share);
    report.add_field(name, "jitter", r[i].jitter);
    report.add_field(name, "target", 0.25);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
