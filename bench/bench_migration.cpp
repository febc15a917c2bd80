// XMIG (DESIGN.md): §2.2/§3.1 — "a running virtual machine can be
// suspended and resumed, providing a mechanism to migrate a running
// machine from resource to resource". The bench sweeps VM memory size
// and network class for both the paper's suspend/resume (stop-and-copy)
// migration and the iterative pre-copy extension, reporting downtime and
// total migration time while a task keeps running in the guest.

#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "middleware/testbed.hpp"
#include "vm/migration.hpp"
#include "workload/spec_benchmarks.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

struct Case {
  std::uint64_t memory_mb;
  bool wan;
  bool precopy;
};

struct Outcome {
  double total_s{0.0};
  double downtime_s{0.0};
  double mb_moved{0.0};
  bool task_survived{false};
};

Outcome run_case(const Case& c, std::uint64_t seed) {
  Grid grid{seed};
  auto& src = grid.add_compute_server(testbed::paper_compute("src", testbed::fig1_host()));
  auto& dst = grid.add_compute_server(testbed::paper_compute("dst", testbed::fig1_host()));
  grid.connect(src.node(), dst.node(), c.wan ? Grid::wan_link() : Grid::lan_link());
  auto image = testbed::paper_image();
  image.memory_state_bytes = c.memory_mb << 20;
  src.preload_image(image);
  dst.preload_image(image);

  InstantiateOptions opts;
  opts.config = testbed::paper_vm("mig-vm");
  opts.config.memory_mb = c.memory_mb;
  opts.image = image;
  opts.mode = VmStartMode::kWarmRestore;
  opts.access = StateAccess::kNonPersistentLocal;

  Outcome out;
  vm::VirtualMachine* vmachine = nullptr;
  src.instantiate(opts, [&](vm::VirtualMachine* v, InstantiationStats) { vmachine = v; });
  grid.run();
  if (vmachine == nullptr) return out;

  std::optional<vm::TaskResult> task_result;
  vmachine->run_task(workload::micro_test_task(300.0),
                     [&](vm::TaskResult r) { task_result = std::move(r); });
  grid.run_for(sim::Duration::seconds(30));

  dst.prepare_storage(opts, [&](Status st, vm::VmStorage storage) {
    if (!st.ok()) return;
    vm::MigrationParams params;
    params.precopy = c.precopy;
    params.dirty_rate_bps = 2e6;
    vm::migrate(*vmachine, dst.vmm(), std::move(storage), params,
                [&](vm::MigrationStats stats, vm::VirtualMachine*) {
                  out.total_s = stats.total.to_seconds();
                  out.downtime_s = stats.downtime.to_seconds();
                  out.mb_moved = static_cast<double>(stats.bytes_transferred) / (1 << 20);
                });
  });
  grid.run();
  out.task_survived = task_result.has_value() && task_result->ok();
  return out;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> cs = [] {
    std::vector<Case> out;
    for (std::uint64_t mem : {64ull, 128ull, 256ull, 512ull}) {
      for (bool wan : {false, true}) {
        for (bool precopy : {false, true}) {
          out.push_back(Case{mem, wan, precopy});
        }
      }
    }
    return out;
  }();
  return cs;
}

std::vector<Outcome>& results() {
  static std::vector<Outcome> r = [] {
    std::vector<Outcome> out;
    for (const auto& c : cases()) out.push_back(run_case(c, 57));
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XMIG: live VM migration with a running guest task (dirty rate 2 MB/s)");
  std::printf("%-8s %-5s %-14s %10s %12s %10s %10s\n", "memory", "link", "mode",
              "total (s)", "downtime (s)", "MB moved", "task ok");
  for (std::size_t i = 0; i < cases().size(); ++i) {
    const auto& c = cases()[i];
    std::printf("%5lluMB %-5s %-14s %10.1f %12.2f %10.1f %10s\n",
                static_cast<unsigned long long>(c.memory_mb), c.wan ? "WAN" : "LAN",
                c.precopy ? "pre-copy" : "stop-and-copy", r[i].total_s, r[i].downtime_s,
                r[i].mb_moved, r[i].task_survived ? "yes" : "NO");
  }

  std::printf("\nShape checks:\n");
  auto idx = [&](std::uint64_t mem, bool wan, bool pre) {
    for (std::size_t i = 0; i < cases().size(); ++i) {
      if (cases()[i].memory_mb == mem && cases()[i].wan == wan &&
          cases()[i].precopy == pre) {
        return i;
      }
    }
    return std::size_t{0};
  };
  bool all_survived = true;
  for (const auto& o : r) all_survived = all_survived && o.task_survived;
  bench::print_shape_check("the running computation survives every migration",
                           all_survived);
  bench::print_shape_check(
      "stop-and-copy downtime scales ~linearly with memory (512MB ~= 4x 128MB, LAN)",
      r[idx(512, false, false)].downtime_s > 3.0 * r[idx(128, false, false)].downtime_s);
  bench::print_shape_check(
      "pre-copy cuts downtime by >5x on the LAN at every size",
      r[idx(128, false, true)].downtime_s * 5 < r[idx(128, false, false)].downtime_s &&
          r[idx(512, false, true)].downtime_s * 5 < r[idx(512, false, false)].downtime_s);
  bench::print_shape_check(
      "pre-copy moves more bytes than stop-and-copy (the classic trade)",
      r[idx(256, false, true)].mb_moved > r[idx(256, false, false)].mb_moved);
  bench::print_shape_check(
      "WAN migration is dominated by the pipe (512MB WAN total > 3 min)",
      r[idx(512, true, false)].total_s > 180.0);

  bench::JsonReporter report{"migration"};
  report.set_unit("seconds");
  for (std::size_t i = 0; i < cases().size(); ++i) {
    const auto& c = cases()[i];
    const std::string name = std::to_string(c.memory_mb) + "MB/" +
                             (c.wan ? "wan" : "lan") + "/" +
                             (c.precopy ? "precopy" : "stop-and-copy");
    report.add_sample(name, r[i].total_s);
    report.add_field(name, "downtime_s", r[i].downtime_s);
    report.add_field(name, "mb_moved", r[i].mb_moved);
    report.add_field(name, "task_survived", r[i].task_survived ? 1.0 : 0.0);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
