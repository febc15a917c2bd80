// XCONS: §2.2 "multiple independent OSes can co-exist in the same server
// hardware" — consolidation density and its cost. Instantiates an
// increasing number of VMs on one host and measures (a) how many fit
// (memory admission), (b) aggregate and per-VM throughput of concurrent
// guest tasks, and (c) the related-work contrast: classic heavyweight
// VMs vs a Denali-style lightweight profile (tiny footprint and boot
// time, bought with guest-OS modification — no legacy support).

#include <vector>

#include "bench_common.hpp"
#include "middleware/testbed.hpp"
#include "workload/spec_benchmarks.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

/// Denali-style lightweight VM image: a purpose-built guest that boots in
/// ~1 s from a tiny image, but cannot run unmodified legacy OSes.
vm::VmImageSpec lightweight_image() {
  vm::VmImageSpec spec;
  spec.name = "denali-svc";
  spec.os = "denali-libos";
  spec.disk_bytes = 16ull << 20;
  spec.memory_state_bytes = 0;  // no snapshot needed; cold boot is cheap
  spec.boot_read_bytes = 1ull << 20;
  spec.boot_cpu_seconds = 0.8;
  spec.boot_fixed_seconds = 0.3;
  spec.device_state_bytes = 256ull << 10;
  return spec;
}

struct DensityPoint {
  int vms{0};
  double mean_boot_s{0.0};
  double per_vm_throughput{0.0};  // native cpu-seconds per wall second
  double aggregate_throughput{0.0};
};

DensityPoint run_density(int nvms, bool lightweight, std::uint64_t seed) {
  Grid grid{seed};
  auto params = testbed::paper_compute("big-host", testbed::fig1_host());
  params.host.ncpus = 4;          // a small server, not a desktop
  params.host.memory_mb = 2048;
  params.vmm.max_vms = 64;
  params.vmm.per_vm_overhead_mb = lightweight ? 2 : 32;
  auto& cs = grid.add_compute_server(params);
  const auto image = lightweight ? lightweight_image() : testbed::paper_image();
  cs.preload_image(image);

  DensityPoint point;
  point.vms = nvms;
  sim::Accumulator boots;
  std::vector<vm::VirtualMachine*> vms;
  for (int i = 0; i < nvms; ++i) {
    InstantiateOptions opts;
    opts.config = testbed::paper_vm("vm-" + std::to_string(i));
    opts.config.memory_mb = lightweight ? 8 : 128;
    opts.image = image;
    opts.mode = lightweight ? VmStartMode::kColdBoot : VmStartMode::kWarmRestore;
    opts.access = StateAccess::kNonPersistentLocal;
    cs.instantiate(opts, [&](vm::VirtualMachine* v, InstantiationStats stats) {
      if (v != nullptr) {
        vms.push_back(v);
        boots.add(stats.total.to_seconds());
      }
    });
    grid.run();
  }
  point.mean_boot_s = boots.mean();
  if (vms.empty()) return point;

  // Each VM runs the same CPU-bound task concurrently.
  const double work = 60.0;
  int completed = 0;
  const auto t0 = grid.now();
  double last = 0.0;
  for (auto* v : vms) {
    v->run_task(workload::micro_test_task(work), [&](vm::TaskResult) {
      ++completed;
      last = (grid.now() - t0).to_seconds();
    });
  }
  grid.run();
  const double total_native = work * static_cast<double>(vms.size());
  point.aggregate_throughput = total_native / last;
  point.per_vm_throughput = point.aggregate_throughput / static_cast<double>(vms.size());
  return point;
}

/// How many VMs fit before memory admission control refuses?
int capacity(bool lightweight) {
  Grid grid{7};
  auto params = testbed::paper_compute("big-host", testbed::fig1_host());
  params.host.ncpus = 4;
  params.host.memory_mb = 2048;
  params.vmm.max_vms = 1024;
  params.vmm.per_vm_overhead_mb = lightweight ? 2 : 32;
  auto& cs = grid.add_compute_server(params);
  const auto image = lightweight ? lightweight_image() : testbed::paper_image();
  cs.preload_image(image);
  int n = 0;
  while (true) {
    InstantiateOptions opts;
    opts.config = testbed::paper_vm("cap-" + std::to_string(n));
    opts.config.memory_mb = lightweight ? 8 : 128;
    opts.image = image;
    opts.mode = VmStartMode::kColdBoot;
    opts.access = StateAccess::kNonPersistentLocal;
    bool ok = false;
    cs.instantiate(opts, [&](vm::VirtualMachine* v, InstantiationStats) { ok = v != nullptr; });
    grid.run();
    if (!ok) break;
    ++n;
    if (n > 600) break;  // safety valve
  }
  return n;
}

struct Results {
  std::vector<DensityPoint> classic;
  DensityPoint light8;
  int classic_capacity{0};
  int light_capacity{0};
};

Results& results() {
  static Results r = [] {
    Results out;
    for (int n : {1, 2, 4, 8, 12}) out.classic.push_back(run_density(n, false, 11));
    out.light8 = run_density(8, true, 12);
    out.classic_capacity = capacity(false);
    out.light_capacity = capacity(true);
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XCONS: VM consolidation on one 4-CPU / 2 GiB host (classic heavyweight VMs)");
  std::printf("%6s %14s %18s %20s\n", "VMs", "mean boot (s)", "per-VM thr (cpu/s)",
              "aggregate thr (cpu/s)");
  for (const auto& p : r.classic) {
    std::printf("%6d %14.1f %18.3f %20.2f\n", p.vms, p.mean_boot_s, p.per_vm_throughput,
                p.aggregate_throughput);
  }
  std::printf("\nDenali-style lightweight profile (8 VMs): boot %.1f s, aggregate %.2f"
              " cpu/s\n", r.light8.mean_boot_s, r.light8.aggregate_throughput);
  std::printf("capacity before admission control refuses: classic %d VMs, "
              "lightweight %d VMs\n", r.classic_capacity, r.light_capacity);

  std::printf("\nShape checks:\n");
  bench::print_shape_check(
      "up to #CPUs, per-VM throughput holds (no contention penalty beyond VMM tax)",
      r.classic[2].per_vm_throughput > r.classic[0].per_vm_throughput * 0.9);
  bench::print_shape_check(
      "beyond #CPUs, aggregate throughput saturates near the CPU count",
      r.classic.back().aggregate_throughput < 4.2 &&
          r.classic.back().aggregate_throughput > 3.2);
  bench::print_shape_check(
      "memory, not CPU, caps classic density (~2GB / 160MB ≈ 12 VMs)",
      r.classic_capacity >= 10 && r.classic_capacity <= 16);
  bench::print_shape_check(
      "the lightweight profile starts >5x faster and packs >10x denser "
      "(the Denali trade: no unmodified legacy guests)",
      r.light8.mean_boot_s * 5.0 < r.classic.back().mean_boot_s &&
          r.light_capacity > 10 * r.classic_capacity);

  bench::JsonReporter report{"consolidation"};
  report.set_unit("cpu_seconds_per_wall_second");
  for (const auto& p : r.classic) {
    const std::string name = "classic/" + std::to_string(p.vms) + "vms";
    report.add_sample(name, p.aggregate_throughput);
    report.add_field(name, "mean_boot_s", p.mean_boot_s);
    report.add_field(name, "per_vm_throughput", p.per_vm_throughput);
  }
  report.add_sample("lightweight/8vms", r.light8.aggregate_throughput);
  report.add_field("lightweight/8vms", "mean_boot_s", r.light8.mean_boot_s);
  report.add_field("lightweight/8vms", "per_vm_throughput", r.light8.per_vm_throughput);
  report.add_field("lightweight/8vms", "capacity", static_cast<double>(r.light_capacity));
  report.add_field("classic/12vms", "capacity", static_cast<double>(r.classic_capacity));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
