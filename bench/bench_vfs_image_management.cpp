// XVFS (DESIGN.md): §3.1's image-management claims, quantified.
//  (a) Whole-state staging (GridFTP) moves the entire 2 GiB image before
//      the VM can start; on-demand grid-VFS access moves only the working
//      set ("the transfer of entire VM states can lead to unnecessary
//      traffic due to the copying of unused data").
//  (b) Read-only sharing: the host-level second-level image cache lets a
//      second VM instance of the same image start with almost no WAN
//      traffic.

#include <optional>

#include "bench_common.hpp"
#include "middleware/testbed.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

struct Outcome {
  double seconds{0.0};
  double wan_mb{0.0};
};

std::uint64_t wan_bytes(testbed::WideAreaTestbed& tb) {
  return tb.grid->network().link_bytes(tb.ufl_router, tb.nwu_router);
}

/// (a1) Stage the whole image with GridFTP, then cold-boot from local disk.
Outcome run_staged(std::uint64_t seed) {
  testbed::WideAreaTestbed tb{seed};
  auto& g = *tb.grid;
  Outcome out;
  const auto t0 = g.now();
  tb.compute->stage_image(tb.images->fs(), tb.images->node(), testbed::paper_image(),
                          [&](Status st) {
                            if (!st.ok()) return;
                            InstantiateOptions opts;
                            opts.config = testbed::paper_vm("staged-vm");
                            opts.image = testbed::paper_image();
                            opts.mode = VmStartMode::kColdBoot;
                            opts.access = StateAccess::kNonPersistentLocal;
                            tb.compute->instantiate(
                                opts, [&](vm::VirtualMachine* v, InstantiationStats) {
                                  if (v != nullptr) out.seconds = (g.now() - t0).to_seconds();
                                });
                          });
  g.run();
  out.wan_mb = static_cast<double>(wan_bytes(tb)) / (1 << 20);
  return out;
}

/// (a2) On-demand: boot straight through the grid VFS across the WAN.
Outcome run_on_demand(std::uint64_t seed, int instances) {
  testbed::WideAreaTestbed tb{seed};
  auto& g = *tb.grid;
  Outcome out;
  const auto t0 = g.now();
  int remaining = instances;
  // Boot instances back to back; the measurement covers all of them.
  std::function<void(int)> boot_next = [&](int i) {
    InstantiateOptions opts;
    opts.config = testbed::paper_vm("vfs-vm-" + std::to_string(i));
    opts.image = testbed::paper_image();
    opts.mode = VmStartMode::kColdBoot;
    opts.access = StateAccess::kNonPersistentVfs;
    opts.image_server_node = tb.images->node();
    tb.compute->instantiate(opts, [&, i](vm::VirtualMachine* v, InstantiationStats) {
      if (v == nullptr) return;
      if (--remaining == 0) {
        out.seconds = (g.now() - t0).to_seconds();
      } else {
        boot_next(i + 1);
      }
    });
  };
  boot_next(0);
  g.run();
  out.wan_mb = static_cast<double>(wan_bytes(tb)) / (1 << 20);
  return out;
}

struct Results {
  Outcome staged;
  Outcome on_demand_one;
  Outcome on_demand_two;
};

Results& results() {
  static Results r = [] {
    Results out;
    out.staged = run_staged(101);
    out.on_demand_one = run_on_demand(102, 1);
    out.on_demand_two = run_on_demand(103, 2);
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header("XVFS: image staging vs on-demand grid-VFS access (2 GiB image, WAN)");
  std::printf("%-44s %14s %14s\n", "strategy", "time-to-VM (s)", "WAN traffic (MB)");
  std::printf("%-44s %14.1f %14.1f\n", "GridFTP whole-image staging + cold boot",
              r.staged.seconds, r.staged.wan_mb);
  std::printf("%-44s %14.1f %14.1f\n", "grid-VFS on-demand, 1 instance (cold cache)",
              r.on_demand_one.seconds, r.on_demand_one.wan_mb);
  std::printf("%-44s %14.1f %14.1f\n", "grid-VFS on-demand, 2 instances (shared L2)",
              r.on_demand_two.seconds, r.on_demand_two.wan_mb);

  std::printf("\nShape checks:\n");
  bench::print_shape_check(
      "on-demand access moves an order of magnitude less data than staging",
      r.on_demand_one.wan_mb * 10.0 < r.staged.wan_mb);
  bench::print_shape_check("on-demand start is several times faster than staged start",
                           r.on_demand_one.seconds * 3.0 < r.staged.seconds);
  bench::print_shape_check(
      "read-only sharing: 2nd instance adds <15% extra WAN traffic (L2 cache hit)",
      r.on_demand_two.wan_mb < r.on_demand_one.wan_mb * 1.15);
  bench::print_shape_check(
      "2nd instance boots faster than the first (cache-warm boot path)",
      r.on_demand_two.seconds < r.on_demand_one.seconds * 1.9);

  bench::JsonReporter report{"vfs_image_management"};
  report.set_unit("seconds");
  auto add = [&](const char* name, const Outcome& o) {
    report.add_sample(name, o.seconds);
    report.add_field(name, "wan_mb", o.wan_mb);
  };
  add("gridftp-staged", r.staged);
  add("on-demand/1-instance", r.on_demand_one);
  add("on-demand/2-instances", r.on_demand_two);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
