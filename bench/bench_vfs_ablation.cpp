// XVFS2: ablation of the grid-VFS design knobs DESIGN.md calls out —
// prefetch window, NFS request window (biods), and client cache size —
// on a wide-area sequential read of a VM-image working set. Shows which
// mechanism buys what on the paper's UFL<->NWU-class path.

#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "middleware/testbed.hpp"
#include "sim/replication.hpp"
#include "storage/nfs_client.hpp"
#include "vfs/grid_vfs.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;
using storage::kBlockSize;

constexpr std::uint64_t kWorkingSet = 32ull << 20;  // 32 MiB sequential

struct Config {
  const char* label;
  std::uint32_t prefetch;
  std::size_t window;
  std::size_t cache_blocks;
};

const std::vector<Config>& configs() {
  static const std::vector<Config> cs{
      {"no prefetch, window 1", 0, 1, 16384},
      {"no prefetch, window 8", 0, 8, 16384},
      {"prefetch 8, window 8", 8, 8, 16384},
      {"prefetch 32, window 8", 32, 8, 16384},
      {"prefetch 32, window 16", 32, 16, 16384},
      {"tiny cache (1MB), prefetch 8", 8, 8, 128},
  };
  return cs;
}

struct Outcome {
  double cold_s{0.0};
  double warm_s{0.0};
  std::uint64_t rpcs{0};
};

Outcome run_config(const Config& c, std::uint64_t seed) {
  testbed::WideAreaTestbed tb{seed};
  auto& g = *tb.grid;
  tb.images->fs().create("ws", kWorkingSet);

  vfs::VfsMountOptions mopts;
  mopts.nfs.window = c.window;
  mopts.proxy.prefetch_blocks = c.prefetch;
  mopts.proxy.cache_blocks = c.cache_blocks;
  auto& mount = g.gvfs().mount(tb.compute->node(), tb.images->node(), mopts);

  // Sequential sweep in 64 KiB application reads, paced like a guest
  // reading its image.
  auto sweep = [&](double* out_s) {
    const std::uint64_t chunk = 64 << 10;
    auto done = std::make_shared<bool>(false);
    auto cursor = std::make_shared<std::uint64_t>(0);
    const auto t0 = g.now();
    auto step = std::make_shared<std::function<void()>>();
    *step = [&, done, cursor, step, t0, out_s] {
      if (*cursor >= kWorkingSet) {
        *out_s = (g.now() - t0).to_seconds();
        *done = true;
        return;
      }
      mount.proxy().read("ws", *cursor, chunk, [&, done, cursor, step, t0, out_s](
                                                   vfs::VfsIoStats) {
        *cursor += chunk;
        (*step)();
      });
    };
    (*step)();
    g.run();
  };

  Outcome out;
  sweep(&out.cold_s);
  out.rpcs = mount.nfs().rpcs_issued();
  sweep(&out.warm_s);
  return out;
}

std::vector<Outcome>& results() {
  // Each configuration is an independent testbed run; fan them across the
  // replication pool. Results return in config order, so the ablation
  // table is byte-identical for every VMGRID_JOBS value.
  static std::vector<Outcome> r = [] {
    sim::ReplicationRunner pool;
    return pool.map(configs().size(),
                    [](std::size_t i) { return run_config(configs()[i], 601); });
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XVFS2: proxy ablation — 32 MiB sequential working set over the WAN");
  std::printf("%-30s %12s %12s %10s\n", "configuration", "cold (s)", "warm (s)", "RPCs");
  for (std::size_t i = 0; i < configs().size(); ++i) {
    std::printf("%-30s %12.1f %12.3f %10llu\n", configs()[i].label, r[i].cold_s,
                r[i].warm_s, static_cast<unsigned long long>(r[i].rpcs));
  }

  std::printf("\nShape checks:\n");
  bench::print_shape_check("widening the RPC window pipelines the WAN (>2x over window 1)",
                           r[1].cold_s * 2.0 < r[0].cold_s);
  bench::print_shape_check("prefetch hides latency on top of the window (>25% further)",
                           r[2].cold_s < r[1].cold_s * 0.75);
  bench::print_shape_check("a deeper readahead helps again (prefetch 32 vs 8)",
                           r[3].cold_s < r[2].cold_s);
  bench::print_shape_check("warm reads are served locally (100x faster than cold)",
                           r[2].warm_s * 100.0 < r[2].cold_s);
  bench::print_shape_check("a too-small cache loses the warm-read benefit",
                           r[5].warm_s > r[2].warm_s * 10.0);

  bench::JsonReporter report{"vfs_ablation"};
  report.set_unit("seconds");
  for (std::size_t i = 0; i < configs().size(); ++i) {
    const std::string name = configs()[i].label;
    report.add_sample(name + " / cold", r[i].cold_s);
    report.add_field(name + " / cold", "rpcs", static_cast<double>(r[i].rpcs));
    report.add_sample(name + " / warm", r[i].warm_s);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
