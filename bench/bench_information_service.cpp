// XINFO (DESIGN.md): §3.2's information-service model — relational
// queries with joins that are "non-deterministic and return partial
// results in a bounded amount of time". The bench sweeps registry size
// against the time bound and reports recall (fraction of matching
// records returned) and query latency, plus the futures x images join.

#include <vector>

#include "bench_common.hpp"
#include "middleware/information_service.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

struct Cell {
  std::size_t registry_size;
  sim::Duration bound;
  double recall{0.0};
  double latency_ms{0.0};
};

void populate(InformationService& info, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    HostRecord h;
    h.name = "host-" + std::to_string(i);
    h.ncpus = (i % 4) + 1;
    h.memory_mb = 256u << (i % 4);
    h.free_memory_mb = h.memory_mb / 2;
    h.os = i % 3 == 0 ? "redhat-7.2" : "redhat-7.1";
    info.register_host(std::move(h));
  }
}

Cell run_cell(std::size_t n, sim::Duration bound) {
  sim::Simulation sim{91};
  InformationService info{sim};
  populate(info, n);
  // Predicate matches every third record.
  const auto matching = (n + 2) / 3;
  QueryOptions opts;
  opts.time_bound = bound;
  opts.max_results = n;
  Cell cell{n, bound, 0.0, 0.0};
  const auto t0 = sim.now();
  info.query_hosts([](const HostRecord& h) { return h.os == "redhat-7.2"; }, opts,
                   [&](std::vector<HostRecord> out) {
                     cell.recall = static_cast<double>(out.size()) /
                                   static_cast<double>(matching);
                     cell.latency_ms = (sim.now() - t0).to_millis();
                   });
  sim.run();
  return cell;
}

std::vector<Cell>& results() {
  static std::vector<Cell> r = [] {
    std::vector<Cell> out;
    for (std::size_t n : {100u, 1000u, 10000u}) {
      for (auto bound : {sim::Duration::millis(1), sim::Duration::millis(10),
                         sim::Duration::millis(100), sim::Duration::millis(1000)}) {
        out.push_back(run_cell(n, bound));
      }
    }
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header(
      "XINFO: bounded nondeterministic queries (predicate matches 1/3 of records)");
  std::printf("%12s %12s %10s %14s\n", "registry", "bound (ms)", "recall", "latency (ms)");
  for (const auto& c : r) {
    std::printf("%12zu %12.0f %9.1f%% %14.2f\n", c.registry_size, c.bound.to_millis(),
                c.recall * 100.0, c.latency_ms);
  }

  // Join demo: futures with capacity x images with snapshots.
  sim::Simulation sim{92};
  InformationService info{sim};
  for (int i = 0; i < 64; ++i) {
    VmFutureRecord f;
    f.host_name = "h" + std::to_string(i);
    f.max_instances = 4;
    f.active_instances = i % 5;  // some saturated
    f.max_memory_mb = 512;
    info.register_future(f);
    ImageRecord img;
    img.name = "img" + std::to_string(i);
    img.os = i % 2 == 0 ? "redhat-7.2" : "debian-3.0";
    img.has_memory_snapshot = i % 4 != 0;
    info.register_image(img);
  }
  QueryOptions jopts;
  jopts.time_bound = sim::Duration::millis(50);
  jopts.max_results = 8;
  std::size_t join_pairs = 0;
  double join_ms = 0.0;
  const auto t0 = sim.now();
  info.query_placements(
      [](const VmFutureRecord& f) { return f.max_memory_mb >= 128; },
      [](const ImageRecord& i) { return i.os == "redhat-7.2" && i.has_memory_snapshot; },
      jopts, [&](std::vector<Placement> p) {
        join_pairs = p.size();
        join_ms = (sim.now() - t0).to_millis();
      });
  sim.run();
  std::printf("\nfutures x images join (64+64 rows, bound 50ms, max 8 each side): "
              "%zu pairs in %.2f ms\n", join_pairs, join_ms);

  std::printf("\nShape checks:\n");
  const auto& tight_big = r[8];    // 10000 records, 1ms bound
  const auto& loose_big = r[11];   // 10000 records, 1000ms bound
  const auto& loose_small = r[3];  // 100 records, 1000ms bound
  bench::print_shape_check("a tight bound on a big registry yields partial results",
                           tight_big.recall < 0.05);
  bench::print_shape_check("latency never exceeds the bound (bounded-time contract)",
                           tight_big.latency_ms <= 1.05);
  bench::print_shape_check("a generous bound reaches full recall on small registries",
                           loose_small.recall >= 0.999);
  bench::print_shape_check("recall grows with the bound at fixed registry size",
                           loose_big.recall > tight_big.recall * 10.0);
  bench::print_shape_check("the join returns usable placements within its bound",
                           join_pairs > 0 && join_ms <= 55.0);

  bench::JsonReporter report{"information_service"};
  report.set_unit("milliseconds");
  for (const auto& c : r) {
    const std::string name = std::to_string(c.registry_size) + "rec/" +
                             std::to_string(static_cast<long long>(c.bound.to_millis())) +
                             "ms";
    report.add_sample(name, c.latency_ms);
    report.add_field(name, "recall", c.recall);
  }
  report.add_sample("join/64x64", join_ms);
  report.add_field("join/64x64", "pairs", static_cast<double>(join_pairs));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
