// Scale sweep for the fidelity-tier resource models (DESIGN.md §16):
// a zoned grid of {100, 1k, 10k} hosts executes {10k, 100k, 1M} staged
// jobs under both fidelity tiers. The exact tier stages job input as
// 8 KiB protocol blocks hop-by-hop (one kernel event per block per hop);
// the fluid tier carries each transfer as a single max-min flow with one
// completion event. The sweep reports kernel events per job (the
// deterministic cost of each tier), end-to-end job latency, and
// wall-clock throughput, then runs a small fluid-vs-exact ablation that
// re-derives the Fig. 1 / Table 2 shapes under both tiers.
//
// Environment knobs (all optional):
//   VMGRID_FIDELITY            default tier for the rest of the tree
//                              (this bench overrides per instance)
//   VMGRID_SCALE_MAX_HOSTS     largest fluid cell to run (default 10000)
//   VMGRID_SCALE_EXACT_MAX_HOSTS  largest exact cell to run (default 1000)
//
// JSON output holds only simulation-deterministic quantities (latency
// stats, event counts, solver counters), so BENCH_grid_scale.json is
// byte-identical across runs and across VMGRID_JOBS values; wall-clock
// throughput is printed to stdout only.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "host/physical_host.hpp"
#include "host/schedulers.hpp"
#include "model/fidelity.hpp"
#include "model/fluid.hpp"
#include "net/network.hpp"
#include "sim/replication.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"

namespace {

using namespace vmgrid;

// --- workload shape -------------------------------------------------------

constexpr std::uint64_t kInputBytes = 512 * 1024;  // staged job input
constexpr std::uint64_t kBlockBytes = 8 * 1024;    // exact-tier protocol block
constexpr std::uint64_t kResultBytes = 1024;       // result notification
constexpr std::uint64_t kOutputBytes = 64 * 1024;  // local result spool
constexpr double kCpuSeconds = 0.02;               // per-job compute
constexpr int kHostsPerCluster = 32;
constexpr double kArrivalsPerHostPerSec = 2.0;

// Cluster access links are 2003-era thin pipes; the core (frontend and
// uplink hops) is provisioned with headroom, as real grid cores were, so
// contention concentrates on the host links.
net::LinkParams host_link() { return {sim::Duration::micros(200), 12.5e6}; }
net::LinkParams core_link() { return {sim::Duration::millis(2), 1.25e9}; }

storage::DiskParams host_disk() {
  storage::DiskParams p;
  p.seek = sim::Duration::millis(6);
  p.bandwidth_bps = 17.8e6;
  p.cache_hit = sim::Duration::micros(50);
  p.cache_hit_rate = 0.9;
  return p;
}

std::uint64_t env_u64(const char* name, std::uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::strtoull(v, nullptr, 10);
}

// --- one sweep cell -------------------------------------------------------

struct CellResult {
  bench::SampleSet latency;     // per-job end-to-end seconds
  std::uint64_t jobs{0};        // jobs completed
  std::uint64_t events{0};      // kernel events executed by the cell
  std::uint64_t net_solves{0};  // fluid component re-solves (0 in exact)
  std::uint64_t flows{0};       // fluid flows completed (0 in exact)
  double sim_seconds{0.0};
  // stdout only, never serialized: topology construction vs event loop.
  double wall_setup{0.0};
  double wall_run{0.0};
};

/// Runs `hosts` hosts / `jobs` jobs under `tier`. Topology: one WAN root
/// zone whose direct members are per-cluster frontends on fat links;
/// each cluster is a nested zone of kHostsPerCluster hosts on thin
/// member links. Job j runs on cluster j%C, host (j/C)%32: staged input
/// from the cluster's frontend, compute, local spool write, and a result
/// notification back to the frontend.
/// Drives one sweep cell. Per-job state lives in pooled JobCtx records
/// and every callback captures only {this, ctx} — 16 trivially-copyable
/// bytes, inside std::function's small-object buffer — so steady-state
/// job turnover does not allocate. At 1M jobs the callback churn would
/// otherwise dominate the very overhead gap this sweep measures.
class CellDriver {
 public:
  CellDriver(model::Fidelity tier, std::uint64_t hosts, std::uint64_t jobs,
             std::uint64_t seed)
      : tier_{tier}, jobs_{jobs}, sim_{seed}, net_{sim_} {
    net_.set_fidelity(tier);
    const net::ZoneId wan = net_.add_zone("wan", core_link());
    clusters_ = (hosts + kHostsPerCluster - 1) / kHostsPerCluster;
    frontends_.reserve(clusters_);
    fleet_.reserve(hosts);
    for (std::uint64_t c = 0; c < clusters_; ++c) {
      const std::string cname = "cl" + std::to_string(c);
      const net::ZoneId zone = net_.add_zone(cname, wan, core_link(), host_link());
      frontends_.push_back(net_.add_zone_node(wan, cname + ".fe"));
      for (int h = 0; h < kHostsPerCluster && fleet_.size() < hosts; ++h) {
        host::HostParams hp;
        hp.name = cname + "-h" + std::to_string(h);
        hp.ncpus = 2.0;
        hp.disk = host_disk();
        fleet_.push_back(std::make_unique<host::PhysicalHost>(sim_, net_, hp));
        net_.assign_zone(fleet_.back()->node(), zone);
        fleet_.back()->cpu().set_fidelity(tier);
        fleet_.back()->disk().set_fidelity(tier);
      }
    }
    horizon_s_ = static_cast<double>(jobs) /
                 (static_cast<double>(hosts) * kArrivalsPerHostPerSec);
  }

  void run(CellResult& out) {
    out_ = &out;
    // Arrivals chain through one event so the queue never holds more
    // than the in-flight work plus a single future arrival.
    sim_.schedule_at(
        sim::TimePoint::from_seconds(horizon_s_ / static_cast<double>(jobs_)),
        [this] { arrive(); });
    sim_.run();
    out.events = sim_.executed_events();
    out.sim_seconds = sim_.now().to_seconds();
    if (const model::FluidArena* arena = net_.fluid_arena()) {
      out.net_solves = arena->solves();
      out.flows = arena->actions_completed();
    }
  }

 private:
  struct JobCtx {
    host::PhysicalHost* host{nullptr};
    net::NodeId fe{};
    sim::TimePoint start{};
    host::ProcessId pid{};
    std::uint64_t blocks_left{0};  // exact tier's staging countdown
  };

  void arrive() {
    const std::uint64_t j = next_job_++;
    const std::uint64_t c = j % clusters_;
    JobCtx* ctx = acquire();
    ctx->host = fleet_[(c * kHostsPerCluster + (j / clusters_) % kHostsPerCluster) %
                       fleet_.size()]
                    .get();
    ctx->fe = frontends_[c];
    ctx->start = sim_.now();
    if (next_job_ < jobs_) {
      const double t = horizon_s_ * static_cast<double>(next_job_ + 1) /
                       static_cast<double>(jobs_);
      sim_.schedule_at(sim::TimePoint::from_seconds(t), [this] { arrive(); });
    }
    if (tier_ == model::Fidelity::kFluid) {
      net_.send(ctx->fe, ctx->host->node(), kInputBytes,
                [this, ctx](const net::TransferResult&) { input_done(ctx); });
    } else {
      // The staging protocol moves the input as kBlockBytes blocks; the
      // blocks pipeline across the path's store-and-forward hops.
      const std::uint64_t n = (kInputBytes + kBlockBytes - 1) / kBlockBytes;
      ctx->blocks_left = n;
      for (std::uint64_t b = 0; b < n; ++b) {
        const std::uint64_t len = std::min(kBlockBytes, kInputBytes - b * kBlockBytes);
        net_.send(ctx->fe, ctx->host->node(), len,
                  [this, ctx](const net::TransferResult&) {
                    if (--ctx->blocks_left == 0) input_done(ctx);
                  });
      }
    }
  }

  void input_done(JobCtx* ctx) {
    ctx->pid = ctx->host->cpu().add("job", host::SchedAttrs{}, kCpuSeconds,
                                    [this, ctx] { cpu_done(ctx); });
  }

  void cpu_done(JobCtx* ctx) {
    ctx->host->cpu().remove(ctx->pid);
    ctx->host->disk().write(kOutputBytes, [this, ctx] { disk_done(ctx); });
  }

  void disk_done(JobCtx* ctx) {
    net_.send(ctx->host->node(), ctx->fe, kResultBytes,
              [this, ctx](const net::TransferResult&) {
                out_->latency.add((sim_.now() - ctx->start).to_seconds());
                ++out_->jobs;
                release(ctx);
              });
  }

  JobCtx* acquire() {
    if (free_.empty()) {
      pool_.push_back(std::make_unique<JobCtx>());
      return pool_.back().get();
    }
    JobCtx* ctx = free_.back();
    free_.pop_back();
    return ctx;
  }
  void release(JobCtx* ctx) {
    *ctx = JobCtx{};
    free_.push_back(ctx);
  }

  model::Fidelity tier_;
  std::uint64_t jobs_;
  sim::Simulation sim_;
  net::Network net_;
  std::uint64_t clusters_{0};
  double horizon_s_{0.0};
  std::vector<net::NodeId> frontends_;
  std::vector<std::unique_ptr<host::PhysicalHost>> fleet_;
  std::vector<std::unique_ptr<JobCtx>> pool_;
  std::vector<JobCtx*> free_;
  std::uint64_t next_job_{0};
  CellResult* out_{nullptr};
};

CellResult run_cell(model::Fidelity tier, std::uint64_t hosts, std::uint64_t jobs,
                    std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  CellDriver cell{tier, hosts, jobs, seed};
  const auto wall_mid = std::chrono::steady_clock::now();
  CellResult out;
  cell.run(out);
  const auto wall_end = std::chrono::steady_clock::now();
  out.wall_setup = std::chrono::duration<double>(wall_mid - wall_start).count();
  out.wall_run = std::chrono::duration<double>(wall_end - wall_mid).count();
  return out;
}

// --- ablation: Fig. 1 / Table 2 shapes under both tiers -------------------

struct AblationRow {
  double cpu_exact{0.0};       // test-task completion beside i+1 loads, exact
  double cpu_fluid{0.0};       // same scenario, fluid (lazy) tier
  std::uint64_t reuses{0};     // lazy solver reuses observed in the fluid run
  double restore_exact{0.0};   // 128 MiB single-hop state transfer, exact
  double restore_fluid{0.0};   // same transfer as one fluid flow
  double makespan_exact{0.0};  // two concurrent transfers, last completion
  double makespan_fluid{0.0};
};

double cpu_scenario(model::Fidelity tier, int background, std::uint64_t* reuses) {
  sim::Simulation sim{1};
  host::CpuEngine cpu{sim, 2.0, std::make_unique<host::FairShareScheduler>()};
  cpu.set_fidelity(tier);
  for (int b = 0; b < background; ++b) {
    cpu.add("load" + std::to_string(b), host::SchedAttrs{}, 30.0);
  }
  double done_at = 0.0;
  const auto id = cpu.add("test", host::SchedAttrs{}, 3.0,
                          [&] { done_at = sim.now().to_seconds(); });
  // A VMM-style hook writes back an unchanged efficiency mid-run: a
  // reschedule with no constraint change, which the fluid tier reuses.
  sim.schedule_after(sim::Duration::seconds(1.0), [&] { cpu.set_efficiency(id, 1.0); });
  sim.run();
  if (reuses != nullptr) *reuses = cpu.lazy_reuses();
  return done_at;
}

void transfer_scenario(model::Fidelity tier, double* single, double* makespan) {
  sim::Simulation sim{1};
  net::Network net{sim};
  net.set_fidelity(tier);
  const auto a = net.add_node("a");
  const auto b = net.add_node("b");
  net.add_link(a, b, net::LinkParams{sim::Duration::micros(200), 10e6});
  const std::uint64_t state = 128ull << 20;

  double t1 = 0.0;
  net.send(a, b, state, [&](const net::TransferResult&) { t1 = sim.now().to_seconds(); });
  sim.run();
  *single = t1;

  double last = 0.0;
  const double base = sim.now().to_seconds();
  for (int i = 0; i < 2; ++i) {
    net.send(a, b, state,
             [&](const net::TransferResult&) { last = sim.now().to_seconds() - base; });
  }
  sim.run();
  *makespan = last;
}

AblationRow run_ablation(std::size_t i) {
  AblationRow row;
  row.cpu_exact = cpu_scenario(model::Fidelity::kExact, static_cast<int>(i) + 1, nullptr);
  row.cpu_fluid =
      cpu_scenario(model::Fidelity::kFluid, static_cast<int>(i) + 1, &row.reuses);
  transfer_scenario(model::Fidelity::kExact, &row.restore_exact, &row.makespan_exact);
  transfer_scenario(model::Fidelity::kFluid, &row.restore_fluid, &row.makespan_fluid);
  return row;
}

// --- driver ---------------------------------------------------------------

struct Cell {
  std::uint64_t hosts;
  std::uint64_t jobs;
};
constexpr Cell kCells[] = {{100, 10'000}, {1'000, 100'000}, {10'000, 1'000'000}};

std::string cell_name(const char* tier, const Cell& c) {
  return std::string(tier) + "-" + std::to_string(c.hosts) + "x" + std::to_string(c.jobs);
}

void print_report() {
  const std::uint64_t fluid_max = env_u64("VMGRID_SCALE_MAX_HOSTS", 10'000);
  const std::uint64_t exact_max = env_u64("VMGRID_SCALE_EXACT_MAX_HOSTS", 1'000);

  bench::print_header(
      "Grid scale sweep: fidelity tiers x {100,1k,10k} hosts (DESIGN.md §16)");
  std::printf("%-22s %10s %12s %9s %9s %9s %9s %11s\n", "cell", "jobs", "events",
              "ev/job", "lat p50", "setup(s)", "run(s)", "jobs/wsec");

  bench::JsonReporter report{"grid_scale"};
  report.set_unit("seconds");

  struct Ran {
    Cell cell;
    CellResult r;
  };
  std::vector<Ran> exact_runs, fluid_runs;

  for (const Cell& c : kCells) {
    for (const auto tier : {model::Fidelity::kExact, model::Fidelity::kFluid}) {
      const bool exact = tier == model::Fidelity::kExact;
      if (c.hosts > (exact ? exact_max : fluid_max)) continue;
      CellResult r = run_cell(tier, c.hosts, c.jobs, 4200 + c.hosts);
      const char* tname = exact ? "exact" : "fluid";
      const std::string name = cell_name(tname, c);
      std::printf("%-22s %10" PRIu64 " %12" PRIu64 " %9.1f %9.4f %9.2f %9.2f %11.0f\n",
                  name.c_str(), r.jobs, r.events,
                  static_cast<double>(r.events) / static_cast<double>(c.jobs),
                  r.latency.percentile(50.0), r.wall_setup, r.wall_run,
                  static_cast<double>(r.jobs) / r.wall_run);
      report.add_samples(name, r.latency);
      report.add_field(name, "hosts", static_cast<double>(c.hosts));
      report.add_field(name, "jobs", static_cast<double>(r.jobs));
      report.add_field(name, "events", static_cast<double>(r.events));
      report.add_field(name, "sim_seconds", r.sim_seconds);
      report.add_field(name, "net_solves", static_cast<double>(r.net_solves));
      report.add_field(name, "flows", static_cast<double>(r.flows));
      (exact ? exact_runs : fluid_runs).push_back(Ran{c, std::move(r)});
    }
  }

  std::printf("\nShape checks:\n");
  bool all_complete = !exact_runs.empty() && !fluid_runs.empty();
  for (const auto* runs : {&exact_runs, &fluid_runs}) {
    for (const auto& run : *runs) all_complete = all_complete && run.r.jobs == run.cell.jobs;
  }
  bench::print_shape_check("every cell completes all its jobs", all_complete);

  // The deterministic cost claim: per job, the fluid tier executes at
  // least 10x fewer kernel events than the exact staging protocol.
  bool events_ok = !exact_runs.empty() && !fluid_runs.empty();
  for (const auto& er : exact_runs) {
    for (const auto& fr : fluid_runs) {
      if (er.cell.hosts != fr.cell.hosts) continue;
      const double ex = static_cast<double>(er.r.events) / static_cast<double>(er.cell.jobs);
      const double fl = static_cast<double>(fr.r.events) / static_cast<double>(fr.cell.jobs);
      events_ok = events_ok && fl * 10.0 <= ex;
    }
  }
  bench::print_shape_check("fluid runs >=10x fewer kernel events per job than exact",
                           events_ok);

  // Fidelity claim: both tiers agree on the workload's latency profile
  // (FIFO staging vs max-min flows; see DESIGN.md §16 tolerance notes).
  bool lat_ok = true;
  for (const auto& er : exact_runs) {
    for (const auto& fr : fluid_runs) {
      if (er.cell.hosts != fr.cell.hosts) continue;
      const double rel = std::abs(fr.r.latency.mean() - er.r.latency.mean()) /
                         er.r.latency.mean();
      lat_ok = lat_ok && rel <= 0.15;
    }
  }
  bench::print_shape_check("fluid mean job latency within 15% of exact per cell", lat_ok);

  if (!exact_runs.empty() && !fluid_runs.empty()) {
    const auto& ex = exact_runs.back();  // largest exact cell that ran
    const auto& fl = fluid_runs.back();  // largest fluid cell that ran
    const double ex_tput = static_cast<double>(ex.r.jobs) / ex.r.wall_run;
    const double fl_tput = static_cast<double>(fl.r.jobs) / fl.r.wall_run;
    std::printf("\nwall-clock throughput: exact %" PRIu64 "x%" PRIu64
                " = %.0f jobs/s, fluid %" PRIu64 "x%" PRIu64 " = %.0f jobs/s (%.1fx)\n",
                ex.cell.hosts, ex.cell.jobs, ex_tput, fl.cell.hosts, fl.cell.jobs,
                fl_tput, fl_tput / ex_tput);
    bench::print_shape_check("fluid job throughput >=10x exact (wall clock)",
                             fl_tput >= 10.0 * ex_tput);
  }

  // --- ablation ---
  bench::print_header("Fidelity ablation: Fig. 1 / Table 2 shapes under both tiers");
  sim::ReplicationRunner pool;
  auto rows = pool.map(4, run_ablation);

  std::printf("%-28s %12s %12s %10s\n", "scenario", "exact", "fluid", "rel diff");
  bool cpu_equal = true, cpu_monotone = true, reuses_seen = true;
  bool restore_equal = true, makespan_equal = true;
  bench::SampleSet cpu_ex, cpu_fl;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AblationRow& r = rows[i];
    std::printf("fig1 cpu, %zu bg loads        %12.6f %12.6f %10.2e\n", i + 1,
                r.cpu_exact, r.cpu_fluid,
                std::abs(r.cpu_fluid - r.cpu_exact) / r.cpu_exact);
    cpu_ex.add(r.cpu_exact);
    cpu_fl.add(r.cpu_fluid);
    cpu_equal = cpu_equal && std::abs(r.cpu_fluid - r.cpu_exact) <= 1e-9 * r.cpu_exact;
    reuses_seen = reuses_seen && r.reuses > 0;
    if (i > 0) cpu_monotone = cpu_monotone && r.cpu_exact >= rows[i - 1].cpu_exact;
    restore_equal = restore_equal &&
                    std::abs(r.restore_fluid - r.restore_exact) <= 1e-6 * r.restore_exact;
    makespan_equal =
        makespan_equal &&
        std::abs(r.makespan_fluid - r.makespan_exact) <= 1e-6 * r.makespan_exact;
  }
  std::printf("table2 restore (single)      %12.6f %12.6f %10.2e\n",
              rows[0].restore_exact, rows[0].restore_fluid,
              std::abs(rows[0].restore_fluid - rows[0].restore_exact) /
                  rows[0].restore_exact);
  std::printf("table2 restore (2x makespan) %12.6f %12.6f %10.2e\n",
              rows[0].makespan_exact, rows[0].makespan_fluid,
              std::abs(rows[0].makespan_fluid - rows[0].makespan_exact) /
                  rows[0].makespan_exact);

  bench::print_shape_check("fluid CPU tier bit-matches exact (lazy reuse is free)",
                           cpu_equal);
  bench::print_shape_check("fluid CPU tier reused a cached allocation", reuses_seen);
  bench::print_shape_check("Fig.1 shape: slowdown grows with background load",
                           cpu_monotone && rows.back().cpu_exact > rows.front().cpu_exact);
  bench::print_shape_check("Table 2 shape: single-flow restore matches exact (<=1e-6)",
                           restore_equal);
  bench::print_shape_check("FIFO staging and fair sharing agree on 2-transfer makespan",
                           makespan_equal);

  report.add_samples("ablation-fig1-cpu-exact", cpu_ex);
  report.add_samples("ablation-fig1-cpu-fluid", cpu_fl);
  report.add_field("ablation-fig1-cpu-exact", "restore_single_s", rows[0].restore_exact);
  report.add_field("ablation-fig1-cpu-fluid", "restore_single_s", rows[0].restore_fluid);
  report.add_field("ablation-fig1-cpu-exact", "restore_makespan_s", rows[0].makespan_exact);
  report.add_field("ablation-fig1-cpu-fluid", "restore_makespan_s", rows[0].makespan_fluid);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_report();
  return vmgrid::bench::shape_exit_code();
}
