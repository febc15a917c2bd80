// Fault-recovery experiment (DESIGN.md §10): availability and recovery
// time objective (RTO) of VM-restore failover as a function of fault
// rate. Each replica is a 3-host LAN grid with probe-based failure
// detection; a seeded random FaultPlan injects host crashes, image-server
// outages and link faults while a closed-loop workload keeps one session
// busy. Availability is sampled once per simulated second after the
// session exists; RTO is the crash-to-recovered downtime of every
// completed failover. The sweep (fault rates, replicas per rate,
// horizon) is fixed below; VMGRID_JOBS sets the replication worker
// threads, and results are byte-identical for every value.

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"
#include "middleware/testbed.hpp"
#include "obs/slo.hpp"
#include "sim/replication.hpp"
#include "workload/task_spec.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

/// Fault-rate levels (events/hour), ascending. Rate 0 is the fault-free
/// control; its results must match the ordinary benches (shape-checked
/// below).
constexpr std::array<double, 4> kRates{0.0, 30.0, 90.0, 180.0};
constexpr std::size_t kSamplesPerRate = 5;  ///< replicas per rate level
constexpr double kHorizonS = 600.0;         ///< measured window per replica

struct ReplicaResult {
  double availability{0.0};
  std::uint64_t alive_samples{0};  // raw 1 Hz liveness counts behind it
  std::uint64_t total_samples{0};
  std::vector<double> rto_s;  // one per completed failover
  std::uint64_t injected{0};
  std::uint64_t failovers_ok{0};
  std::uint64_t failovers_failed{0};
  std::uint64_t tasks_ok{0};
  std::uint64_t tasks_failed{0};
  bool created{false};
};

/// One replica: fresh world, fresh plan, bounded run. Pure function of
/// (rate index, sample index) so replicas fan out across VMGRID_JOBS and
/// fold back in index order without changing a single bit.
ReplicaResult run_replica(std::size_t rate_idx, std::size_t sample_idx) {
  const double rate = kRates[rate_idx];
  const sim::Duration window = sim::Duration::seconds(kHorizonS);
  const std::uint64_t seed = 9000 + 23 * sample_idx;

  testbed::FaultTestbed tb{seed, 3};
  auto& g = *tb.grid;
  FailoverPolicy pol;
  pol.probe_interval = sim::Duration::seconds(5);
  g.sessions().set_failover(pol);

  ReplicaResult out;
  g.sessions().set_failover_handler([&out](const FailoverEvent& ev) {
    if (ev.ok()) {
      ++out.failovers_ok;
      out.rto_s.push_back(ev.downtime.to_seconds());
    } else {
      ++out.failovers_failed;
    }
  });

  fault::FaultEngine eng{g.simulation(), g.network()};
  for (auto* cs : tb.computes) eng.register_host(*cs);
  eng.register_server_node("site-images", tb.images->node());
  for (auto* cs : tb.computes) {
    eng.register_link("lan-" + cs->name(), cs->node(), tb.router);
  }
  eng.register_link("lan-images", tb.images->node(), tb.router);

  fault::RandomFaultOptions fo;
  fo.events_per_hour = rate;
  fo.horizon = window;
  fo.mean_outage = sim::Duration::seconds(25);
  const auto plan =
      fault::FaultPlan::random(seed * 7919 + rate_idx + 1, fo, eng.host_names(),
                               eng.server_names(), eng.link_names());
  eng.arm(plan);

  std::uint64_t alive_samples = 0, total_samples = 0;
  VmSession* session = nullptr;
  // Both loops live in this frame (which outlives the bounded run) and
  // are captured by reference; shared_ptr-to-self captures would cycle.
  std::function<void()> submit;
  std::function<void()> sample;
  SessionRequest req;
  req.user = "bench";
  req.want_ip = false;
  req.query.time_bound = sim::Duration::seconds(1);
  g.sessions().create_session(req, [&](VmSession* s, Status) {
    session = s;
    if (s == nullptr) return;
    out.created = true;

    // Closed-loop workload: one 2 s task at a time until the horizon.
    // Failed submissions (dead session) retry after 2 s instead of
    // eagerly — a dead session fails them asynchronously in microseconds,
    // so an eager loop would spin through the whole outage.
    submit = [&] {
      if (g.now() - sim::TimePoint::epoch() >= window) return;
      workload::TaskSpec spec;
      spec.name = "unit";
      spec.user_seconds = 2.0;
      session->run_task(spec, [&](vm::TaskResult r) {
        if (r.ok()) {
          ++out.tasks_ok;
          submit();
        } else {
          ++out.tasks_failed;
          g.simulation().schedule_weak_after(sim::Duration::seconds(2),
                                             [&] { submit(); });
        }
      });
    };
    submit();

    // Availability sampler: weak 1 Hz tick from session birth to horizon.
    sample = [&] {
      if (g.now() - sim::TimePoint::epoch() >= window) return;
      ++total_samples;
      if (session->alive()) ++alive_samples;
      g.simulation().schedule_weak_after(sim::Duration::seconds(1), sample);
    };
    g.simulation().schedule_weak_after(sim::Duration::seconds(1), sample);
  });
  // Bounded run: injections, probes and the sampler are weak events, so
  // only run_for drives them (run() would stop at the last strong event).
  g.run_for(window + sim::Duration::seconds(60));

  out.injected = eng.injected();
  out.alive_samples = alive_samples;
  out.total_samples = total_samples;
  out.availability =
      total_samples == 0
          ? 0.0
          : static_cast<double>(alive_samples) / static_cast<double>(total_samples);
  return out;
}

struct RateSummary {
  bench::SampleSet availability;
  bench::SampleSet rto;
  std::uint64_t alive_samples{0};
  std::uint64_t total_samples{0};
  std::uint64_t injected{0};
  std::uint64_t failovers_ok{0};
  std::uint64_t failovers_failed{0};
  std::uint64_t tasks_ok{0};
  std::uint64_t tasks_failed{0};
  std::uint64_t created{0};
};

std::vector<RateSummary>& results() {
  // All (rate, sample) replicas are independent worlds: fan them out as
  // one flat batch and fold in index order, so the summary is the same
  // for every VMGRID_JOBS value.
  static std::vector<RateSummary> acc = [] {
    sim::ReplicationRunner pool;
    const auto replicas = pool.map(kRates.size() * kSamplesPerRate, [](std::size_t idx) {
      return run_replica(idx / kSamplesPerRate, idx % kSamplesPerRate);
    });
    std::vector<RateSummary> out(kRates.size());
    for (std::size_t idx = 0; idx < replicas.size(); ++idx) {
      const auto& r = replicas[idx];
      auto& s = out[idx / kSamplesPerRate];
      s.availability.add(r.availability);
      s.alive_samples += r.alive_samples;
      s.total_samples += r.total_samples;
      for (double rto : r.rto_s) s.rto.add(rto);
      s.injected += r.injected;
      s.failovers_ok += r.failovers_ok;
      s.failovers_failed += r.failovers_failed;
      s.tasks_ok += r.tasks_ok;
      s.tasks_failed += r.tasks_failed;
      s.created += r.created ? 1 : 0;
    }
    return out;
  }();
  return acc;
}

std::string rate_label(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", rate);
  return std::string("rate") + buf;
}

void print_table() {
  auto& acc = results();
  bench::print_header("Fault recovery: availability and RTO vs fault rate (" +
                      std::to_string(kSamplesPerRate) + " replicas/level, " +
                      std::to_string(static_cast<long long>(kHorizonS)) +
                      " s horizon)");
  std::printf("%-10s %12s %10s %8s %8s %8s %10s %10s\n", "rate(/h)", "avail(mean)",
              "rto mean", "std", "p50", "p99", "failovers", "injected");
  for (std::size_t i = 0; i < kRates.size(); ++i) {
    const auto& s = acc[i];
    std::printf("%-10g %12.4f %10.1f %8.1f %8.1f %8.1f %10llu %10llu\n", kRates[i],
                s.availability.mean(), s.rto.mean(), s.rto.stddev(),
                s.rto.percentile(50.0), s.rto.percentile(99.0),
                static_cast<unsigned long long>(s.failovers_ok),
                static_cast<unsigned long long>(s.injected));
  }

  bench::JsonReporter report{"fault_recovery"};
  report.set_unit("seconds");
  for (std::size_t i = 0; i < kRates.size(); ++i) {
    const auto& s = acc[i];
    const std::string rto_name = rate_label(kRates[i]) + "/rto";
    report.add_samples(rto_name, s.rto);
    report.add_field(rto_name, "events_per_hour", kRates[i]);
    report.add_field(rto_name, "failovers_completed",
                     static_cast<double>(s.failovers_ok));
    report.add_field(rto_name, "failovers_failed",
                     static_cast<double>(s.failovers_failed));
    report.add_field(rto_name, "faults_injected", static_cast<double>(s.injected));
    report.add_field(rto_name, "tasks_ok", static_cast<double>(s.tasks_ok));
    report.add_field(rto_name, "tasks_failed", static_cast<double>(s.tasks_failed));
    const std::string avail_name = rate_label(kRates[i]) + "/availability";
    report.add_samples(avail_name, s.availability);
    report.add_field(avail_name, "events_per_hour", kRates[i]);
    report.add_field(avail_name, "replicas", static_cast<double>(kSamplesPerRate));
    // SLO accounting over the folded counts: session availability against
    // a three-nines objective (1 Hz liveness samples), RTO against a
    // 60 s recovery-time objective at p90, task success against 95%.
    obs::SloMonitor slo;
    slo.add_availability_objective("session_uptime", 0.999);
    slo.add_latency_objective("failover_rto", 60.0, 0.90);
    slo.add_availability_objective("task_success", 0.95);
    slo.observe_counts("session_uptime", s.total_samples, s.alive_samples);
    std::uint64_t rto_good = 0;
    for (double rto : s.rto.samples()) {
      if (rto <= 60.0) ++rto_good;
    }
    slo.observe_counts("failover_rto", s.rto.count(), rto_good);
    slo.observe_counts("task_success", s.tasks_ok + s.tasks_failed, s.tasks_ok);
    for (const auto& r : slo.evaluate()) {
      report.add_field(avail_name, "slo_" + r.name + "_compliance", r.compliance);
      report.add_field(avail_name, "slo_" + r.name + "_burn_rate", r.burn_rate);
      report.add_field(avail_name, "slo_" + r.name + "_met", r.met ? 1.0 : 0.0);
    }
  }
  report.write();

  std::printf("\nShape checks:\n");
  bool all_created = true;
  for (const auto& s : acc) {
    all_created = all_created && s.created == kSamplesPerRate;
  }
  bench::print_shape_check("every replica establishes its session", all_created);

  // Rate-0 control: no faults => the session is never dead, nothing fails
  // over, no task fails. This pins the zero-fault path to the fault-free
  // benches — enabling the subsystem at rate 0 must change nothing.
  static_assert(kRates.front() == 0.0, "the first rate is the fault-free control");
  const auto& z = acc.front();
  bench::print_shape_check("rate 0: availability is exactly 1.0",
                           z.availability.count() > 0 && z.availability.min() == 1.0 &&
                               z.availability.max() == 1.0);
  bench::print_shape_check("rate 0: zero faults, zero failovers, zero task failures",
                           z.injected == 0 && z.failovers_ok == 0 &&
                               z.failovers_failed == 0 && z.tasks_failed == 0);

  const auto& hot = acc.back();
  bench::print_shape_check("highest rate injects faults and loses some availability",
                           hot.injected > 0 && hot.availability.mean() < 1.0);
  bench::print_shape_check("failover recovers sessions at the highest rate",
                           hot.failovers_ok > 0);
  if (hot.rto.count() > 0) {
    // RTO = detection (2 probe intervals) + warm restore (~12 s DiskFS /
    // ~29 s VFS) + placement; anything outside [5 s, 120 s] means the
    // detector or the restore path regressed.
    bench::print_shape_check("RTO is detection + restore bound (5 s < mean < 120 s)",
                             hot.rto.mean() > 5.0 && hot.rto.mean() < 120.0);
    bench::print_shape_check("every completed failover took positive downtime",
                             hot.rto.min() > 0.0);
  }
  bench::print_shape_check("availability degrades from rate 0 to the highest rate",
                           z.availability.mean() >= hot.availability.mean());
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
