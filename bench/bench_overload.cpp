// Overload experiment (DESIGN.md §11): goodput under offered load swept
// past saturation, with the overload protections on ("protected": bounded
// admission queue + age shedding on the server, retry budgets + end-to-end
// deadlines on the clients) versus off ("unprotected": effectively
// unbounded queue, unbudgeted retries, no total deadline). The protected
// stack should plateau near its service capacity — the graceful
// degradation the paper's predictability pitch needs — while the
// unprotected stack collapses: the queue grows past the client timeout,
// every served request belongs to a caller that already gave up, and
// within-SLO goodput falls toward zero.
//
// The world is deliberately minimal: one RPC server with a fixed service
// time and concurrency (capacity = max_concurrent / service_time), four
// client nodes issuing an open-loop Poisson stream. Everything past the
// RPC layer (NFS, VFS, GRAM) shares this exact admission machinery, so
// the RPC-level curve is the one that matters. The sweep (load
// multiples, replicas per point, horizon) is fixed below; VMGRID_JOBS
// sets the replication worker threads, and results are byte-identical
// for every value.

#include <array>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "sim/replication.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace vmgrid;

/// Offered load as multiples of the server's saturation throughput.
constexpr std::array<double, 5> kLoads{0.5, 1.0, 1.5, 2.0, 3.0};
constexpr std::size_t kHalfLoad = 0;    ///< index of 0.5x, below saturation
constexpr std::size_t kDoubleLoad = 3;  ///< index of 2x saturation
static_assert(kLoads[kHalfLoad] == 0.5 && kLoads[kDoubleLoad] == 2.0);
constexpr std::size_t kSamplesPerPoint = 3;  ///< replicas per (mode, load) point
constexpr double kHorizonS = 20.0;           ///< offered-load window per replica, s

// Server model: capacity = kConcurrency / service time = 400 req/s.
constexpr std::size_t kConcurrency = 4;
constexpr double kServiceS = 0.010;
constexpr double kCapacityRps = static_cast<double>(kConcurrency) / kServiceS;
constexpr std::size_t kClients = 4;
constexpr double kSloS = 0.5;  ///< a completion past this is not goodput

enum class Mode : std::size_t { kProtected = 0, kUnprotected = 1 };
constexpr std::array<const char*, 2> kModeNames{"protected", "unprotected"};

struct ReplicaResult {
  std::uint64_t sent{0};
  std::uint64_t ok_in_slo{0};
  std::uint64_t ok_total{0};
  std::uint64_t failed{0};
  std::uint64_t shed{0};            // server-side admission rejects
  std::uint64_t retries{0};         // fabric retries actually started
  std::uint64_t budget_denied{0};   // retries the token bucket refused
  double retry_budget_initial{0.0};  // total tokens the clients started with
  double goodput_rps{0.0};
  bench::SampleSet latency_s;  // ok completions only
};

/// One replica: pure function of (mode, load index, sample index), so
/// replicas fan out across VMGRID_JOBS and fold in index order without
/// changing a bit.
ReplicaResult run_replica(Mode mode, std::size_t load_idx, std::size_t sample_idx) {
  const double offered_rps = kCapacityRps * kLoads[load_idx];
  const std::uint64_t seed =
      31000 + 101 * sample_idx + 7 * load_idx + (mode == Mode::kProtected ? 0 : 1);

  sim::Simulation sim{seed};
  net::Network net{sim};
  net::RpcFabric fabric{net};

  const auto server_node = net.add_node("server");
  std::vector<net::NodeId> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(net.add_node("client" + std::to_string(i)));
    net.add_link(clients.back(), server_node,
                 net::LinkParams{sim::Duration::millis(1), 1e9});
  }

  net::RpcServerParams sp;
  sp.per_call_overhead = sim::Duration::micros(50);
  sp.admission.max_concurrent = kConcurrency;
  if (mode == Mode::kProtected) {
    sp.admission.queue_depth = 16;
    sp.admission.max_queue_age = sim::Duration::millis(300);
  } else {
    // "Unbounded": a queue no 20 s run can fill, and no age shedding —
    // the server faithfully serves every request in arrival order, long
    // after its client timed out.
    sp.admission.queue_depth = 1u << 20;
    sp.admission.max_queue_age = sim::Duration::infinite();
  }
  net::RpcServer server{fabric, server_node, sp};
  server.register_method("work.unit",
                         [&sim](const net::RpcRequest&, net::RpcResponder respond) {
                           sim.schedule_after(sim::Duration::seconds(kServiceS),
                                              [respond = std::move(respond)] {
                                                respond(net::RpcResponse{});
                                              });
                         });

  std::vector<net::RetryBudget> budgets;
  budgets.reserve(kClients);
  net::RetryBudgetParams bp;
  bp.capacity = 50.0;
  bp.initial = 50.0;
  for (std::size_t i = 0; i < kClients; ++i) budgets.emplace_back(bp);

  net::RpcCallOptions opts;
  opts.deadline = sim::Duration::seconds(1);
  opts.max_attempts = 3;
  opts.backoff_base = sim::Duration::millis(50);

  ReplicaResult out;
  const auto issue = [&](std::size_t client_idx) {
    ++out.sent;
    net::RpcCallOptions o = opts;
    if (mode == Mode::kProtected) {
      o.total_deadline = sim::Duration::seconds(2);
      o.retry_budget = &budgets[client_idx];
    }
    const sim::TimePoint t0 = sim.now();
    fabric.call(clients[client_idx], server_node, net::RpcRequest{"work.unit", 256, {}},
                o, [&out, &sim, t0](net::RpcResponse resp) {
                  if (resp.ok()) {
                    ++out.ok_total;
                    const double lat = (sim.now() - t0).to_seconds();
                    out.latency_s.add(lat);
                    if (lat <= kSloS) ++out.ok_in_slo;
                  } else {
                    ++out.failed;
                  }
                });
  };

  // Open-loop Poisson arrivals round-robined over the clients, from a
  // dedicated stream so the arrival pattern is identical in both modes
  // (the shared sim rng also feeds retry backoff jitter, which differs).
  auto arrivals = std::make_shared<sim::Rng>(seed * 2654435761u + 17);
  auto next_client = std::make_shared<std::size_t>(0);
  std::function<void()> arrive = [&, arrivals, next_client] {
    if (sim.now().to_seconds() >= kHorizonS) return;
    issue(*next_client);
    *next_client = (*next_client + 1) % kClients;
    sim.schedule_after(
        sim::Duration::seconds(arrivals->exponential(1.0 / offered_rps)), arrive);
  };
  sim.schedule_after(sim::Duration::seconds(arrivals->exponential(1.0 / offered_rps)),
                     arrive);

  // Drain: every in-flight call either completes or times out well
  // within the unprotected queue's worst case (2^20 is never reached in
  // a 20 s window; the actual backlog drains at capacity).
  sim.run();

  out.shed = server.calls_shed();
  out.retries =
      static_cast<std::uint64_t>(sim.metrics().counter_value("rpc.retries"));
  for (const auto& b : budgets) {
    out.budget_denied += b.denied();
    out.retry_budget_initial += b.params().initial;
  }
  out.goodput_rps = static_cast<double>(out.ok_in_slo) / kHorizonS;
  return out;
}

struct PointSummary {
  bench::SampleSet goodput;
  bench::SampleSet latency;
  std::uint64_t sent{0};
  std::uint64_t ok_in_slo{0};
  std::uint64_t ok_total{0};
  std::uint64_t failed{0};
  std::uint64_t shed{0};
  std::uint64_t retries{0};
  std::uint64_t budget_denied{0};
  double retry_budget_initial{0.0};
  bool retries_within_budget{true};
};

/// acc[mode][load].
std::array<std::vector<PointSummary>, 2>& results() {
  static std::array<std::vector<PointSummary>, 2> acc = [] {
    constexpr std::size_t n_loads = kLoads.size();
    constexpr std::size_t n_samples = kSamplesPerPoint;
    sim::ReplicationRunner pool;
    const auto replicas = pool.map(2 * n_loads * n_samples, [](std::size_t idx) {
      const auto mode = static_cast<Mode>(idx / (n_loads * n_samples));
      const std::size_t rest = idx % (n_loads * n_samples);
      return run_replica(mode, rest / n_samples, rest % n_samples);
    });
    std::array<std::vector<PointSummary>, 2> out;
    out[0].resize(n_loads);
    out[1].resize(n_loads);
    for (std::size_t idx = 0; idx < replicas.size(); ++idx) {
      const auto& r = replicas[idx];
      auto& s = out[idx / (n_loads * n_samples)][(idx % (n_loads * n_samples)) / n_samples];
      s.goodput.add(r.goodput_rps);
      s.latency.merge(r.latency_s);
      s.sent += r.sent;
      s.ok_in_slo += r.ok_in_slo;
      s.ok_total += r.ok_total;
      s.failed += r.failed;
      s.shed += r.shed;
      s.retries += r.retries;
      s.budget_denied += r.budget_denied;
      s.retry_budget_initial += r.retry_budget_initial;
      // Token-bucket invariant, per replica: retries started can never
      // exceed the initial tokens plus what successes earned back.
      s.retries_within_budget =
          s.retries_within_budget &&
          (static_cast<double>(r.retries) <=
           r.retry_budget_initial + 0.1 * static_cast<double>(r.ok_total) + 1e-9);
    }
    return out;
  }();
  return acc;
}

std::string load_label(double mult) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", mult);
  return std::string("load") + buf + "x";
}

void print_table() {
  auto& acc = results();
  bench::print_header(
      "Overload: goodput vs offered load, protected vs unprotected (" +
      std::to_string(kSamplesPerPoint) + " replicas/point, capacity " +
      std::to_string(static_cast<int>(kCapacityRps)) + " req/s)");
  std::printf("%-14s %-8s %12s %10s %10s %10s %10s %10s\n", "mode", "load",
              "goodput", "lat p50", "lat p99", "shed", "retries", "denied");
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < kLoads.size(); ++i) {
      const auto& s = acc[m][i];
      std::printf("%-14s %-8s %12.1f %10.4f %10.4f %10llu %10llu %10llu\n",
                  kModeNames[m], load_label(kLoads[i]).c_str(), s.goodput.mean(),
                  s.latency.percentile(50.0), s.latency.percentile(99.0),
                  static_cast<unsigned long long>(s.shed),
                  static_cast<unsigned long long>(s.retries),
                  static_cast<unsigned long long>(s.budget_denied));
    }
  }

  bench::JsonReporter report{"overload"};
  report.set_unit("req/s");
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < kLoads.size(); ++i) {
      const auto& s = acc[m][i];
      const std::string name = std::string(kModeNames[m]) + "/" + load_label(kLoads[i]);
      report.add_samples(name, s.goodput);
      report.add_field(name, "load_multiple", kLoads[i]);
      report.add_field(name, "offered_rps", kCapacityRps * kLoads[i]);
      report.add_field(name, "sent", static_cast<double>(s.sent));
      report.add_field(name, "ok_in_slo", static_cast<double>(s.ok_in_slo));
      report.add_field(name, "ok_total", static_cast<double>(s.ok_total));
      report.add_field(name, "failed", static_cast<double>(s.failed));
      report.add_field(name, "shed", static_cast<double>(s.shed));
      report.add_field(name, "retries", static_cast<double>(s.retries));
      report.add_field(name, "retry_budget_denied",
                       static_cast<double>(s.budget_denied));
      report.add_field(name, "latency_p99_s", s.latency.percentile(99.0));
      // SLO view of the same counts: latency objective = completions
      // within kSloS; availability objective = sent requests that
      // succeeded at all. Burn rate > 1 means the error budget is being
      // violated at this load point. Pure fold of replica counters, so
      // byte-identical for every VMGRID_JOBS.
      obs::SloMonitor slo;
      slo.add_latency_objective("rpc_latency", kSloS, 0.99);
      slo.add_availability_objective("rpc_success", 0.999);
      slo.observe_counts("rpc_latency", s.ok_total, s.ok_in_slo);
      slo.observe_counts("rpc_success", s.sent, s.ok_total);
      for (const auto& r : slo.evaluate()) {
        report.add_field(name, "slo_" + r.name + "_compliance", r.compliance);
        report.add_field(name, "slo_" + r.name + "_burn_rate", r.burn_rate);
        report.add_field(name, "slo_" + r.name + "_met", r.met ? 1.0 : 0.0);
      }
    }
  }
  report.write();

  // Peak goodput and the 2x-saturation point per mode.
  const auto peak = [&](std::size_t m) {
    double best = 0.0;
    for (const auto& s : acc[m]) best = std::max(best, s.goodput.mean());
    return best;
  };

  std::printf("\nShape checks:\n");
  const double prot_peak = peak(0);
  const double unprot_peak = peak(1);
  bench::print_shape_check("both modes achieve nonzero peak goodput",
                           prot_peak > 0.0 && unprot_peak > 0.0);

  // The acceptance criterion: graceful degradation means 2x saturation
  // costs at most 20% of peak goodput with the protections on.
  const auto& p2 = acc[0][kDoubleLoad];
  bench::print_shape_check("protected: goodput at 2x within 20% of peak",
                           p2.goodput.mean() >= 0.8 * prot_peak);
  bench::print_shape_check("protected: server sheds past saturation", p2.shed > 0);
  // Collapse: the unprotected stack loses most of its peak at 2x —
  // every served request is by then older than its client's timeout.
  bench::print_shape_check("unprotected: goodput collapses at 2x (<50% of peak)",
                           acc[1][kDoubleLoad].goodput.mean() < 0.5 * unprot_peak);
  // Below saturation the protections must be invisible.
  const double lo = acc[1][kHalfLoad].goodput.mean();
  bench::print_shape_check(
      "below saturation both modes agree (within 10%)",
      lo > 0.0 && std::abs(acc[0][kHalfLoad].goodput.mean() - lo) <= 0.1 * lo);
  bool budget_ok = true;
  for (const auto& s : acc[0]) budget_ok = budget_ok && s.retries_within_budget;
  bench::print_shape_check(
      "protected: per-replica retries stay within the token budget", budget_ok);
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
