// The four benchmark workloads. Each builds a fresh world from its seed,
// drives it only through the library's public API (Grid, SessionManager /
// VmSession, FaultEngine, Network / CpuEngine / Disk, and the public
// getters of MetricsRegistry, FluidArena and InformationService), checks
// its correctness gate, and returns one RepResult.
//
// Inputs (task sizes, think times, crash times, job sizes and arrival
// gaps) are drawn from a benchmark-owned Rng seeded from the workload
// seed; the library only receives them.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fault/fault.hpp"
#include "middleware/session.hpp"
#include "middleware/testbed.hpp"
#include "model/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace vmbench {
namespace {

using namespace vmgrid;
using namespace vmgrid::middleware;

constexpr std::uint64_t kMiB = 1ull << 20;
constexpr std::uint64_t kKiB = 1ull << 10;

// --- metric helpers ---------------------------------------------------------

/// Sums every labeled instance of each counter and gauge by metric name,
/// read from the registry's public CSV snapshot.
struct MetricSums {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;

  explicit MetricSums(const obs::MetricsRegistry& m) {
    std::istringstream in{m.to_csv()};
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::vector<std::string> f;
      std::string cur;
      for (char c : line) {
        if (c == ',') {
          f.push_back(cur);
          cur.clear();
        } else {
          cur += c;
        }
      }
      f.push_back(cur);
      // type,name,labels,value + 7 histogram columns; labels may hold commas,
      // so the value is located from the end of the row.
      if (f.size() < 11) continue;
      const std::string& value = f[f.size() - 8];
      if (f[0] == "counter") counters[f[1]] += std::strtod(value.c_str(), nullptr);
      if (f[0] == "gauge") gauges[f[1]] += std::strtod(value.c_str(), nullptr);
    }
  }
  [[nodiscard]] double counter(const std::string& n) const {
    auto it = counters.find(n);
    return it == counters.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double gauge(const std::string& n) const {
    auto it = gauges.find(n);
    return it == gauges.end() ? 0.0 : it->second;
  }
};

/// Exact p50 of the sim-time durations of every recorded span named `name`
/// (0 when tracing is off or no such span ended).
double span_p50(const obs::TraceCollector& trace, std::string_view name) {
  std::vector<double> d;
  for (const auto* r : trace.find_all(name)) {
    if (!r->open) d.push_back((r->end - r->begin).to_seconds());
  }
  return median(d);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values every workload reports; workload-specific ones are
/// added by the workload that owns them.
void collect_layers(Grid& g, const std::vector<ComputeServer*>& computes, bool traced,
                    RepResult& r) {
  auto& sim = g.simulation();
  const MetricSums m{sim.metrics()};
  const double ops = static_cast<double>(r.ops_attempted);

  r.set("sim.events", static_cast<double>(sim.executed_events()));
  r.set("sim.events_per_op", ratio(static_cast<double>(sim.executed_events()), ops));

  double solves = 0.0, actions = 0.0, allocations = 0.0, reuses = 0.0;
  if (const auto* arena = g.network().fluid_arena()) {
    solves += static_cast<double>(arena->solves());
    actions += static_cast<double>(arena->actions_completed());
  }
  for (auto* cs : computes) {
    if (const auto* arena = cs->host().disk().fluid_arena()) {
      solves += static_cast<double>(arena->solves());
      actions += static_cast<double>(arena->actions_completed());
    }
    allocations += static_cast<double>(cs->host().cpu().allocations());
    reuses += static_cast<double>(cs->host().cpu().lazy_reuses());
  }
  r.set("model.solves", solves);
  r.set("model.actions", actions);
  r.set("model.solves_per_action", ratio(solves, actions));
  r.set("host.cpu_allocations", allocations);
  r.set("host.cpu_lazy_reuses", reuses);

  r.set("storage.nfs_calls", m.counter("nfs.server.calls"));
  const double hits = m.counter("vfs.cache.hits");
  r.set("vfs.cache_hit_ratio", ratio(hits, hits + m.counter("vfs.cache.misses")));
  r.set("vfs.bytes_read", m.counter("vfs.proxy.bytes_read"));
  r.set("vfs.prefetch_blocks", m.counter("vfs.proxy.prefetch_blocks"));
  r.set("net.rpc_retries", m.counter("rpc.retries"));
  r.set("net.rpc_attempt_failed", m.counter("rpc.attempt_failed"));
  r.set("failover.started", m.counter("failover.started"));
  r.set("failover.completed_ratio",
        ratio(m.counter("failover.completed"), m.counter("failover.started")));
  r.set("core.errors_total", m.counter("errors_total"));
  r.set("core.errors_per_op", ratio(m.counter("errors_total"), ops));
  // Per-RPC latency is only kept as the NFS client's histogram (10 ms bins).
  const auto* rpc = sim.metrics().find_histogram("nfs.client.rpc_latency_s", {{"op", "read"}});
  r.set("storage.nfs_rpc_p50_s", rpc != nullptr ? rpc->histogram().percentile(50.0) : 0.0);
  // The globusrun p50 needs per-call durations, which only the trace keeps.
  r.set("middleware.globusrun_p50_s",
        traced ? span_p50(sim.trace(), "gram.globusrun") : 0.0);

  // Correctness: every VM is gone once the workload has shut its sessions.
  std::uint64_t vms = 0;
  for (auto* cs : computes) vms += cs->vmm().vm_count();
  r.gate(vms == 0, "VMs still resident at the end");
  r.gate(m.gauge("compute.active_vms") == 0.0, "compute.active_vms did not return to 0");
}

void write_trace(const sim::Simulation& sim, const std::string& path) {
  if (path.empty() || !sim.trace().enabled()) return;
  std::ofstream f{path};
  f << sim.trace().to_chrome_json() << '\n';
}

// --- session worlds -----------------------------------------------------------

struct SessionShape {
  int clusters;
  int hosts_per_cluster;
  int users;
  int cycles;          // sessions_*: sessions per user, one after another
  int tasks;           // sessions_*: tasks per session
  bool image_over_wan; // image server in its own zone across the WAN
  int crashes;         // failover_churn only
  std::uint64_t memory_state_mib{0};  // 0: the paper image's snapshot size
};

/// A zoned grid of published compute servers plus one image server that
/// carries the paper's warm-restorable RedHat image.
struct SessionWorld {
  std::unique_ptr<Grid> grid;
  std::vector<ComputeServer*> computes;
  double topology_s{0.0};
  double register_s{0.0};

  SessionWorld(std::uint64_t seed, const SessionShape& shape) {
    grid = std::make_unique<Grid>(seed);
    Grid& g = *grid;
    auto t0 = Clock::now();
    const net::ZoneId wan = g.add_wan_zone("wan");
    std::vector<net::ZoneId> zones;
    for (int c = 0; c < shape.clusters; ++c) {
      zones.push_back(g.add_cluster_zone("cluster-" + std::to_string(c), wan));
    }
    const net::ZoneId image_zone =
        shape.image_over_wan ? g.add_cluster_zone("image-site", wan) : zones.front();
    topology_s = seconds_since(t0);

    t0 = Clock::now();
    for (int c = 0; c < shape.clusters; ++c) {
      for (int h = 0; h < shape.hosts_per_cluster; ++h) {
        computes.push_back(&g.add_compute_server(
            zones[static_cast<std::size_t>(c)],
            testbed::paper_compute("c" + std::to_string(c) + "-host-" + std::to_string(h),
                                   testbed::fig1_host())));
      }
    }
    ImageServerParams isp;
    isp.name = "image-server";
    isp.disk = testbed::paper_host_disk();
    ImageServer& images = g.add_image_server(isp);
    g.network().assign_zone(images.node(), image_zone);
    vm::VmImageSpec image = testbed::paper_image();
    if (shape.memory_state_mib > 0) image.memory_state_bytes = shape.memory_state_mib * kMiB;
    images.add_image(image, &g.info());
    register_s = seconds_since(t0);
  }
};

/// Common client bookkeeping of the session workloads: operation
/// accounting, the outcome digest, and the pending-event high-water mark
/// sampled at every client callback.
class SessionClient {
 public:
  SessionClient(Grid& g, RepResult& r, SpanLog& spans, std::uint64_t seed)
      : g_{g}, r_{r}, spans_{spans}, rng_{seed ^ 0x5e55107u} {}

  /// Shared end-of-run checks and session-level values.
  void finish(const std::vector<ComputeServer*>& computes, bool traced) {
    auto& sim = g_.simulation();
    r_.events = sim.executed_events();
    digest_.add(r_.events);
    r_.digest = digest_.hex();
    r_.sim_span_s = (last_ok_ - sim::TimePoint::epoch()).to_seconds();

    r_.gate(sessions_ok_ + sessions_failed_ == sessions_attempted_,
            "sessions: ok + failed != attempted");
    r_.gate(r_.tasks_ok + tasks_failed_ == tasks_attempted_,
            "tasks: ok + failed != attempted");
    r_.gate(g_.sessions().active_sessions() == 0, "sessions left open at the end");
    for (const auto& u : users_) {
      r_.gate(u.session == nullptr, u.name + ": session was never shut down");
      r_.gate(g_.accounting().usage(u.name).tasks_completed == u.tasks_ok,
              u.name + ": accounting task count != client OK count");
    }

    collect_layers(g_, computes, traced, r_);
    r_.set("sim.peak_pending_events", static_cast<double>(peak_pending_));
    r_.set("vm.state_prep_p50_s", median(state_prep_s_));
    r_.set("vm.start_p50_s", median(start_s_));
    r_.set("middleware.placement_p50_s", median(placement_s_));
    r_.set("middleware.dead_submits", static_cast<double>(dead_submits_));
    r_.set("middleware.session_ready_p50_s", median(r_.session_ready_s));
    r_.set("middleware.session_ready_tail_s", tail_of(r_.session_ready_s).value);
    r_.set("middleware.op_fail_ratio",
           ratio(static_cast<double>(r_.ops_failed), static_cast<double>(r_.ops_attempted)));
  }

 protected:
  struct User {
    std::string name;
    VmSession* session{nullptr};
    sim::TimePoint asked{};
    sim::TimePoint submitted{};
    int cycle{0};
    int task{0};
    std::uint64_t tasks_ok{0};
    bool stopped{false};
  };

  void tick() {
    peak_pending_ = std::max<std::uint64_t>(peak_pending_, g_.simulation().pending_events());
  }

  std::uint64_t begin_op() {
    tick();
    ++r_.ops_attempted;
    return r_.ops_attempted;
  }

  /// Records one finished operation: kind ('s'ession, 't'ask), user, and
  /// status, stamped with its sim completion time.
  void end_op(char kind, std::size_t user, StatusCode code) {
    tick();
    digest_.add(static_cast<std::uint64_t>(kind));
    digest_.add(static_cast<std::uint64_t>(user));
    digest_.add(static_cast<std::uint64_t>(code));
    digest_.add(static_cast<std::uint64_t>(g_.now().since_epoch().count()));
    if (code != StatusCode::kOk) ++r_.ops_failed;
  }

  void create(std::size_t u, std::function<void(VmSession*)> then) {
    User& user = users_[u];
    user.asked = g_.now();
    ++sessions_attempted_;
    SessionRequest req;
    req.user = user.name;
    req.start = VmStartMode::kWarmRestore;
    req.access = StateAccess::kNonPersistentVfs;
    const std::uint64_t op = begin_op();
    SpanLog::Scope span{spans_, "call.create_session_s", op};
    g_.sessions().create_session(
        std::move(req),
        [this, u, then = std::move(then)](VmSession* s, Status st) {
          User& us = users_[u];
          end_op('s', u, st.code());
          if (s == nullptr) {
            ++sessions_failed_;
            then(nullptr);
            return;
          }
          ++sessions_ok_;
          const sim::Duration ready = g_.now() - us.asked;
          r_.session_ready_s.push_back(ready.to_seconds());
          state_prep_s_.push_back(s->instantiation().state_preparation.to_seconds());
          start_s_.push_back(s->instantiation().start_time.to_seconds());
          placement_s_.push_back((ready - s->instantiation().total).to_seconds());
          us.session = s;
          then(s);
        });
  }

  void submit(std::size_t u, workload::TaskSpec spec, std::function<void(bool)> then) {
    User& user = users_[u];
    user.submitted = g_.now();
    ++tasks_attempted_;
    const std::uint64_t op = begin_op();
    SpanLog::Scope span{spans_, "call.run_task_s", op};
    user.session->run_task(std::move(spec), [this, u, then = std::move(then)](
                                                vm::TaskResult res) {
      User& us = users_[u];
      end_op('t', u, res.status.code());
      if (res.ok()) {
        ++us.tasks_ok;
        ++r_.tasks_ok;
        r_.task_latency_s.push_back((g_.now() - us.submitted).to_seconds());
        last_ok_ = g_.now();
      } else {
        ++tasks_failed_;
        if (res.status.code() == StatusCode::kUnavailable && !us.session->alive()) {
          ++dead_submits_;
        }
      }
      then(res.ok());
    });
  }

  /// Shuts the session down from a fresh event, so the teardown never runs
  /// inside the VM's own completion callback.
  void shutdown_later(std::size_t u, std::function<void()> then) {
    g_.simulation().schedule_after(sim::Duration::zero(), [this, u, then = std::move(then)] {
      User& us = users_[u];
      r_.gate(us.session->pending_task_count() == 0,
              us.name + ": session still holds pending tasks at shutdown");
      us.session->shutdown();
      us.session = nullptr;
      then();
    });
  }

  Grid& g_;
  RepResult& r_;
  SpanLog& spans_;
  sim::Rng rng_;
  std::vector<User> users_;
  Digest digest_;
  std::uint64_t peak_pending_{0};
  std::uint64_t sessions_attempted_{0}, sessions_ok_{0}, sessions_failed_{0};
  std::uint64_t tasks_attempted_{0}, tasks_failed_{0};
  std::uint64_t dead_submits_{0};
  sim::TimePoint last_ok_{};
  std::vector<double> state_prep_s_, start_s_, placement_s_;
};

// --- sessions_exact / sessions_fluid -------------------------------------------

/// Closed-loop users, each repeating: create a warm-restore session over
/// the grid VFS, run `tasks` tasks one after another (CPU plus virtual-disk
/// reads and writes), shut down, think, repeat `cycles` times.
class SessionStorm : public SessionClient {
 public:
  SessionStorm(Grid& g, RepResult& r, SpanLog& spans, std::uint64_t seed,
               const SessionShape& shape)
      : SessionClient{g, r, spans, seed}, shape_{shape} {
    for (int u = 0; u < shape.users; ++u) users_.push_back(User{"u" + std::to_string(u)});
  }

  void start() {
    for (std::size_t u = 0; u < users_.size(); ++u) {
      // Staggered arrivals: users do not all ask at the same instant.
      g_.simulation().schedule_after(sim::Duration::seconds(rng_.uniform(0.0, 5.0)),
                                     [this, u] { next_cycle(u); });
    }
  }

 private:
  workload::TaskSpec task_spec() {
    workload::TaskSpec spec;
    spec.name = "work";
    spec.user_seconds = rng_.uniform(3.0, 6.0);
    spec.sys_seconds = rng_.uniform(0.1, 0.5);
    spec.io_read_bytes = static_cast<std::uint64_t>(rng_.uniform_int(1, 8)) * kMiB;
    spec.io_write_bytes = static_cast<std::uint64_t>(rng_.uniform_int(256, 2048)) * kKiB;
    spec.phases = 2;
    return spec;
  }

  void next_cycle(std::size_t u) {
    User& user = users_[u];
    if (user.cycle == shape_.cycles) return;
    ++user.cycle;
    user.task = 0;
    create(u, [this, u](VmSession* s) {
      if (s == nullptr) {
        think_then_cycle(u);
        return;
      }
      next_task(u);
    });
  }

  void next_task(std::size_t u) {
    User& user = users_[u];
    if (user.task == shape_.tasks) {
      shutdown_later(u, [this, u] { think_then_cycle(u); });
      return;
    }
    ++user.task;
    submit(u, task_spec(), [this, u](bool) { next_task(u); });
  }

  void think_then_cycle(std::size_t u) {
    g_.simulation().schedule_after(sim::Duration::seconds(rng_.uniform(0.5, 3.0)),
                                   [this, u] { next_cycle(u); });
  }

  SessionShape shape_;
};

// --- failover_churn ------------------------------------------------------------

/// Long-lived sessions, one per user, each keeping one short task in
/// flight and resubmitting at once on failure (the naive client). Crashes
/// are forced onto hosts that carry live sessions at their seeded times.
class FailoverChurn : public SessionClient {
 public:
  FailoverChurn(Grid& g, RepResult& r, SpanLog& spans, std::uint64_t seed,
                const SessionShape& shape, const std::vector<ComputeServer*>& computes)
      : SessionClient{g, r, spans, seed},
        shape_{shape},
        engine_{g.simulation(), g.network()} {
    for (int u = 0; u < shape.users; ++u) users_.push_back(User{"u" + std::to_string(u)});
    for (auto* cs : computes) engine_.register_host(*cs);
    FailoverPolicy pol;
    pol.probe_interval = sim::Duration::seconds(1);
    g.sessions().set_failover(pol);
    g.sessions().set_failover_handler([this](const FailoverEvent& ev) {
      tick();
      if (ev.ok()) rto_s_.push_back(ev.downtime.to_seconds());
    });
  }

  void start() {
    for (std::size_t u = 0; u < users_.size(); ++u) {
      g_.simulation().schedule_after(sim::Duration::seconds(rng_.uniform(0.0, 2.0)),
                                     [this, u] { open(u); });
    }
    // Crash i lands in its own window after every session is up; the seed
    // moves it inside the window and picks which session-carrying host.
    for (int i = 0; i < shape_.crashes; ++i) {
      const double at = kFirstCrash + kCrashGap * i + rng_.uniform(0.0, kCrashGap / 2.0);
      const double pick = rng_.uniform(0.0, 1.0);
      g_.simulation().schedule_after(sim::Duration::seconds(at),
                                     [this, pick] { crash_one(pick); });
    }
    g_.simulation().schedule_after(sim::Duration::seconds(kFirstCrash + kCrashGap * shape_.crashes),
                                   [this] { stop_all(); });
  }

  /// Fault-side checks and values, on top of SessionClient::finish.
  void finish_faults() {
    r_.gate(engine_.injected() == static_cast<std::uint64_t>(shape_.crashes),
            "not every planned crash was injected");
    r_.gate(g_.sessions().failovers_completed() > 0, "no failover completed");
    r_.set("fault.injected", static_cast<double>(engine_.injected()));
    r_.set("fault.healed", static_cast<double>(engine_.healed()));
    r_.set("failover.rto_p50_s", median(rto_s_));
    r_.set("failover.session_downtime_frac", ratio(downtime_s_, lifetime_s_));
  }

 private:
  static constexpr double kFirstCrash = 60.0;
  static constexpr double kCrashGap = 50.0;

  workload::TaskSpec task_spec() {
    workload::TaskSpec spec;
    spec.name = "short";
    spec.user_seconds = rng_.uniform(1.0, 3.0);
    spec.io_read_bytes = static_cast<std::uint64_t>(rng_.uniform_int(64, 512)) * kKiB;
    spec.io_write_bytes = static_cast<std::uint64_t>(rng_.uniform_int(64, 256)) * kKiB;
    return spec;
  }

  void open(std::size_t u) {
    if (users_[u].stopped) return;
    create(u, [this, u](VmSession* s) {
      if (s == nullptr) {
        // Placement can fail while hosts are down; ask again shortly.
        g_.simulation().schedule_after(sim::Duration::seconds(1), [this, u] { open(u); });
        return;
      }
      users_[u].asked = g_.now();
      next_task(u);
    });
  }

  void next_task(std::size_t u) {
    User& user = users_[u];
    if (user.stopped) {
      close(u);
      return;
    }
    submit(u, task_spec(), [this, u](bool) { next_task(u); });
  }

  void close(std::size_t u) {
    User& user = users_[u];
    downtime_s_ += user.session->total_downtime().to_seconds();
    lifetime_s_ += (g_.now() - user.asked).to_seconds();
    shutdown_later(u, [] {});
  }

  void stop_all() {
    for (auto& u : users_) u.stopped = true;
  }

  void crash_one(double pick) {
    tick();
    std::vector<std::string> hosts;
    for (const auto& u : users_) {
      if (u.session != nullptr && u.session->alive()) {
        const std::string& name = u.session->server().name();
        if (std::find(hosts.begin(), hosts.end(), name) == hosts.end()) hosts.push_back(name);
      }
    }
    if (hosts.empty()) return;  // the gate reports the missing injection
    std::sort(hosts.begin(), hosts.end());
    const auto i = std::min(hosts.size() - 1,
                            static_cast<std::size_t>(pick * static_cast<double>(hosts.size())));
    fault::FaultPlan plan;
    plan.add(fault::FaultEvent{sim::Duration::zero(), fault::FaultKind::kHostCrash, hosts[i],
                               sim::Duration::seconds(kCrashGap / 2.0), 0.0});
    engine_.arm(plan);
  }

  SessionShape shape_;
  fault::FaultEngine engine_;
  std::vector<double> rto_s_;
  double downtime_s_{0.0};
  double lifetime_s_{0.0};
};

constexpr int kSessionWorldBuilds = 8;

SessionShape session_shape(std::string_view workload, Size size) {
  const bool small = size == Size::kSmall;
  if (workload == "failover_churn") {
    return small ? SessionShape{1, 3, 2, 0, 0, false, 1, 8}
                 : SessionShape{1, 6, 3, 0, 0, false, 3, 8};
  }
  return small ? SessionShape{1, 2, 2, 1, 2, true, 0, 0} : SessionShape{2, 2, 8, 4, 16, true, 0, 0};
}

/// Traced repetitions turn on the sim-time trace and the process-wide
/// profiler; untraced ones force the profiler off, whatever the
/// environment asked for.
void trace_on(Grid& g, bool traced) {
  auto& prof = obs::SimProfiler::instance();
  prof.enable(false);
  if (!traced) return;
  g.simulation().trace().enable();
  prof.reset();
  prof.enable();
}

void profile_off(bool traced, RepResult& r) {
  if (!traced) return;
  auto& prof = obs::SimProfiler::instance();
  prof.enable(false);
  for (const char* key :
       {"sim.loop", "rpc.server", "nfs.client", "vfs.proxy", "vfs.flush", "scheduler.pump"}) {
    double s = 0.0;
    for (const auto& e : prof.snapshot()) {
      if (e.key == key) s = e.seconds;
    }
    r.set(std::string{"prof."} + key + "_s", s);
  }
}

RepResult run_sessions(std::string_view workload, Size size, std::uint64_t seed, bool traced,
                       SpanLog& spans, const std::string& trace_path) {
  RepResult r;
  const SessionShape shape = session_shape(workload, size);
  // A session world builds in well under a millisecond, so one build is
  // too short to time steadily: build it several times and report the
  // median. Each replaced world is destroyed outside the timed region.
  std::vector<double> setups;
  std::unique_ptr<SessionWorld> built;
  for (int i = 0; i < kSessionWorldBuilds; ++i) {
    const auto t0 = Clock::now();
    auto next = std::make_unique<SessionWorld>(seed, shape);
    setups.push_back(seconds_since(t0));
    built = std::move(next);
  }
  r.setup_s = median(setups);
  SessionWorld& world = *built;
  Grid& g = *world.grid;
  trace_on(g, traced);

  if (workload == "failover_churn") {
    FailoverChurn churn{g, r, spans, seed, shape, world.computes};
    const auto t0 = Clock::now();
    churn.start();
    g.run();
    r.run_s = seconds_since(t0);
    profile_off(traced, r);
    churn.finish(world.computes, traced);
    churn.finish_faults();
  } else {
    SessionStorm storm{g, r, spans, seed, shape};
    const auto t0 = Clock::now();
    storm.start();
    g.run();
    r.run_s = seconds_since(t0);
    profile_off(traced, r);
    storm.finish(world.computes, traced);
  }
  r.set("middleware.setup_register_s", world.register_s);
  r.set("net.setup_topology_s", world.topology_s);
  write_trace(g.simulation(), trace_path);
  return r;
}

// --- kernel_jobs ---------------------------------------------------------------

struct KernelShape {
  int hosts;
  std::uint64_t jobs;
};

constexpr int kHostsPerCluster = 32;
constexpr double kArrivalsPerHostPerSec = 2.0;

// Cluster access links are thin; the core is provisioned with headroom so
// that jobs do not contend (the workload measures the uncontended path).
net::LinkParams host_link() { return {sim::Duration::micros(200), 12.5e6}; }
net::LinkParams core_link() { return {sim::Duration::millis(2), 1.25e9}; }

/// Open-loop grid jobs on ~10k published compute servers: stage input from
/// the cluster frontend, compute, spool to local disk, return a result.
/// Arrivals chain through sim-time events, so the generator is never late
/// and each job is timed from its due time.
class KernelJobs {
 public:
  KernelJobs(std::uint64_t seed, const KernelShape& shape, RepResult& r, SpanLog& spans)
      : shape_{shape}, r_{r}, spans_{spans}, rng_{seed ^ 0x10b5u}, grid_{seed} {
    auto& net = grid_.network();
    auto t0 = Clock::now();
    const net::ZoneId wan = net.add_zone("wan", core_link());
    const int clusters = (shape.hosts + kHostsPerCluster - 1) / kHostsPerCluster;
    for (int c = 0; c < clusters; ++c) {
      const std::string name = "cl" + std::to_string(c);
      zones_.push_back(net.add_zone(name, wan, core_link(), host_link()));
      frontends_.push_back(net.add_zone_node(wan, name + ".fe"));
    }
    topology_s_ = seconds_since(t0);
    t0 = Clock::now();
    for (int h = 0; h < shape.hosts; ++h) {
      const auto c = static_cast<std::size_t>(h / kHostsPerCluster);
      computes_.push_back(&grid_.add_compute_server(
          zones_[c], testbed::paper_compute("cl" + std::to_string(c) + "-h" +
                                                std::to_string(h % kHostsPerCluster),
                                            testbed::fig1_host())));
    }
    register_s_ = seconds_since(t0);
    jobs_.resize(shape.jobs);
  }

  Grid& grid() { return grid_; }

  void start() {
    const double rate = kArrivalsPerHostPerSec * static_cast<double>(shape_.hosts);
    next_due_ = sim::TimePoint::epoch() + sim::Duration::seconds(rng_.exponential(1.0 / rate));
    first_due_ = next_due_;
    grid_.simulation().schedule_at(next_due_, [this] { arrive(); });
  }

  void finish(bool traced) {
    auto& sim = grid_.simulation();
    r_.events = sim.executed_events();
    digest_.add(r_.events);
    r_.digest = digest_.hex();
    r_.sim_span_s = (last_done_ - first_due_).to_seconds();
    r_.gate(done_ == shape_.jobs, "not every job completed");
    r_.gate(r_.tasks_ok + r_.ops_failed == r_.ops_attempted, "jobs: ok + failed != attempted");
    collect_layers(grid_, computes_, traced, r_);
    r_.gate(grid_.info().host_count() == static_cast<std::size_t>(shape_.hosts),
            "information service does not list every registered host");
    r_.set("sim.peak_pending_events", static_cast<double>(peak_pending_));
    r_.set("middleware.setup_register_s", register_s_);
    r_.set("net.setup_topology_s", topology_s_);
  }

 private:
  struct Job {
    ComputeServer* cs{nullptr};
    net::NodeId fe{};
    sim::TimePoint due{};
    host::ProcessId pid{};
    std::uint64_t output{0};
  };

  void arrive() {
    auto& sim = grid_.simulation();
    peak_pending_ = std::max<std::uint64_t>(peak_pending_, sim.pending_events());
    const std::uint64_t j = next_job_++;
    Job& job = jobs_[j];
    const std::size_t clusters = frontends_.size();
    const std::size_t c = j % clusters;
    // The job runs on a host of its own cluster; the last cluster may be
    // short of kHostsPerCluster.
    const std::size_t first_host = c * kHostsPerCluster;
    const std::size_t cluster_hosts =
        std::min<std::size_t>(kHostsPerCluster, computes_.size() - first_host);
    job.cs = computes_[first_host + (j / clusters) % cluster_hosts];
    job.fe = frontends_[c];
    job.due = next_due_;
    const auto input = static_cast<std::uint64_t>(rng_.uniform_int(256, 768)) * kKiB;
    const double cpu = rng_.uniform(0.01, 0.03);
    job.output = static_cast<std::uint64_t>(rng_.uniform_int(32, 96)) * kKiB;
    ++r_.ops_attempted;
    if (next_job_ < shape_.jobs) {
      const double rate = kArrivalsPerHostPerSec * static_cast<double>(shape_.hosts);
      next_due_ = next_due_ + sim::Duration::seconds(rng_.exponential(1.0 / rate));
      sim.schedule_at(next_due_, [this] { arrive(); });
    }
    SpanLog::Scope span{spans_, "call.net_send_s", j + 1};
    grid_.network().send(job.fe, job.cs->node(), input,
                         [this, j, cpu](const net::TransferResult&) { staged(j, cpu); });
  }

  void staged(std::uint64_t j, double cpu) {
    Job& job = jobs_[j];
    SpanLog::Scope span{spans_, "call.cpu_add_s", j + 1};
    job.pid = job.cs->host().cpu().add("job", host::SchedAttrs{}, cpu, [this, j] { computed(j); });
  }

  void computed(std::uint64_t j) {
    Job& job = jobs_[j];
    job.cs->host().cpu().remove(job.pid);
    SpanLog::Scope span{spans_, "call.disk_write_s", j + 1};
    job.cs->host().disk().write(job.output, [this, j] { spooled(j); });
  }

  void spooled(std::uint64_t j) {
    Job& job = jobs_[j];
    SpanLog::Scope span{spans_, "call.net_send_s", j + 1};
    grid_.network().send(job.cs->node(), job.fe, kKiB,
                         [this, j](const net::TransferResult& tr) { returned(j, tr); });
  }

  void returned(std::uint64_t j, const net::TransferResult& tr) {
    auto& sim = grid_.simulation();
    peak_pending_ = std::max<std::uint64_t>(peak_pending_, sim.pending_events());
    const Job& job = jobs_[j];
    ++done_;
    digest_.add(j);
    digest_.add(static_cast<std::uint64_t>(sim.now().since_epoch().count()));
    if (tr.delivered) {
      ++r_.tasks_ok;
      r_.task_latency_s.push_back((sim.now() - job.due).to_seconds());
      last_done_ = sim.now();
    } else {
      ++r_.ops_failed;
    }
  }

  KernelShape shape_;
  RepResult& r_;
  SpanLog& spans_;
  sim::Rng rng_;
  Grid grid_;
  std::vector<net::ZoneId> zones_;
  std::vector<net::NodeId> frontends_;
  std::vector<ComputeServer*> computes_;
  std::vector<Job> jobs_;
  std::uint64_t next_job_{0};
  std::uint64_t done_{0};
  sim::TimePoint next_due_{};
  sim::TimePoint first_due_{};
  sim::TimePoint last_done_{};
  std::uint64_t peak_pending_{0};
  double topology_s_{0.0};
  double register_s_{0.0};
  Digest digest_;
};

RepResult run_kernel(Size size, std::uint64_t seed, bool traced, SpanLog& spans,
                     const std::string& trace_path) {
  RepResult r;
  const KernelShape shape =
      size == Size::kSmall ? KernelShape{256, 2'000} : KernelShape{10'000, 200'000};
  auto t0 = Clock::now();
  KernelJobs jobs{seed, shape, r, spans};
  r.setup_s = seconds_since(t0);
  Grid& g = jobs.grid();
  trace_on(g, traced);
  t0 = Clock::now();
  jobs.start();
  g.run();
  r.run_s = seconds_since(t0);
  profile_off(traced, r);
  jobs.finish(traced);
  write_trace(g.simulation(), trace_path);
  return r;
}

}  // namespace

bool known_workload(std::string_view w) {
  return w == "sessions_exact" || w == "sessions_fluid" || w == "failover_churn" ||
         w == "kernel_jobs";
}

bool fluid_workload(std::string_view w) { return w == "sessions_fluid" || w == "kernel_jobs"; }

RepResult run_workload(std::string_view workload, Size size, std::uint64_t seed, bool traced,
                       SpanLog& spans, const std::string& trace_path) {
  if (!known_workload(workload)) {
    throw std::invalid_argument("unknown workload: " + std::string{workload});
  }
  RepResult r = workload == "kernel_jobs"
                    ? run_kernel(size, seed, traced, spans, trace_path)
                    : run_sessions(workload, size, seed, traced, spans, trace_path);
  r.set("call.create_session_s", spans.total_seconds("call.create_session_s"));
  r.set("call.run_task_s", spans.total_seconds("call.run_task_s"));
  r.set("call.net_send_s", spans.total_seconds("call.net_send_s"));
  r.set("call.cpu_add_s", spans.total_seconds("call.cpu_add_s"));
  r.set("call.disk_write_s", spans.total_seconds("call.disk_write_s"));
  return r;
}

}  // namespace vmbench
