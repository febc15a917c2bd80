// EventQueue hot-path microbenchmark: schedule/fire, schedule/cancel, and
// a timer-wheel-style reschedule mix, measured in operations per second.
// Every replicated experiment in this repo bottoms out in this queue
// (bench_fig1 alone pushes ~10^7 events per sweep), so its constants are
// the per-replica half of the replication-throughput story.
//
// The numbers are emitted to BENCH_event_queue.json so the bench
// trajectory records the before/after of queue changes.

#include <chrono>
#include <cstdint>

#include "bench_common.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace vmgrid;
using sim::Duration;
using sim::EventQueue;
using sim::TimePoint;

constexpr int kBatch = 100'000;  // events per timed pass
constexpr int kPasses = 8;       // timed passes per workload

// Receives each schedule/fire pass's checksum so the fired callbacks
// cannot be optimised away.
volatile std::uint64_t g_sink = 0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Schedule kBatch events at pseudo-random times, then drain the queue.
/// Counts one op per schedule plus one per fire.
double schedule_fire_ops_per_sec() {
  sim::Rng rng{42};
  double total_ops = 0.0, total_s = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    EventQueue q;
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      q.schedule(TimePoint::from_seconds(rng.uniform(0.0, 1000.0)),
                 [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    while (!q.empty()) {
      auto fired = q.pop();
      fired.fn();
    }
    total_s += seconds_since(t0);
    total_ops += 2.0 * kBatch;
    g_sink = sink;
  }
  return total_ops / total_s;
}

/// Schedule kBatch events and cancel every one of them (LIFO order, the
/// common timeout-armed-then-disarmed pattern), then drain the heap.
double schedule_cancel_ops_per_sec() {
  sim::Rng rng{43};
  double total_ops = 0.0, total_s = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(kBatch);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(q.schedule(TimePoint::from_seconds(rng.uniform(0.0, 1000.0)),
                               [] {}));
    }
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) q.cancel(*it);
    while (!q.empty()) q.pop();
    total_s += seconds_since(t0);
    total_ops += 2.0 * kBatch;
  }
  return total_ops / total_s;
}

/// Timeout-guard mix: every fire cancels a pending guard event and arms a
/// new one — the RPC/retry idiom that dominates middleware hot paths.
double reschedule_mix_ops_per_sec() {
  double total_ops = 0.0, total_s = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    sim::Simulation sim;
    sim::EventId guard{};
    int remaining = kBatch;
    std::function<void()> tick = [&] {
      sim.cancel(guard);
      if (--remaining <= 0) return;
      guard = sim.schedule_after(Duration::seconds(30), [] {});
      sim.schedule_after(Duration::millis(1), tick);
    };
    const auto t0 = std::chrono::steady_clock::now();
    tick();
    sim.run();
    total_s += seconds_since(t0);
    // Each tick is one cancel + two schedules + one fire.
    total_ops += 4.0 * kBatch;
  }
  return total_ops / total_s;
}

struct Throughput {
  double schedule_fire{0.0};
  double schedule_cancel{0.0};
  double reschedule_mix{0.0};
};

Throughput& results() {
  static Throughput t = [] {
    Throughput out;
    out.schedule_fire = schedule_fire_ops_per_sec();
    out.schedule_cancel = schedule_cancel_ops_per_sec();
    out.reschedule_mix = reschedule_mix_ops_per_sec();
    return out;
  }();
  return t;
}

void print_report() {
  auto& r = results();
  bench::print_header("EventQueue hot path: throughput (operations per second)");
  std::printf("%-44s %14s\n", "workload", "ops/s");
  std::printf("%-44s %14.0f\n", "schedule+fire (random times)", r.schedule_fire);
  std::printf("%-44s %14.0f\n", "schedule+cancel (timeout disarm)", r.schedule_cancel);
  std::printf("%-44s %14.0f\n", "reschedule mix (RPC guard idiom)", r.reschedule_mix);

  bench::JsonReporter report{"event_queue"};
  report.set_unit("ops_per_second");
  report.add_sample("schedule_fire", r.schedule_fire);
  report.add_sample("schedule_cancel", r.schedule_cancel);
  report.add_sample("reschedule_mix", r.reschedule_mix);
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_report();
  return vmgrid::bench::shape_exit_code();
}
