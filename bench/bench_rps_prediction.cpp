// XRPS (DESIGN.md): §3.2's application-side adaptation — RPS-style load
// prediction. Compares predictor families (LAST, MA, EWMA, AR(p)) on
// light/heavy synthetic host-load traces (one-step MSE), then closes the
// loop: predict a task's running time on a loaded host and compare with
// the simulated outcome.

#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "host/load_trace.hpp"
#include "host/schedulers.hpp"
#include "host/trace_playback.hpp"
#include "rps/predictors.hpp"
#include "rps/runtime_predictor.hpp"
#include "rps/sensor.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::rps;

std::vector<double> make_trace(double mean, std::uint64_t seed) {
  sim::Rng rng{seed};
  host::LoadTraceParams p;
  p.mean = mean;
  const auto trace =
      host::LoadTrace::generate(rng, sim::Duration::seconds(4000), p);
  return trace.samples();
}

struct PredictorRow {
  std::string name;
  double mse_light{0.0};
  double mse_heavy{0.0};
};

std::vector<PredictorRow>& predictor_results() {
  static std::vector<PredictorRow> rows = [] {
    const auto light = make_trace(0.25, 111);
    const auto heavy = make_trace(0.9, 112);
    std::vector<std::unique_ptr<Predictor>> preds;
    preds.push_back(std::make_unique<LastValuePredictor>());
    preds.push_back(std::make_unique<MovingAveragePredictor>(8));
    preds.push_back(std::make_unique<MovingAveragePredictor>(64));
    preds.push_back(std::make_unique<EwmaPredictor>(0.3));
    preds.push_back(std::make_unique<ArPredictor>(4));
    preds.push_back(std::make_unique<ArPredictor>(16));
    std::vector<PredictorRow> out;
    for (const auto& p : preds) {
      out.push_back(PredictorRow{p->name(), evaluate_mse(*p, light, 64),
                                 evaluate_mse(*p, heavy, 64)});
    }
    return out;
  }();
  return rows;
}

struct RuntimeRow {
  double load;
  double predicted_s{0.0};
  double actual_s{0.0};
};

std::vector<RuntimeRow>& runtime_results() {
  static std::vector<RuntimeRow> rows = [] {
    std::vector<RuntimeRow> out;
    for (double load : {0.0, 0.5, 1.0, 1.8}) {
      sim::Simulation sim{200 + static_cast<std::uint64_t>(load * 10)};
      host::CpuEngine engine{sim, 1.0, std::make_unique<host::FairShareScheduler>()};
      host::TracePlayback pb{
          sim, engine, host::LoadTrace::constant(sim::Duration::seconds(3000), load)};
      if (load > 0) pb.start();
      HostLoadSensor sensor{sim, engine, sim::Duration::seconds(1)};
      sensor.start();
      sim.run_until(sim::TimePoint::from_seconds(30));

      RunningTimePredictor rp{std::make_shared<ArPredictor>(8), 1.0};
      RuntimeRow row;
      row.load = load;
      row.predicted_s = rp.predict_runtime(sensor.series(), 60.0);
      const auto t0 = sim.now();
      double actual = -1;
      engine.add("job", {}, 60.0, [&] { actual = (sim.now() - t0).to_seconds(); });
      sim.run_until(sim::TimePoint::from_seconds(2500));
      row.actual_s = actual;
      out.push_back(row);
    }
    return out;
  }();
  return rows;
}

void print_table() {
  bench::print_header("XRPS: host-load prediction and running-time estimation");
  std::printf("One-step MSE on synthetic PSC-like load traces:\n");
  std::printf("%-10s %14s %14s\n", "predictor", "light (0.25)", "heavy (0.9)");
  for (const auto& row : predictor_results()) {
    std::printf("%-10s %14.5f %14.5f\n", row.name.c_str(), row.mse_light, row.mse_heavy);
  }

  std::printf("\nRunning-time prediction (60 cpu-s job, 1 CPU, AR(8) + fair share):\n");
  std::printf("%10s %14s %12s %10s\n", "bg load", "predicted (s)", "actual (s)", "error");
  for (const auto& row : runtime_results()) {
    std::printf("%10.1f %14.1f %12.1f %9.1f%%\n", row.load, row.predicted_s,
                row.actual_s, (row.predicted_s / row.actual_s - 1.0) * 100.0);
  }

  std::printf("\nShape checks:\n");
  const auto& rows = predictor_results();
  const auto mse_of = [&](const std::string& name, bool heavy) {
    for (const auto& r : rows) {
      if (r.name == name) return heavy ? r.mse_heavy : r.mse_light;
    }
    return -1.0;
  };
  bench::print_shape_check(
      "AR models beat the long moving average on correlated load (heavy)",
      mse_of("AR(16)", true) < mse_of("MA(64)", true));
  bench::print_shape_check(
      "LAST is competitive at one-step horizon (Dinda's classic result)",
      mse_of("LAST", true) < 2.0 * mse_of("AR(16)", true));
  bool runtime_ok = true;
  for (const auto& r : runtime_results()) {
    runtime_ok = runtime_ok && std::abs(r.predicted_s / r.actual_s - 1.0) < 0.15;
  }
  bench::print_shape_check(
      "running-time predictions land within 15% of simulated outcomes", runtime_ok);
  const auto& rt = runtime_results();
  bench::print_shape_check("predicted runtime grows with background load",
                           rt.back().predicted_s > rt.front().predicted_s * 2.0);

  bench::JsonReporter report{"rps_prediction"};
  report.set_unit("mse");
  for (const auto& row : rows) {
    report.add_sample("mse/" + row.name + "/light", row.mse_light);
    report.add_sample("mse/" + row.name + "/heavy", row.mse_heavy);
  }
  for (const auto& row : rt) {
    char name[48];
    std::snprintf(name, sizeof name, "runtime/load%.1f", row.load);
    report.add_sample(name, row.actual_s);
    report.add_field(name, "predicted_s", row.predicted_s);
  }
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
