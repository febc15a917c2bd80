// XNET (DESIGN.md): §3.3 virtual networking.
//  (1) DHCP lease acquisition cost when the hosting site provides
//      addresses (scenario 1).
//  (2) Ethernet-over-SSH tunneling (scenario 2): per-payload overhead vs
//      direct traffic.
//  (3) Overlay networking among session VMs: detour quality when the
//      direct underlay path degrades (the RON-style extension).

#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "middleware/testbed.hpp"
#include "net/dhcp.hpp"
#include "net/overlay.hpp"
#include "net/tunnel.hpp"
#include "sim/replication.hpp"

namespace {

using namespace vmgrid;
using namespace vmgrid::net;

struct TunnelRow {
  std::uint64_t payload;
  double direct_s{0.0};
  double tunneled_s{0.0};
};

struct Results {
  double dhcp_lease_ms{0.0};
  double tunnel_setup_s{0.0};
  std::vector<TunnelRow> tunnel;
  double overlay_before_ms{0.0};
  double overlay_direct_after_ms{0.0};
  double overlay_detour_after_ms{0.0};
  std::size_t overlay_path_len{0};
};

// --- DHCP ---
void run_dhcp(Results& out) {
  sim::Simulation sim{71};
  Network net{sim};
  auto host_node = net.add_node("vm-host");
  auto dhcp_node = net.add_node("site-dhcp");
  net.add_link(host_node, dhcp_node, LinkParams{sim::Duration::micros(300), 10e6});
  DhcpServer dhcp{net, dhcp_node, IpAddress::from_octets(10, 1, 0, 10), 32};
  const auto t0 = sim.now();
  double lease_ms = -1;
  dhcp.request_lease(host_node, [&](std::optional<IpAddress> ip) {
    if (ip) lease_ms = (sim.now() - t0).to_millis();
  });
  sim.run();
  out.dhcp_lease_ms = lease_ms;
}

// --- SSH tunnel vs direct, across the WAN ---
void run_tunnel(Results& out) {
  sim::Simulation sim{72};
  Network net{sim};
  auto user_gw = net.add_node("user-gateway");
  auto vm_host = net.add_node("vm-host");
  net.add_link(user_gw, vm_host, LinkParams{sim::Duration::millis(17), 2.5e6});
  EthernetTunnel tun{net, user_gw, vm_host};
  const auto t0 = sim.now();
  tun.establish([] {});
  sim.run();
  out.tunnel_setup_s = (sim.now() - t0).to_seconds();

  for (std::uint64_t payload : {1500ull, 64ull << 10, 1ull << 20, 16ull << 20}) {
    TunnelRow row;
    row.payload = payload;
    double direct = -1, tunneled = -1;
    net.send(user_gw, vm_host, payload,
             [&](const TransferResult& res) { direct = res.elapsed.to_seconds(); });
    sim.run();
    tun.send(true, payload,
             [&](const TransferResult& res) { tunneled = res.elapsed.to_seconds(); });
    sim.run();
    row.direct_s = direct;
    row.tunneled_s = tunneled;
    out.tunnel.push_back(row);
  }
}

// --- Overlay detour under underlay degradation ---
void run_overlay(Results& out) {
  sim::Simulation sim{73};
  Network net{sim};
  auto a = net.add_node("vm-a");
  auto b = net.add_node("vm-b");
  auto c = net.add_node("vm-c");
  net.add_link(a, b, LinkParams{sim::Duration::millis(30), 2.5e6});
  net.add_link(a, c, LinkParams{sim::Duration::millis(20), 2.5e6});
  net.add_link(c, b, LinkParams{sim::Duration::millis(20), 2.5e6});
  OverlayNetwork overlay{net, {a, b, c}};
  overlay.start();
  sim.run_for(sim::Duration::seconds(5));
  double before = -1;
  overlay.send(a, b, 1000, [&](const TransferResult& res) {
    before = res.elapsed.to_millis();
  });
  sim.run_for(sim::Duration::seconds(1));
  out.overlay_before_ms = before;

  // Congestion event: the direct path degrades badly; IP keeps using
  // it (the resilient-overlay premise), the overlay routes around.
  net.set_link(a, b, LinkParams{sim::Duration::millis(400), 1e5});
  double direct_after = -1;
  net.send(a, b, 1000, [&](const TransferResult& res) {
    direct_after = res.elapsed.to_millis();
  });
  sim.run_for(sim::Duration::seconds(2));
  out.overlay_direct_after_ms = direct_after;

  sim.run_for(sim::Duration::seconds(10));  // let probes converge
  double detour = -1;
  overlay.send(a, b, 1000, [&](const TransferResult& res) {
    detour = res.elapsed.to_millis();
  });
  sim.run_for(sim::Duration::seconds(2));
  out.overlay_detour_after_ms = detour;
  out.overlay_path_len = overlay.current_path(a, b).size();
  overlay.stop();
}

Results& results() {
  // The three scenarios are separate simulations writing disjoint members
  // of Results, so they run concurrently on the replication pool; outputs
  // do not depend on scheduling, only on the per-scenario seeds.
  static Results r = [] {
    Results out;
    vmgrid::sim::ReplicationRunner pool;
    pool.for_each(3, [&](std::size_t part) {
      switch (part) {
        case 0: run_dhcp(out); break;
        case 1: run_tunnel(out); break;
        default: run_overlay(out); break;
      }
    });
    return out;
  }();
  return r;
}

void print_table() {
  auto& r = results();
  bench::print_header("XNET: virtual networking for dynamically created VMs");
  std::printf("Scenario 1 — site-provided address:\n");
  std::printf("  DHCP lease acquisition: %.2f ms (2 round trips)\n\n", r.dhcp_lease_ms);

  std::printf("Scenario 2 — Ethernet-over-SSH tunnel to the user's LAN (WAN path):\n");
  std::printf("  tunnel establishment (TCP+SSH handshake): %.2f s\n", r.tunnel_setup_s);
  std::printf("  %12s %12s %12s %10s\n", "payload", "direct (s)", "tunnel (s)", "overhead");
  for (const auto& row : r.tunnel) {
    std::printf("  %10lluKB %12.4f %12.4f %9.1f%%\n",
                static_cast<unsigned long long>(row.payload >> 10), row.direct_s,
                row.tunneled_s, (row.tunneled_s / row.direct_s - 1.0) * 100.0);
  }

  std::printf("\nOverlay among session VMs (direct path degrades 30ms -> 400ms):\n");
  std::printf("  before degradation:        %8.1f ms (direct)\n", r.overlay_before_ms);
  std::printf("  after, IP routing (stuck): %8.1f ms\n", r.overlay_direct_after_ms);
  std::printf("  after, overlay detour:     %8.1f ms (path length %zu)\n",
              r.overlay_detour_after_ms, r.overlay_path_len);

  std::printf("\nShape checks:\n");
  bench::print_shape_check("DHCP lease costs a couple of LAN round trips (< 10 ms)",
                           r.dhcp_lease_ms > 1.0 && r.dhcp_lease_ms < 10.0);
  bench::print_shape_check(
      "small-payload tunnel overhead is negligible (latency-dominated, < 2%)",
      r.tunnel.front().tunneled_s / r.tunnel.front().direct_s < 1.02);
  bench::print_shape_check(
      "bulk overhead approaches the encapsulation+cipher tax but stays < 25%",
      r.tunnel.back().tunneled_s / r.tunnel.back().direct_s > 1.05 &&
          r.tunnel.back().tunneled_s / r.tunnel.back().direct_s < 1.25);
  bench::print_shape_check("overlay detours around the degraded link (3-node path)",
                           r.overlay_path_len == 3);
  bench::print_shape_check("detour restores latency within ~2x of the healthy path",
                           r.overlay_detour_after_ms < 2.0 * r.overlay_before_ms &&
                               r.overlay_detour_after_ms * 4 < r.overlay_direct_after_ms);

  bench::JsonReporter report{"virtual_network"};
  report.set_unit("seconds");
  report.add_sample("dhcp/lease", r.dhcp_lease_ms / 1000.0);
  report.add_sample("tunnel/setup", r.tunnel_setup_s);
  for (const auto& row : r.tunnel) {
    const std::string name =
        "tunnel/" + std::to_string(static_cast<unsigned long long>(row.payload >> 10)) +
        "KB";
    report.add_sample(name, row.tunneled_s);
    report.add_field(name, "direct_s", row.direct_s);
  }
  report.add_sample("overlay/before_degradation", r.overlay_before_ms / 1000.0);
  report.add_sample("overlay/direct_after", r.overlay_direct_after_ms / 1000.0);
  report.add_sample("overlay/detour_after", r.overlay_detour_after_ms / 1000.0);
  report.add_field("overlay/detour_after", "path_len",
                   static_cast<double>(r.overlay_path_len));
  report.write();
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
