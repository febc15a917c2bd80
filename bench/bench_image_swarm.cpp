// Image distribution experiment (DESIGN.md §14): time to boot N VMs from
// one 256 MiB image, swarm chunk distribution versus naive whole-image
// staging. The paper's "grid computing on virtual machines" pitch lives
// or dies on image logistics — shipping a full disk image to every
// compute server through one archive server serializes on the origin's
// disk and uplink, so time-to-N-booted grows linearly in N. The swarm
// path chops the image into content-addressed chunks, lets every host
// that holds a chunk serve it, and rations the origin's upload slots:
// the origin ships each chunk O(1) times and the fleet's aggregate
// bandwidth does the rest. "Booted" here = the image staged locally and
// ready to instantiate (chunk accessor chains make boot-from-chunks
// immediate); the staging transfer is the term that scales with N.
//
// Three scenarios per fleet size:
//   naive/nN   every host GridFTP-stages the whole image from the origin
//   swarm/nN   every host swarm-fetches the chunk manifest (flash crowd);
//              origin chunk uploads ride striped GridFTP transfers
//   delta/nN   after v1 is fleet-wide, a derived v2 (1/8 of chunks
//              changed) is pushed: content addressing dedups the
//              unchanged 7/8, only the delta moves
//
// The sweep (fleet sizes, replicas per point, image and chunk size,
// streams per host) is fixed below; VMGRID_JOBS sets the replication
// worker threads, and results are byte-identical for every value.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "image/chunk_directory.hpp"
#include "image/chunk_store.hpp"
#include "image/manifest.hpp"
#include "image/swarm.hpp"
#include "middleware/gridftp.hpp"
#include "net/network.hpp"
#include "sim/replication.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"
#include "storage/local_fs.hpp"

namespace {

using namespace vmgrid;

constexpr std::uint64_t kMiB = 1ull << 20;

/// Fleet sizes to sweep, ascending.
constexpr std::array<std::size_t, 3> kFleetSizes{10, 100, 1000};
constexpr std::size_t kSamplesPerPoint = 2;        ///< replicas per (scenario, N)
constexpr std::uint64_t kImageBytes = 256 * kMiB;  ///< the VM image
constexpr std::uint64_t kChunkBytes = 4 * kMiB;    ///< content-addressed chunk
constexpr std::uint32_t kStreams = 4;              ///< parallel chunk streams per host

enum class Mode : std::size_t { kSwarm = 0, kNaive = 1 };

// Topology: origin --1 Gbps-- hub --100 Mbps-- hostI. The origin's own
// disk (2003-era 30 MB/s) is the archive bottleneck naive staging
// serializes on; host uplinks are the per-fetch floor either way.
constexpr double kOriginLinkBps = 125e6;
constexpr double kHostLinkBps = 12.5e6;

struct ReplicaResult {
  bool all_ok{true};
  double time_to_all_s{0.0};        ///< last host finished staging v1
  bench::SampleSet per_host_s;      ///< per-host staging latency (v1)
  std::uint64_t origin_bytes{0};    ///< bytes the origin served (v1 phase)
  std::uint64_t peer_bytes{0};
  std::uint64_t origin_chunks{0};
  std::uint64_t peer_chunks{0};
  // Delta phase (swarm replicas only): push v2 = v1 with 1/8 re-addressed.
  double delta_time_to_all_s{0.0};
  std::uint64_t delta_bytes{0};       ///< bytes actually transferred fleet-wide
  std::uint64_t delta_local{0};       ///< chunk fetches satisfied by dedup
  std::uint64_t delta_total{0};       ///< chunk slots examined fleet-wide
};

struct Host {
  net::NodeId id;
  std::unique_ptr<storage::Disk> disk;
  std::unique_ptr<storage::LocalFileSystem> fs;
  std::unique_ptr<image::ChunkStore> store;
};

/// One replica: pure function of (mode, N index, sample index), so
/// replicas fan out across VMGRID_JOBS and fold in index order without
/// changing a bit.
ReplicaResult run_replica(Mode mode, std::size_t n_idx, std::size_t sample_idx) {
  const std::size_t n = kFleetSizes[n_idx];
  const std::uint64_t seed = 52000 + 1009 * sample_idx + 101 * n_idx +
                             (mode == Mode::kSwarm ? 0 : 1);

  sim::Simulation sim{seed};
  net::Network net{sim};
  const auto hub = net.add_node("hub");
  const auto origin = net.add_node("origin");
  net.add_link(origin, hub, net::LinkParams{sim::Duration::millis(1), kOriginLinkBps});

  storage::Disk origin_disk{sim, storage::DiskParams{}};
  storage::LocalFileSystem origin_fs{sim, origin_disk};

  std::vector<std::unique_ptr<Host>> hosts;
  hosts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& h = *hosts.emplace_back(std::make_unique<Host>());
    h.id = net.add_node("host" + std::to_string(i));
    net.add_link(h.id, hub, net::LinkParams{sim::Duration::millis(1), kHostLinkBps});
    h.disk = std::make_unique<storage::Disk>(sim, storage::DiskParams{});
    h.fs = std::make_unique<storage::LocalFileSystem>(sim, *h.disk);
    h.store = std::make_unique<image::ChunkStore>(sim, *h.fs);
  }

  middleware::GridFtp ftp{sim, net};
  ReplicaResult out;

  if (mode == Mode::kNaive) {
    // Whole-image staging: every host pulls image.raw from the origin,
    // all starting at t=0 (the flash crowd a new batch submission is).
    origin_fs.create("image.raw", kImageBytes);
    middleware::GridFtpParams fp;
    fp.parallel_streams = kStreams;
    fp.chunk_bytes = kChunkBytes;
    std::size_t pending = n;
    for (auto& h : hosts) {
      ftp.transfer(origin_fs, origin, "image.raw", *h->fs, h->id, "image.raw",
                   fp, [&](middleware::FtpTransferResult r) {
                     out.all_ok = out.all_ok && r.ok();
                     out.per_host_s.add(r.elapsed.to_seconds());
                     if (--pending == 0) out.time_to_all_s = sim.now().to_seconds();
                   });
    }
    sim.run();
    out.origin_bytes = static_cast<std::uint64_t>(n) * kImageBytes;
    return out;
  }

  // Swarm mode: chunked image, content-addressed store per host, origin
  // uploads carried by striped GridFTP (data channels stay up across the
  // session, so per-chunk control cost is the command round-trip, not a
  // fresh handshake — the swarm already charges its own per-fetch setup).
  image::ChunkDirectory dir;
  image::SwarmParams sp;
  sp.streams = kStreams;
  image::SwarmDistributor swarm{sim, net, dir, sp};

  image::ChunkStore origin_store{sim, origin_fs};
  const auto v1 = image::build_manifest("rh7.2", kImageBytes, kChunkBytes);
  origin_store.add_manifest(v1);
  for (const image::ChunkId id : v1.chunks) dir.register_holder(id, origin);
  swarm.register_store(origin, origin_store);
  swarm.set_origin(origin);
  middleware::GridFtpParams chunk_ftp;
  chunk_ftp.parallel_streams = kStreams;
  chunk_ftp.chunk_bytes = std::max<std::uint64_t>(kChunkBytes / kStreams, 256 * 1024);
  chunk_ftp.control_setup = sim::Duration::millis(10);
  swarm.set_origin_transport(
      [&ftp, chunk_ftp](storage::LocalFileSystem& src_fs, net::NodeId src,
                        const std::string& path, storage::LocalFileSystem& dst_fs,
                        net::NodeId dst, std::uint64_t,
                        image::SwarmDistributor::TransportCallback done) {
        ftp.transfer(src_fs, src, path, dst_fs, dst, path, chunk_ftp,
                     [done](middleware::FtpTransferResult r) {
                       done(std::move(r.status), r.bytes);
                     });
      });
  for (auto& h : hosts) swarm.register_store(h->id, *h->store);

  const auto fetch_all = [&](const image::ImageManifest& m, double& time_to_all,
                             bench::SampleSet* latencies, std::uint64_t* bytes,
                             std::uint64_t* local, std::uint64_t* total) {
    const sim::TimePoint t0 = sim.now();
    std::size_t pending = hosts.size();
    for (auto& h : hosts) {
      swarm.fetch(m, h->id, [&](image::SwarmFetchResult r) {
        out.all_ok = out.all_ok && r.ok();
        if (latencies != nullptr) latencies->add(r.elapsed.to_seconds());
        if (bytes != nullptr) *bytes += r.bytes_fetched();
        if (local != nullptr) *local += r.chunks_local;
        if (total != nullptr) *total += m.chunk_count();
        if (--pending == 0) time_to_all = (sim.now() - t0).to_seconds();
      });
    }
    sim.run();
  };

  fetch_all(v1, out.time_to_all_s, &out.per_host_s, nullptr, nullptr, nullptr);
  out.origin_bytes = swarm.origin_bytes_served();
  out.peer_bytes = swarm.peer_bytes_served();
  out.origin_chunks = swarm.origin_chunks_served();
  out.peer_chunks = swarm.peer_chunks_served();

  // Delta push: v2 re-addresses every 8th chunk; everything else keeps
  // its v1 address and dedups against the local stores.
  std::vector<std::uint32_t> changed;
  for (std::uint32_t i = 0; i < v1.chunk_count(); i += 8) changed.push_back(i);
  const auto v2 = image::derive_manifest(v1, changed);
  origin_store.add_manifest(v2);
  for (const std::uint32_t i : v2.delta) dir.register_holder(v2.chunks[i], origin);
  fetch_all(v2, out.delta_time_to_all_s, nullptr, &out.delta_bytes,
            &out.delta_local, &out.delta_total);
  return out;
}

struct PointSummary {
  bench::SampleSet time_to_all;  ///< across sample replicas
  bench::SampleSet per_host;     ///< per-host staging latencies, all replicas
  bench::SampleSet delta_time;
  std::uint64_t origin_bytes{0};
  std::uint64_t peer_bytes{0};
  std::uint64_t origin_chunks{0};
  std::uint64_t peer_chunks{0};
  std::uint64_t delta_bytes{0};
  std::uint64_t delta_local{0};
  std::uint64_t delta_total{0};
  bool all_ok{true};

  [[nodiscard]] double peer_hit_ratio() const {
    const auto total = origin_chunks + peer_chunks;
    return total == 0 ? 0.0
                      : static_cast<double>(peer_chunks) / static_cast<double>(total);
  }
};

/// acc[mode][n_idx]; replicas fold in index order (VMGRID_JOBS-invariant).
std::array<std::vector<PointSummary>, 2>& results() {
  static std::array<std::vector<PointSummary>, 2> acc = [] {
    constexpr std::size_t n_points = kFleetSizes.size();
    constexpr std::size_t n_samples = kSamplesPerPoint;
    sim::ReplicationRunner pool;
    const auto replicas = pool.map(2 * n_points * n_samples, [](std::size_t idx) {
      const auto mode = static_cast<Mode>(idx / (n_points * n_samples));
      const std::size_t rest = idx % (n_points * n_samples);
      return run_replica(mode, rest / n_samples, rest % n_samples);
    });
    std::array<std::vector<PointSummary>, 2> out;
    out[0].resize(n_points);
    out[1].resize(n_points);
    for (std::size_t idx = 0; idx < replicas.size(); ++idx) {
      const auto& r = replicas[idx];
      auto& s = out[idx / (n_points * n_samples)][(idx % (n_points * n_samples)) / n_samples];
      s.time_to_all.add(r.time_to_all_s);
      s.per_host.merge(r.per_host_s);
      if (r.delta_time_to_all_s > 0.0) s.delta_time.add(r.delta_time_to_all_s);
      s.origin_bytes += r.origin_bytes;
      s.peer_bytes += r.peer_bytes;
      s.origin_chunks += r.origin_chunks;
      s.peer_chunks += r.peer_chunks;
      s.delta_bytes += r.delta_bytes;
      s.delta_local += r.delta_local;
      s.delta_total += r.delta_total;
      s.all_ok = s.all_ok && r.all_ok;
    }
    return out;
  }();
  return acc;
}

void print_table() {
  auto& acc = results();
  constexpr std::size_t n_samples = kSamplesPerPoint;
  bench::print_header(
      "Image distribution: time to N staged VMs, swarm vs naive (" +
      std::to_string(kImageBytes / kMiB) + " MiB image, " +
      std::to_string(kChunkBytes / kMiB) + " MiB chunks, " +
      std::to_string(n_samples) + " replicas/point)");
  std::printf("%-10s %-8s %14s %12s %14s %10s %12s\n", "mode", "N",
              "time-to-all", "host p50", "origin GiB", "peer hit", "delta s");
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t i = 0; i < kFleetSizes.size(); ++i) {
      const auto& s = acc[m][i];
      const double origin_gib =
          static_cast<double>(s.origin_bytes) / static_cast<double>(n_samples) /
          static_cast<double>(1ull << 30);
      std::printf("%-10s %-8zu %14.1f %12.1f %14.2f %10.2f %12.1f\n",
                  m == 0 ? "swarm" : "naive", kFleetSizes[i], s.time_to_all.mean(),
                  s.per_host.percentile(50.0), origin_gib, s.peer_hit_ratio(),
                  s.delta_time.mean());
    }
  }

  bench::JsonReporter report{"image_swarm"};
  report.set_unit("seconds");
  for (std::size_t m = 0; m < 2; ++m) {
    const std::string mode_name = m == 0 ? "swarm" : "naive";
    for (std::size_t i = 0; i < kFleetSizes.size(); ++i) {
      const auto& s = acc[m][i];
      const std::string name = mode_name + "/n" + std::to_string(kFleetSizes[i]);
      report.add_samples(name, s.time_to_all);
      report.add_field(name, "n", static_cast<double>(kFleetSizes[i]));
      report.add_field(name, "image_mib",
                       static_cast<double>(kImageBytes) / static_cast<double>(kMiB));
      report.add_field(name, "host_p50_s", s.per_host.percentile(50.0));
      report.add_field(name, "host_p99_s", s.per_host.percentile(99.0));
      report.add_field(name, "origin_bytes", static_cast<double>(s.origin_bytes));
      report.add_field(name, "peer_bytes", static_cast<double>(s.peer_bytes));
      report.add_field(name, "peer_hit_ratio", s.peer_hit_ratio());
      report.add_field(name, "all_ok", s.all_ok ? 1.0 : 0.0);
      if (m == 0) {
        const std::string dname = "delta/n" + std::to_string(kFleetSizes[i]);
        report.add_samples(dname, s.delta_time);
        report.add_field(dname, "n", static_cast<double>(kFleetSizes[i]));
        report.add_field(dname, "bytes_moved", static_cast<double>(s.delta_bytes));
        report.add_field(
            dname, "bytes_full_refresh",
            static_cast<double>(kFleetSizes[i]) * static_cast<double>(kImageBytes) *
                static_cast<double>(n_samples));
        report.add_field(dname, "dedup_chunk_ratio",
                         s.delta_total == 0
                             ? 0.0
                             : static_cast<double>(s.delta_local) /
                                   static_cast<double>(s.delta_total));
      }
    }
  }
  report.write();

  std::printf("\nShape checks:\n");
  bool ok = true;
  for (std::size_t m = 0; m < 2; ++m) {
    for (const auto& s : acc[m]) ok = ok && s.all_ok;
  }
  bench::print_shape_check("every staging fetch completed successfully", ok);

  const std::size_t last = kFleetSizes.size() - 1;
  const auto& sw = acc[0][last];
  const auto& nv = acc[1][last];
  bench::print_shape_check(
      "swarm at N=" + std::to_string(kFleetSizes[last]) + ": peer hit ratio > 0.8",
      sw.peer_hit_ratio() > 0.8);
  // The naive path serializes on the origin, so its disadvantage is
  // linear in N; below ~100 hosts the gap hasn't opened to 5x yet.
  static_assert(kFleetSizes.back() >= 100);
  bench::print_shape_check(
      "swarm at N=" + std::to_string(kFleetSizes[last]) +
          ": >=5x faster to all-staged than naive",
      sw.time_to_all.mean() > 0.0 &&
          nv.time_to_all.mean() >= 5.0 * sw.time_to_all.mean());
  // Origin egress sublinear in N: the whole point of the swarm. Allow 4x
  // the unique bytes for slot-rationed serving plus retry slack; naive
  // serves exactly N times the image.
  const double origin_per_replica =
      static_cast<double>(sw.origin_bytes) / static_cast<double>(n_samples);
  bench::print_shape_check(
      "swarm at N=" + std::to_string(kFleetSizes[last]) +
          ": origin serves <= 4x unique image bytes",
      origin_per_replica <= 4.0 * static_cast<double>(kImageBytes));
  const auto& sw0 = acc[0][0];
  const double growth = sw0.origin_bytes == 0 ? 0.0
                                              : static_cast<double>(sw.origin_bytes) /
                                                    static_cast<double>(sw0.origin_bytes);
  const double fleet_growth =
      static_cast<double>(kFleetSizes[last]) / static_cast<double>(kFleetSizes[0]);
  bench::print_shape_check("swarm origin egress grows sublinearly in N",
                           growth < 0.5 * fleet_growth);
  const double delta_fraction =
      static_cast<double>(sw.delta_bytes) /
      (static_cast<double>(kFleetSizes[last]) * static_cast<double>(kImageBytes) *
       static_cast<double>(n_samples));
  bench::print_shape_check(
      "delta push moves < 20% of a full fleet refresh (1/8 changed)",
      delta_fraction > 0.0 && delta_fraction < 0.2);
  bench::print_shape_check(
      "delta push dedups >= 80% of chunk fetches locally",
      sw.delta_total > 0 &&
          static_cast<double>(sw.delta_local) >=
              0.8 * static_cast<double>(sw.delta_total));
}

}  // namespace

int main(int argc, char** argv) {
  vmgrid::bench::require_no_args(argc, argv);
  print_table();
  return vmgrid::bench::shape_exit_code();
}
