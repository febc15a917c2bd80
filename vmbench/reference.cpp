// The host-speed reference: a fixed piece of work that never calls into the
// library. main.cpp times it between repetitions and expresses the
// wall-clock figures at a fixed host speed with it.
//
// Its mix follows the simulator's hot paths and, like them, stays mostly
// in the core's own caches: a binary-heap event queue, lookups in a
// string-keyed hash map whose keys need a heap allocation (like block-cache
// keys), and dependent loads over a small table. A memory-bound reference
// follows the workloads less closely: on a shared host it swings about
// twice as much as they do with the load of other tenants.

#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace vmbench {
namespace {

constexpr std::uint32_t kChaseSlots = 1u << 15;  // 128 KiB of links
constexpr std::uint64_t kKeys = 2'048;
constexpr int kQueued = 4'096;
constexpr int kEvents = 300'000;

// Keeps the loop's result observable, so the compiler cannot drop it.
volatile std::uint64_t sink;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One random cycle through every slot.
std::vector<std::uint32_t> make_cycle() {
  std::vector<std::uint32_t> order(kChaseSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
    std::swap(order[i], order[xorshift(x) % (i + 1)]);
  }
  std::vector<std::uint32_t> next(kChaseSlots);
  for (std::uint32_t i = 0; i < kChaseSlots; ++i) next[order[i]] = order[(i + 1) % kChaseSlots];
  return next;
}

}  // namespace

double reference_work_s() {
  static const std::vector<std::uint32_t> next = make_cycle();
  const auto t0 = Clock::now();
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::string, std::uint64_t> cache;
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::uint64_t acc = 0;
  std::uint32_t at = 0;
  for (int i = 0; i < kQueued; ++i) {
    queue.emplace(xorshift(x) % 1'000'000, static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < kEvents; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    for (int k = 0; k < 8; ++k) at = next[at ^ (id & 0xff)];
    acc += ++cache["image/base/block/" + std::to_string((at + id) % kKeys)];
    queue.emplace(t + 1 + xorshift(x) % 1'000, at);
  }
  sink = acc;
  return seconds_since(t0);
}

}  // namespace vmbench
