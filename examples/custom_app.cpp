// Writing your own workload against the full 1024-core paper machine:
// a parallel histogram with privatization, run on ATAC+ and EMesh-BCast to
// compare architectures end-to-end (runtime AND energy-delay product).
//
//   $ ./build/examples/custom_app
//
// Every array the kernel reads or writes comes from a sim::AddressSpace
// that the body hands to the machine, so an ATACSIM_VALIDATE=1 run checks
// that no access strays outside it.
#include <cstdio>
#include <span>

#include "core/program.hpp"
#include "core/sync.hpp"
#include "power/energy_model.hpp"
#include "sim/address_space.hpp"

using namespace atacsim;

namespace {

constexpr int kCores = 1024;
constexpr int kItems = 16384;
constexpr int kBuckets = 64;

struct Shared {
  explicit Shared(sim::AddressSpace& space)
      : barrier(kCores, space),
        items(space.array<std::uint64_t>(kItems)),
        partial(space.array<std::uint64_t>(static_cast<std::size_t>(kCores) *
                                           kBuckets)),
        global(space.array<std::uint64_t>(kBuckets)) {}
  core::Barrier barrier;
  std::span<std::uint64_t> items;
  // One privatized histogram row per core, then a shared reduction.
  std::span<std::uint64_t> partial;
  std::span<std::uint64_t> global;
};

core::Task kernel(core::CoreCtx& c, Shared& sh) {
  core::Barrier::Sense sense;
  const int per = kItems / kCores;
  const int base = c.id() * per;

  std::uint64_t local[kBuckets] = {};
  for (int i = base; i < base + per; ++i) {
    const auto v = co_await c.read(&sh.items[static_cast<std::size_t>(i)]);
    ++local[v % kBuckets];
    co_await c.compute(3);
  }
  for (int b = 0; b < kBuckets; ++b)
    co_await c.write(
        &sh.partial[static_cast<std::size_t>(c.id()) * kBuckets + b],
        local[b]);
  co_await sh.barrier.wait(c, sense);

  // Bucket owners reduce their column.
  for (int b = c.id(); b < kBuckets; b += kCores) {
    std::uint64_t sum = 0;
    for (int core = 0; core < kCores; ++core)
      sum += co_await c.read(
          &sh.partial[static_cast<std::size_t>(core) * kBuckets + b]);
    co_await c.write(&sh.global[static_cast<std::size_t>(b)], sum);
  }
  co_await sh.barrier.wait(c, sense);
}

void run_on(const MachineParams& mp, const char* label) {
  sim::AddressSpace space;
  Shared sh(space);
  for (std::size_t i = 0; i < sh.items.size(); ++i)
    sh.items[i] = i * 2654435761u;

  core::Program prog(mp);
  prog.spawn_all({[&sh](core::CoreCtx& c) { return kernel(c, sh); }, &space});
  const auto r = prog.run();

  std::uint64_t total = 0;
  for (auto v : sh.global) total += v;

  const power::EnergyModel em(mp);
  const auto e = em.compute(r.net, r.mem, r.core,
                            static_cast<double>(r.completion_cycles));
  const double seconds = static_cast<double>(r.completion_cycles) * 1e-9;
  std::printf(
      "%-12s: %7llu cycles, %6.2f uJ (net %5.2f / cache %5.2f), "
      "EDP %.3g Js, histogram total %llu (%s)\n",
      label, (unsigned long long)r.completion_cycles,
      e.chip_no_core() * 1e6, e.network() * 1e6, e.caches() * 1e6,
      e.chip_no_core() * seconds, (unsigned long long)total,
      total == kItems ? "ok" : "WRONG");
}

}  // namespace

int main() {
  std::printf("custom app: 1024-core parallel histogram\n\n");
  auto atac = MachineParams::paper();
  run_on(atac, "ATAC+");
  auto mesh = MachineParams::paper();
  mesh.network = NetworkKind::kEMeshBCast;
  run_on(mesh, "EMesh-BCast");
  return 0;
}
