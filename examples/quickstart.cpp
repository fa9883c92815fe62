// Quickstart: simulate a small shared-memory program on a 64-core ATAC+
// machine, print performance, traffic, and energy.
//
//   $ ./build/examples/quickstart
//
// The program below runs one coroutine per simulated core; every co_await'd
// read/write/rmw is timed through the simulated L1/L2 caches, the ACKwise
// directory protocol, and the opto-electronic network, with full
// back-pressure into the application. The data it shares comes from a
// sim::AddressSpace, which the body hands to the machine; with
// ATACSIM_VALIDATE=1 any access outside it is an error.
#include <cstdio>
#include <span>

#include "core/program.hpp"
#include "core/sync.hpp"
#include "power/energy_model.hpp"
#include "sim/address_space.hpp"

using namespace atacsim;

namespace {

struct Shared {
  explicit Shared(sim::AddressSpace& space)
      : barrier(64, space),
        data(space.array<std::uint64_t>(4096)),
        checksum(space.make<std::uint64_t>()) {}
  core::Barrier barrier;
  std::span<std::uint64_t> data;
  std::uint64_t& checksum;
};

core::Task kernel(core::CoreCtx& c, Shared& sh) {
  core::Barrier::Sense sense;
  const int per = 4096 / c.num_cores();
  const int base = c.id() * per;

  // Phase 1: every core writes its slice.
  for (int i = base; i < base + per; ++i)
    co_await c.write<std::uint64_t>(&sh.data[static_cast<std::size_t>(i)],
                                    static_cast<std::uint64_t>(i));
  co_await sh.barrier.wait(c, sense);

  // Phase 2: every core reads its neighbour's slice (remote traffic) and
  // folds it into a shared checksum with an atomic RMW.
  std::uint64_t local = 0;
  const int nbase = ((c.id() + 1) % c.num_cores()) * per;
  for (int i = nbase; i < nbase + per; ++i)
    local += co_await c.read(&sh.data[static_cast<std::size_t>(i)]);
  co_await c.rmw(&sh.checksum, [local](std::uint64_t v) { return v + local; });
  co_await sh.barrier.wait(c, sense);
}

}  // namespace

int main() {
  // A 64-core machine (8x8 mesh, 16 clusters) with the paper's defaults:
  // ACKwise4, Distance-15 routing, StarNet receive network.
  auto mp = MachineParams::small(8, 2);
  mp.network = NetworkKind::kAtacPlus;
  mp.r_thres = 6;  // scaled-down distance threshold for the small mesh

  sim::AddressSpace space;
  Shared sh(space);
  core::Program prog(mp);
  prog.spawn_all({[&sh](core::CoreCtx& c) { return kernel(c, sh); }, &space});
  const auto r = prog.run();

  std::printf("finished            : %s\n", r.finished ? "yes" : "NO");
  std::printf("checksum            : %llu (expect %llu)\n",
              (unsigned long long)sh.checksum,
              (unsigned long long)(4096ull * 4095 / 2));
  std::printf("completion          : %llu cycles\n",
              (unsigned long long)r.completion_cycles);
  std::printf("instructions        : %llu (IPC %.3f)\n",
              (unsigned long long)r.core.instructions, r.avg_ipc);
  std::printf("L2 misses           : %llu\n",
              (unsigned long long)r.mem.l2_misses);
  std::printf("unicast packets     : %llu\n",
              (unsigned long long)r.net.unicast_packets);
  std::printf("broadcast packets   : %llu\n",
              (unsigned long long)r.net.bcast_packets);

  const power::EnergyModel em(mp);
  const auto e = em.compute(r.net, r.mem, r.core,
                            static_cast<double>(r.completion_cycles));
  std::printf("network energy      : %.3f uJ\n", e.network() * 1e6);
  std::printf("cache energy        : %.3f uJ\n", e.caches() * 1e6);
  std::printf("chip energy (+core) : %.3f uJ\n", e.chip() * 1e6);
  return r.finished && sh.checksum == 4096ull * 4095 / 2 ? 0 : 1;
}
