// Event counters produced by the functional simulation and consumed by the
// power models — the same "Graphite counters -> DSENT/McPAT energies"
// toolflow as the paper (Sec. V-A).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/stats.hpp"

// X-macro field lists: every plain uint64 counter field, in declaration
// order. They name the counters once, and this header is the one place in
// src/ that expands them: each list becomes a for_each_counter walk, with a
// field-wise +=, - and is_zero built on it. Program::run sums the cores
// with +=; the epoch sampler takes deltas with -, merges and totals with +=
// and drops a quiet flush with is_zero; the kObs probe, Digest::add, the
// scenario cache, the series columns and the report's net and mem columns
// call the walk. The static_asserts below fail to compile when a struct
// field is missing from its list. packet_latency is intentionally unlisted.
#define ATACSIM_NET_COUNTER_FIELDS(X) \
  X(enet_router_flits)                \
  X(enet_link_flits)                  \
  X(recvnet_link_flits)               \
  X(hub_flits)                        \
  X(onet_flits_sent)                  \
  X(onet_flit_receptions)             \
  X(onet_selects)                     \
  X(laser_unicast_cycles)             \
  X(laser_bcast_cycles)               \
  X(unicast_packets)                  \
  X(bcast_packets)                    \
  X(flits_injected)                   \
  X(recv_unicast_flits)               \
  X(recv_bcast_flits)                 \
  X(unicast_flits_offered)            \
  X(bcast_flits_offered)

#define ATACSIM_MEM_COUNTER_FIELDS(X) \
  X(l1i_accesses)                     \
  X(l1d_reads)                        \
  X(l1d_writes)                       \
  X(l2_reads)                         \
  X(l2_writes)                        \
  X(dir_reads)                        \
  X(dir_writes)                       \
  X(dram_reads)                       \
  X(dram_writes)                      \
  X(l1d_misses)                       \
  X(l2_misses)                        \
  X(invalidations_sent)               \
  X(bcast_invalidations)

#define ATACSIM_CORE_COUNTER_FIELDS(X) \
  X(instructions)                      \
  X(busy_cycles)

namespace atacsim {

/// Network activity counters, filled by whichever NetworkModel runs.
struct NetCounters {
  // --- electrical ---
  std::uint64_t enet_router_flits = 0;  ///< flit x router traversals
  std::uint64_t enet_link_flits = 0;    ///< flit x link traversals
  std::uint64_t recvnet_link_flits = 0; ///< StarNet/BNet link traversals
  std::uint64_t hub_flits = 0;          ///< flits crossing a hub

  // --- optical ---
  std::uint64_t onet_flits_sent = 0;        ///< flits modulated onto the ONet
  std::uint64_t onet_flit_receptions = 0;   ///< flits x tuned-in receivers
  std::uint64_t onet_selects = 0;           ///< select-link notifications
  std::uint64_t laser_unicast_cycles = 0;   ///< summed over all hub lasers
  std::uint64_t laser_bcast_cycles = 0;     ///< summed over all hub lasers

  // --- traffic accounting (Figs. 5, 6; Table V) ---
  std::uint64_t unicast_packets = 0;
  std::uint64_t bcast_packets = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t recv_unicast_flits = 0;  ///< receiver-side unicast flits
  std::uint64_t recv_bcast_flits = 0;    ///< receiver-side broadcast flits

  // --- flow-conservation ledger (src/check) ---
  // Logical payload flits offered per class, counted once per packet
  // regardless of how many physical copies a model makes. Conservation:
  // recv_unicast_flits == unicast_flits_offered, and
  // recv_bcast_flits == bcast_flits_offered x (num_cores - 1).
  std::uint64_t unicast_flits_offered = 0;
  std::uint64_t bcast_flits_offered = 0;

  Accumulator packet_latency;  ///< injection -> (last) delivery, cycles

  /// The listed counters of `o` added field-wise (the `+=` below).
  void add(const NetCounters& o);
};

/// Memory-hierarchy activity counters (whole machine).
struct MemCounters {
  std::uint64_t l1i_accesses = 0;
  std::uint64_t l1d_reads = 0;
  std::uint64_t l1d_writes = 0;
  std::uint64_t l2_reads = 0;
  std::uint64_t l2_writes = 0;
  std::uint64_t dir_reads = 0;
  std::uint64_t dir_writes = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t invalidations_sent = 0;
  std::uint64_t bcast_invalidations = 0;
};

/// Per-core execution counters (whole machine aggregates).
struct CoreCounters {
  std::uint64_t instructions = 0;
  std::uint64_t busy_cycles = 0;  ///< cycles cores spent not stalled
};

// A struct field missing from its list changes the byte count and fails
// the build here.
#define ATACSIM_X(f) +sizeof(std::uint64_t)
static_assert(0 ATACSIM_NET_COUNTER_FIELDS(ATACSIM_X) ==
                  offsetof(NetCounters, packet_latency),
              "ATACSIM_NET_COUNTER_FIELDS must list every NetCounters field");
static_assert(offsetof(NetCounters, packet_latency) + sizeof(Accumulator) ==
                  sizeof(NetCounters),
              "packet_latency must stay the last NetCounters field");
static_assert(0 ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X) == sizeof(MemCounters),
              "ATACSIM_MEM_COUNTER_FIELDS must list every MemCounters field");
static_assert(0 ATACSIM_CORE_COUNTER_FIELDS(ATACSIM_X) == sizeof(CoreCounters),
              "ATACSIM_CORE_COUNTER_FIELDS must list every CoreCounters field");
#undef ATACSIM_X

// --- the walks ----------------------------------------------------------
// for_each_counter(f, a, b...) calls f("name", a.name, b.name...) for each
// counter of the blocks' list, in list order. Every block passed is the
// same struct, const or not, so f may write through a non-const one.

template <typename B, typename Block>
concept BlockOf = std::same_as<std::remove_cvref_t<B>, Block>;

#define ATACSIM_X(f) fn(#f, blocks.f...);
template <typename Fn, BlockOf<NetCounters>... B>
void for_each_counter(Fn&& fn, B&&... blocks) {
  ATACSIM_NET_COUNTER_FIELDS(ATACSIM_X)
}
template <typename Fn, BlockOf<MemCounters>... B>
void for_each_counter(Fn&& fn, B&&... blocks) {
  ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X)
}
template <typename Fn, BlockOf<CoreCounters>... B>
void for_each_counter(Fn&& fn, B&&... blocks) {
  ATACSIM_CORE_COUNTER_FIELDS(ATACSIM_X)
}
#undef ATACSIM_X

/// Any of the three counter blocks.
template <typename T>
concept CounterBlock = std::same_as<T, NetCounters> ||
                       std::same_as<T, MemCounters> ||
                       std::same_as<T, CoreCounters>;

/// Field-wise sum of the listed counters (NetCounters::packet_latency is
/// left as it is).
template <CounterBlock T>
T& operator+=(T& a, const T& b) {
  for_each_counter([](auto, auto& x, auto y) { x += y; }, a, b);
  return a;
}

/// Field-wise difference of the listed counters, e.g. an epoch's delta from
/// two absolute snapshots.
template <CounterBlock T>
T operator-(const T& a, const T& b) {
  T d;
  for_each_counter([](auto, auto& out, auto x, auto y) { out = x - y; }, d,
                   a, b);
  return d;
}

/// True when every listed counter is 0.
template <CounterBlock T>
bool is_zero(const T& a) {
  std::uint64_t acc = 0;
  for_each_counter([&acc](auto, auto v) { acc |= v; }, a);
  return acc == 0;
}

inline void NetCounters::add(const NetCounters& o) { *this += o; }

}  // namespace atacsim
