// Coherence protocol message vocabulary and shared plumbing types.
//
// The protocol is a full-map-semantics MSI directory protocol with two
// sharer-tracking schemes (paper Sec. III-B, V-F):
//   * ACKwise_k — tracks up to k sharer pointers; past k it sets a global
//     bit and keeps an exact sharer count. Invalidations then broadcast, but
//     only actual sharers acknowledge. Requires eviction notifications.
//   * Dir_kB   — tracks up to k pointers; past k it broadcasts and collects
//     acknowledgements from EVERY core. Supports silent evictions.
// Broadcast/unicast ordering across the two physical networks is restored
// with per-directory-slice sequence numbers (paper Sec. IV-C-1).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace atacsim::mem {

enum class CohType : std::uint8_t {
  // cache -> directory
  kShReq,        ///< read miss: request shared copy
  kExReq,        ///< write miss / upgrade: request exclusive copy
  kEvictNotify,  ///< clean S-line eviction (ACKwise only)
  kDirtyWb,      ///< M-line eviction with data
  // directory -> cache
  kInvReq,    ///< invalidate (unicast or broadcast)
  kFlushReq,  ///< owner must invalidate and return data
  kWbReq,     ///< owner must demote M->S and return data
  kShRep,     ///< shared response (carries line)
  kExRep,     ///< exclusive response (carries line)
  // cache -> directory (acknowledgements)
  kInvAck,
  kFlushAck,  ///< carries data if the line was still present
  kWbAck,     ///< carries data if the line was still present
};

const char* to_string(CohType t);

/// True for the messages a directory slice handles; every other type is
/// sent by a slice to a cache.
inline bool to_directory(CohType t) {
  switch (t) {
    case CohType::kShReq:
    case CohType::kExReq:
    case CohType::kEvictNotify:
    case CohType::kDirtyWb:
    case CohType::kInvAck:
    case CohType::kFlushAck:
    case CohType::kWbAck:
      return true;
    default:
      return false;
  }
}

/// Fields are ordered widest first, so a message packs into 32 bytes: every
/// pending delivery, queued request and deferred unicast holds one.
struct CohMsg {
  Addr line = 0;          ///< line-aligned address
  CoreId src = kInvalidCore;
  CoreId dst = kInvalidCore;       ///< kBroadcastCore for broadcast invs
  CoreId requester = kInvalidCore; ///< original requester (directory txns)
  HubId dir_slice = -1;            ///< slice the seq belongs to
  std::uint16_t seq = 0;           ///< directory-slice sequence number
  CohType type{};
  bool carries_data = false;

  bool is_broadcast() const { return dst == kBroadcastCore; }
};
static_assert(sizeof(CohMsg) == 32);

/// 16-bit sequence numbers with TCP-style wraparound ordering.
inline bool seq_before_eq(std::uint16_t a, std::uint16_t b) {
  // a <= b in modular arithmetic (window < 2^15).
  return static_cast<std::uint16_t>(b - a) < 0x8000;
}
inline bool seq_before(std::uint16_t a, std::uint16_t b) {
  return a != b && seq_before_eq(a, b);
}
/// A core has processed broadcast `seq` from a slice whose last processed
/// broadcast was `last`: moves `last` forward, never back.
inline void advance_seq(std::uint16_t& last, std::uint16_t seq) {
  if (seq_before(last, seq)) last = seq;
}

}  // namespace atacsim::mem
