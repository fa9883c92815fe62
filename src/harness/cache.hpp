// On-disk scenario-result cache for the bench binaries.
//
// A full 1024-core application run costs seconds to minutes of host time;
// many figures consume the same runs (and the photonic technology flavours
// of Table IV change only the energy model, not the simulation). The cache
// keys on everything that affects the *simulation* and stores the raw
// activity counters; energy is always recomputed by the consumer.
//
// Location: $ATACSIM_CACHE (read at every call), or ./bench_cache when it
// is unset or empty. Delete the directory to force fresh runs.
#pragma once

#include "harness/runner.hpp"

namespace atacsim::harness {

/// Cache key: every simulation-relevant field of the scenario.
std::string scenario_key(const Scenario& s);

/// Loads the cached counters for `s` into `o` (app/config stamped from the
/// scenario; energy left zero for the caller to compute under its own
/// photonic flavour). Returns false on miss or a torn/invalid entry.
/// Safe against concurrent writers in other threads/processes: entries are
/// committed atomically, so a reader sees either a complete entry or none.
bool try_load_cached(const Scenario& s, Outcome& o);

/// Commits `o` to the cache: written to a unique temp file in the cache
/// directory, then atomically rename(2)d into place, so concurrent readers
/// and competing writers (other processes included) never observe a partial
/// entry. Last writer wins, which is harmless — entries for one key are
/// deterministic.
void store_cached(const Scenario& s, const Outcome& o);

/// Cache directory in use.
std::string cache_dir();

}  // namespace atacsim::harness
