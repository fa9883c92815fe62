// Application workload interface and registry.
//
// Reimplementations of the paper's eight benchmarks (seven SPLASH-2 kernels
// plus the DARPA-UHPC dynamic-graph application), written as shared-memory
// programs against the CoreCtx API: every access to shared data is timed
// through the simulated cache hierarchy and network; synchronization uses
// the coherence-based Lock/Barrier library, so barrier releases appear as
// ACKwise broadcast invalidations exactly as in the paper's traffic. Every
// word a kernel hands to CoreCtx lives in the App's sim::AddressSpace;
// host-only data (reference results, index tables) stays in std::vectors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/core_ctx.hpp"
#include "sim/address_space.hpp"

namespace atacsim::apps {

struct AppConfig {
  int num_cores = 1024;
  /// Problem-size multiplier: 1 = the default bench size (tuned so a full
  /// 1024-core run takes O(100K) simulated cycles); tests use smaller.
  double scale = 1.0;
  std::uint64_t seed = 12345;
};

class App {
 public:
  virtual ~App() = default;
  virtual std::string name() const = 0;
  /// Kernel to run on every core, with the space its data lives in; both
  /// must remain valid for the lifetime of this App.
  virtual core::AppBody body() = 0;
  /// Host-side correctness check after the run; returns a diagnostic or ""
  /// when the computation is correct.
  virtual std::string verify() const = 0;

 protected:
  /// The simulated data: built before any derived member, so a derived
  /// App allocates its blocks in its member initializers.
  sim::AddressSpace space_;
};

/// The paper's eight benchmarks, in the order of its figures.
const std::vector<std::string>& app_names();

/// Extension workloads beyond the paper's suite (SPLASH-2 fft, water_nsq):
/// all-to-all transposes and fine-grained per-molecule locking.
const std::vector<std::string>& extension_app_names();

/// Creates any workload by name: the eight paper benchmarks
/// (dynamic_graph, radix, barnes, fmm, ocean_contig, lu_contig,
/// ocean_non_contig, lu_non_contig) or an extension (fft, water_nsq).
std::unique_ptr<App> make_app(const std::string& name, const AppConfig& cfg);

/// Integer ceiling division and per-core [begin,end) partition helpers.
inline int ceil_div(int a, int b) { return (a + b - 1) / b; }
struct Range {
  int begin = 0, end = 0;
};
inline Range partition(int n, int parts, int idx) {
  const int chunk = ceil_div(n, parts);
  const int b = idx * chunk;
  const int e = std::min(n, b + chunk);
  return {std::min(b, n), std::max(e, std::min(b, n))};
}

}  // namespace atacsim::apps
