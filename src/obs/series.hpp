// Epoch sampling: the per-run telemetry recorder and the columnar
// time-series document it exports ("atacsim-obs-series-v1").
//
// A RunObserver is owned by the harness for exactly one simulated run and
// handed to the Machine as a raw pointer; every hot-path touch point is a
// null-test plus a plain (non-virtual) call. Machine::run calls `sample` at
// every multiple of the configured epoch period that the simulated clock
// crosses, and `finalize` once the queue drains, so the records tile the
// run: summing the per-epoch deltas reproduces the
// end-of-run counter totals exactly (the src/check kObs probe enforces
// this under ATACSIM_VALIDATE=1).
//
// Everything recorded here is a function of the simulation alone — no host
// time, no thread identity — so series/histogram output is byte-identical
// across worker-pool sizes. Host-side measurements live in obs::SelfProfile
// and are quarantined to the explicitly nondeterministic profile file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "obs/histogram.hpp"

namespace atacsim::obs {

/// Traffic classes mirrored from net::MsgClass (kept as plain ints so the
/// network layer stays free of obs types on its interface).
inline constexpr int kNumTrafficClasses = 3;  // coherence, data, synthetic
const char* traffic_class_name(int cls);      // "coh", "data", "synth"

/// Counter deltas over one sampling epoch.
struct EpochRecord {
  Cycle t_end = 0;  ///< exclusive end of the window this record covers
  NetCounters net;
  MemCounters mem;
  CoreCounters core;
  std::vector<Cycle> chan_busy;            ///< per channel group (see names)
  std::vector<std::uint64_t> core_busy;    ///< per core
};

class RunObserver {
 public:
  explicit RunObserver(Cycle epoch_cycles);

  Cycle epoch_cycles() const { return epoch_cycles_; }

  // --- hot-path recorders (callers hold a guarded raw pointer) -----------
  void record_net(int cls, bool bcast, std::uint64_t latency_cycles) {
    net_lat_[bcast ? 1 : 0][cls].record(latency_cycles);
  }
  void record_mem(bool write, std::uint64_t latency_cycles) {
    mem_lat_[write ? 1 : 0].record(latency_cycles);
  }

  // --- wiring (Machine construction) -------------------------------------
  void set_channel_names(std::vector<std::string> names);

  // --- epoch boundaries (called by the Machine) --------------------------
  /// Records the delta since the previous boundary from absolute counter
  /// values (`cores` holds one entry per core); `boundary` values must be
  /// non-decreasing.
  void sample(Cycle boundary, const NetCounters& net, const MemCounters& mem,
              const std::vector<CoreCounters>& cores,
              const std::vector<Cycle>& chan_busy);
  /// Flushes the final partial epoch at simulated cycle `end` and freezes
  /// the observer. Idempotent.
  void finalize(Cycle end, const NetCounters& net, const MemCounters& mem,
                const std::vector<CoreCounters>& cores,
                const std::vector<Cycle>& chan_busy);
  bool finalized() const { return finalized_; }

  // --- results -----------------------------------------------------------
  const std::vector<EpochRecord>& epochs() const { return epochs_; }
  const std::vector<std::string>& channel_names() const { return channel_names_; }
  int num_cores() const { return static_cast<int>(last_cores_.size()); }
  const Histogram& net_hist(int cls, bool bcast) const {
    return net_lat_[bcast ? 1 : 0][cls];
  }
  const Histogram& mem_hist(bool write) const { return mem_lat_[write ? 1 : 0]; }

  /// Sum of all recorded epoch deltas (the quantity the kObs probe compares
  /// against the end-of-run totals).
  void totals(NetCounters& net, MemCounters& mem, CoreCounters& core) const;

 private:
  void push_record(Cycle t_end, const NetCounters& net, const MemCounters& mem,
                   const std::vector<CoreCounters>& cores,
                   const std::vector<Cycle>& chan_busy);

  Cycle epoch_cycles_;
  bool finalized_ = false;

  Histogram net_lat_[2][kNumTrafficClasses];  // [bcast][class]
  Histogram mem_lat_[2];                      // [write]

  std::vector<std::string> channel_names_;
  std::vector<EpochRecord> epochs_;

  // Previous-boundary snapshots (absolute values) for delta computation.
  NetCounters last_net_;
  MemCounters last_mem_;
  std::vector<CoreCounters> last_cores_;
  std::vector<Cycle> last_chan_busy_;
  Cycle last_t_ = 0;
};

/// Generic columnar series document and its serializers.
///
/// JSON ("atacsim-obs-series-v1"):
///   { "schema": "atacsim-obs-series-v1", "name": ...,
///     "meta": { string or number per key }, "epochs": N,
///     "columns": [...], "data": { column: [N values], ... } }
/// CSV: one header row of column names, then one row per epoch.
struct SeriesDoc {
  std::string name;
  std::vector<std::pair<std::string, std::string>> meta_str;
  std::vector<std::pair<std::string, double>> meta_num;
  std::vector<std::string> columns;
  std::vector<std::vector<double>> data;  ///< data[column][epoch]

  std::size_t epochs() const { return data.empty() ? 0 : data.front().size(); }
  /// Appends a column; returns its value vector to fill.
  std::vector<double>& add_column(std::string name_);
};

void write_series_json(std::ostream& os, const SeriesDoc& doc);
void write_series_csv(std::ostream& os, const SeriesDoc& doc);

}  // namespace atacsim::obs
