#include "obs/series.hpp"

#include <cassert>
#include <ostream>

#include "obs/json.hpp"

namespace atacsim::obs {

using json::escape;
using json::num;

namespace {

/// True when the epoch recorded no activity at all.
bool quiet(const EpochRecord& r) {
  std::uint64_t acc = 0;
  for (const Cycle v : r.chan_busy) acc |= v;
  for (const std::uint64_t v : r.core_busy) acc |= v;
  return acc == 0 && is_zero(r.net) && is_zero(r.mem) && is_zero(r.core);
}

}  // namespace

const char* traffic_class_name(int cls) {
  switch (cls) {
    case 0: return "coh";
    case 1: return "data";
    case 2: return "synth";
  }
  return "?";
}

RunObserver::RunObserver(Cycle epoch_cycles)
    : epoch_cycles_(epoch_cycles ? epoch_cycles : 1) {}

void RunObserver::set_channel_names(std::vector<std::string> names) {
  channel_names_ = std::move(names);
  last_chan_busy_.assign(channel_names_.size(), 0);
}

void RunObserver::push_record(Cycle t_end, const NetCounters& net,
                              const MemCounters& mem,
                              const std::vector<CoreCounters>& cores,
                              const std::vector<Cycle>& chan_busy) {
  EpochRecord rec;
  rec.t_end = t_end;
  rec.net = net - last_net_;
  rec.mem = mem - last_mem_;

  rec.chan_busy.resize(last_chan_busy_.size(), 0);
  for (std::size_t i = 0; i < last_chan_busy_.size() && i < chan_busy.size();
       ++i)
    rec.chan_busy[i] = chan_busy[i] - last_chan_busy_[i];

  last_cores_.resize(cores.size());
  rec.core_busy.resize(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const CoreCounters d = cores[i] - last_cores_[i];
    rec.core += d;
    rec.core_busy[i] = d.busy_cycles;
  }

  // A flush at (or behind) the previous boundary with fresh activity —
  // events executing exactly at the final sampled cycle — merges into the
  // last record so t_end stays strictly increasing across the series.
  if (!epochs_.empty() && t_end <= epochs_.back().t_end) {
    if (quiet(rec)) return;
    EpochRecord& back = epochs_.back();
    back.net += rec.net;
    back.mem += rec.mem;
    back.core += rec.core;
    for (std::size_t i = 0; i < back.chan_busy.size(); ++i)
      back.chan_busy[i] += rec.chan_busy[i];
    for (std::size_t i = 0; i < back.core_busy.size(); ++i)
      back.core_busy[i] += rec.core_busy[i];
  } else {
    epochs_.push_back(std::move(rec));
  }

  last_net_ = net;
  last_mem_ = mem;
  last_cores_ = cores;
  last_chan_busy_.assign(chan_busy.begin(), chan_busy.end());
  last_chan_busy_.resize(channel_names_.size(), 0);
  if (t_end > last_t_) last_t_ = t_end;
}

void RunObserver::sample(Cycle boundary, const NetCounters& net,
                         const MemCounters& mem,
                         const std::vector<CoreCounters>& cores,
                         const std::vector<Cycle>& chan_busy) {
  if (finalized_) return;
  push_record(boundary, net, mem, cores, chan_busy);
}

void RunObserver::finalize(Cycle end, const NetCounters& net,
                           const MemCounters& mem,
                           const std::vector<CoreCounters>& cores,
                           const std::vector<Cycle>& chan_busy) {
  if (finalized_) return;
  push_record(end, net, mem, cores, chan_busy);
  finalized_ = true;
}

void RunObserver::totals(NetCounters& net, MemCounters& mem,
                         CoreCounters& core) const {
  net = {};
  mem = {};
  core = {};
  for (const EpochRecord& e : epochs_) {
    net += e.net;
    mem += e.mem;
    core += e.core;
  }
}

std::vector<double>& SeriesDoc::add_column(std::string name_) {
  columns.push_back(std::move(name_));
  data.emplace_back();
  return data.back();
}

void write_series_json(std::ostream& os, const SeriesDoc& doc) {
  os << "{\n"
     << "  \"schema\": \"atacsim-obs-series-v1\",\n"
     << "  \"name\": \"" << escape(doc.name) << "\",\n"
     << "  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : doc.meta_str) {
    os << (first ? "" : ", ") << "\"" << escape(k) << "\": \"" << escape(v)
       << "\"";
    first = false;
  }
  for (const auto& [k, v] : doc.meta_num) {
    os << (first ? "" : ", ") << "\"" << escape(k) << "\": " << num(v);
    first = false;
  }
  os << "},\n"
     << "  \"epochs\": " << doc.epochs() << ",\n"
     << "  \"columns\": [";
  for (std::size_t i = 0; i < doc.columns.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(doc.columns[i]) << "\"";
  os << "],\n"
     << "  \"data\": {";
  for (std::size_t i = 0; i < doc.columns.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "\"" << escape(doc.columns[i])
       << "\": [";
    const auto& col = doc.data[i];
    for (std::size_t j = 0; j < col.size(); ++j)
      os << (j ? ", " : "") << num(col[j]);
    os << "]";
  }
  os << "\n  }\n}\n";
}

void write_series_csv(std::ostream& os, const SeriesDoc& doc) {
  for (std::size_t i = 0; i < doc.columns.size(); ++i)
    os << (i ? "," : "") << doc.columns[i];
  os << '\n';
  const std::size_t rows = doc.epochs();
  for (std::size_t j = 0; j < rows; ++j) {
    for (std::size_t i = 0; i < doc.data.size(); ++i)
      os << (i ? "," : "")
         << num(j < doc.data[i].size() ? doc.data[i][j] : 0.0);
    os << '\n';
  }
}

}  // namespace atacsim::obs
