// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers.
//
// Every Span measures its duration with steady_clock; a Tracer that is on
// also keeps the span (name, start, end, parent, scenario id, and the
// counts attached at its end) in memory, and writes all of them as one
// Chrome-trace/Perfetto JSON document when the benchmark finishes. Spans
// nest on the calling thread only: the benchmark opens them on its main
// thread, around whole calls into the program.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Counts = std::vector<std::pair<std::string, double>>;

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace format ("traceEvents" of complete "X" events, microsecond
  /// timestamps from the tracer's creation); span id, parent id, scenario id
  /// and counts ride in each event's "args".
  void write_chrome(std::ostream& os) const;

 private:
  friend class Span;
  using Clock = std::chrono::steady_clock;
  struct Record {
    std::string name;
    std::string scenario;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    Counts counts;
  };

  bool on_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;  // stack of open span ids
};

/// One timed call. end() may be called once to attach counts and read the
/// duration; the destructor ends a span that is still open.
class Span {
 public:
  Span(Tracer& t, std::string name, std::string scenario);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span; returns its duration in seconds.
  double end(Counts counts = {});

 private:
  Tracer& t_;
  Tracer::Clock::time_point t0_;
  int id_ = -1;
  bool open_ = true;
  double seconds_ = 0;
};

}  // namespace perfbench
