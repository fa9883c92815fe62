#include "spans.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace perfbench {

namespace {

double micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Span::Span(Tracer& t, std::string name, std::string scenario)
    : t_(t), t0_(Tracer::Clock::now()) {
  if (!t_.on_) return;
  id_ = static_cast<int>(t_.spans_.size());
  Tracer::Record r;
  r.name = std::move(name);
  r.scenario = std::move(scenario);
  r.start_us = micros(t0_ - t_.origin_);
  r.parent = t_.open_.empty() ? -1 : t_.open_.back();
  t_.spans_.push_back(std::move(r));
  t_.open_.push_back(id_);
}

Span::~Span() {
  if (open_) end();
}

double Span::end(Counts counts) {
  if (!open_) return seconds_;
  open_ = false;
  const auto t1 = Tracer::Clock::now();
  seconds_ = std::chrono::duration<double>(t1 - t0_).count();
  if (id_ >= 0) {
    Tracer::Record& r = t_.spans_[static_cast<std::size_t>(id_)];
    r.end_us = micros(t1 - t_.origin_);
    r.counts = std::move(counts);
    if (!t_.open_.empty() && t_.open_.back() == id_) t_.open_.pop_back();
  }
  return seconds_;
}

void Tracer::write_chrome(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << r.name << "\", \"cat\": \""
       << layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << num(r.start_us) << ", \"dur\": " << num(r.end_us - r.start_us)
       << ", \"args\": {\"span\": " << i << ", \"parent\": " << r.parent
       << ", \"scenario\": \"" << r.scenario << "\"";
    for (const auto& [k, v] : r.counts) os << ", \"" << k << "\": " << num(v);
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
