// Leveled diagnostic logging (obs::log).
//
// Every diagnostic of the bench driver, the exp plan's progress lines and
// the telemetry export goes through one grep-able surface with a severity
// prefix, and a run can silence everything below a chosen level with
// ATACSIM_LOG (perfbench runs at warn). The level is read once (getenv is
// not safe against concurrent setenv under the exp worker pool) and each
// message is emitted with a single fprintf call so lines from concurrent
// workers never interleave mid-line.
//
// Levels: error < warn < info. Default: info. ATACSIM_LOG accepts exactly
// "error", "warn" or "info"; unset or empty means info, and any other
// value makes level() throw std::invalid_argument.
#pragma once

namespace atacsim::obs::log {

enum class Level : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
};

/// Active level: ATACSIM_LOG, read at first use.
Level level();

/// True when messages at `l` are emitted — guard any formatting work that
/// is expensive enough to matter.
inline bool enabled(Level l) { return static_cast<int>(l) <= static_cast<int>(level()); }

/// printf-style emission to stderr with a "[level] " prefix. The message
/// need not end in '\n'; one is appended when missing.
void errorf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void warnf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void infof(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace atacsim::obs::log
