#include "obs/log.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace atacsim::obs::log {

namespace {

Level parse_level(const char* s) {
  if (!s || !*s) return Level::kInfo;
  if (std::strcmp(s, "error") == 0 || std::strcmp(s, "0") == 0)
    return Level::kError;
  if (std::strcmp(s, "warn") == 0 || std::strcmp(s, "warning") == 0 ||
      std::strcmp(s, "1") == 0)
    return Level::kWarn;
  return Level::kInfo;
}

const char* prefix(Level l) {
  switch (l) {
    case Level::kError: return "[error] ";
    case Level::kWarn: return "[warn] ";
    case Level::kInfo: return "[info] ";
  }
  return "";
}

void vlogf(Level l, const char* fmt, std::va_list ap) {
  if (!enabled(l)) return;
  char msg[1024];
  std::vsnprintf(msg, sizeof msg, fmt, ap);
  const std::size_t len = std::strlen(msg);
  const bool nl = len > 0 && msg[len - 1] == '\n';
  // One fprintf per message keeps concurrent workers' lines whole.
  std::fprintf(stderr, "%s%s%s", prefix(l), msg, nl ? "" : "\n");
}

}  // namespace

Level level() {
  static const Level l = parse_level(std::getenv("ATACSIM_LOG"));
  return l;
}

#define ATACSIM_OBS_LOG_FN(name, lvl)      \
  void name(const char* fmt, ...) {        \
    std::va_list ap;                       \
    va_start(ap, fmt);                     \
    vlogf(lvl, fmt, ap);                   \
    va_end(ap);                            \
  }

ATACSIM_OBS_LOG_FN(errorf, Level::kError)
ATACSIM_OBS_LOG_FN(warnf, Level::kWarn)
ATACSIM_OBS_LOG_FN(infof, Level::kInfo)

#undef ATACSIM_OBS_LOG_FN

}  // namespace atacsim::obs::log
