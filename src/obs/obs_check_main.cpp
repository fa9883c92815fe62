// atacsim-obs-check: validates obs artifacts (epoch series, trace-event
// timelines, self-profiles) against their schemas. Exit 0 when every file
// is valid, 1 otherwise. CI runs this over the artifacts a smoke bench
// emits under ATACSIM_OBS=1. With --diff it prints where two valid epoch
// series first differ: exit 0 when they are equal, 1 when they differ and
// 2 when either is not a valid series (or on a usage error).
//
//   atacsim-obs-check <file.json> [<file.json> ...]
//   atacsim-obs-check --diff <A.series.json> <B.series.json>
#include <cstdio>
#include <string>

#include "obs/validate.hpp"

int main(int argc, char** argv) {
  using namespace atacsim::obs;
  const bool diff = argc > 1 && std::string(argv[1]) == "--diff";
  if (argc < 2 || (diff && argc != 4)) {
    std::fprintf(stderr,
                 "usage: atacsim-obs-check <file.json> [<file.json> ...]\n"
                 "       atacsim-obs-check --diff <A.series.json> "
                 "<B.series.json>\n");
    return 2;
  }
  if (diff) {
    json::Value docs[2];
    for (int i = 0; i < 2; ++i) {
      std::string err = read_json(argv[2 + i], docs[i]);
      if (err.empty()) err = validate_series(docs[i]);
      if (!err.empty()) {
        std::fprintf(stderr, "FAIL: %s: %s\n", argv[2 + i], err.c_str());
        return 2;
      }
    }
    const std::string report = diff_series(docs[0], docs[1]);
    std::printf("A: %s\nB: %s\n%s", argv[2], argv[3],
                report.empty() ? "equal\n" : report.c_str());
    return report.empty() ? 0 : 1;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string err = validate_file(argv[i]);
    if (err.empty()) {
      std::printf("ok: %s\n", argv[i]);
    } else {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
      ++failures;
    }
  }
  return failures ? 1 : 0;
}
