// Schema validators for the obs artifacts. Each returns "" when the
// document is valid, else a description of the first problem. Used by the
// atacsim-obs-check tool (CI validates emitted artifacts with it) and the
// unit tests.
#pragma once

#include <string>

#include "obs/json.hpp"

namespace atacsim::obs {

/// atacsim-obs-series-v1: schema/name/meta present, columns and data keys
/// agree, every column the same length as "epochs", t_end strictly
/// increasing and every value a finite number.
std::string validate_series(const json::Value& doc);

/// Chrome trace-event JSON: a traceEvents array whose entries carry
/// name/ph/pid/tid (+ ts and dur >= 0 on "X", ts on "C") — the shape
/// Perfetto's Trace Viewer importer accepts.
std::string validate_trace(const json::Value& doc);

/// atacsim-obs-profile-v1: schema/name present, phases/workers/pool objects
/// well-formed, "deterministic": false explicitly set, and
/// "process_peak_rss_mb" a non-negative number.
std::string validate_profile(const json::Value& doc);

/// Reads `path`, parses, dispatches on the document shape ("schema" member
/// or a traceEvents array). Returns "" when valid.
std::string validate_file(const std::string& path);

}  // namespace atacsim::obs
