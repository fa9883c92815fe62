// Shared machine/scale configuration for the bench entries: the benchmark
// application list, the (possibly smoke-sized) machine under test, the
// standard paper configurations built on it, and the driver step that
// finishes every entry's report with the one pass/fail rule.
#pragma once

#include <string>
#include <vector>

#include "bench/registry.hpp"
#include "common/params.hpp"
#include "exp/plan.hpp"

namespace atacsim::bench {

/// The paper's eight benchmarks (Fig. 4 order).
const std::vector<std::string>& benchmarks();

/// Problem-size multiplier for the full-figure runs; override with
/// ATACSIM_SCALE for quicker smoke runs (read at every call). Throws
/// std::runtime_error when the variable is set but is not a whole finite
/// decimal number above zero (no sign, space or hex form) — a degenerate
/// scale silently simulates nothing.
double bench_scale();

/// The machine every figure studies: the paper's 1024-core configuration,
/// or — when ATACSIM_BENCH_MESH=<mesh_width>x<cluster_width> is set (CI
/// smoke runs) — a smaller square mesh (read at every call). Throws
/// std::runtime_error unless the value is exactly two positive decimal
/// ints joined by 'x'.
MachineParams base_machine();

// Standard paper configurations on the bench machine: the harness::
// builders applied to base_machine().
MachineParams atac_plus(PhotonicFlavor f = PhotonicFlavor::kDefault);
MachineParams emesh_bcast();
MachineParams emesh_pure();

/// Prints the figure banner, naming the actual machine under test.
void print_header(const char* fig, const char* what);

/// Runs entry `e` on `opt`'s worker pool and finishes the report it
/// returns: names it after the entry, sets wall_seconds to the whole call's
/// host time, writes the JSON + CSV files and prints their `report:` paths,
/// then one tab-separated line per row on stdout:
///   digest <entry> <app> <config> <16 hex digits>
/// hashing the row's finished flag, verify_msg and every stat but
/// wall_seconds (doubles by bit pattern), so two builds or pool sizes can
/// be compared without their report files. Last it fails the entry: throws
/// std::runtime_error naming the report directory when either file could
/// not be written, else naming every "app on config" row that did not
/// finish or carries a verify_msg, so a wrong cell cannot pass silently.
void run_entry(const Entry& e, const exp::ExecOptions& opt);

}  // namespace atacsim::bench
