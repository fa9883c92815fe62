// Shared machine/scale configuration for the bench entries: the benchmark
// application list, the (possibly smoke-sized) machine under test, the
// standard paper configurations built on it, and report emission with the
// entries' one pass/fail rule.
#pragma once

#include <string>
#include <vector>

#include "common/params.hpp"
#include "exp/plan.hpp"
#include "exp/report.hpp"

namespace atacsim::bench {

/// The paper's eight benchmarks (Fig. 4 order).
const std::vector<std::string>& benchmarks();

/// Problem-size multiplier for the full-figure runs; override with
/// ATACSIM_SCALE for quicker smoke runs. Throws std::runtime_error when the
/// variable is set but unparseable or non-positive — a degenerate scale
/// silently simulates nothing.
double bench_scale();

/// The machine every figure studies: the paper's 1024-core configuration,
/// or — when ATACSIM_BENCH_MESH=<mesh_width>x<cluster_width> is set (CI
/// smoke runs) — a smaller square mesh. Throws std::runtime_error on a
/// malformed value.
MachineParams base_machine();

// Standard paper configurations on the bench machine: the harness::
// builders applied to base_machine().
MachineParams atac_plus(PhotonicFlavor f = PhotonicFlavor::kDefault);
MachineParams emesh_bcast();
MachineParams emesh_pure();

/// Prints the figure banner, naming the actual machine under test.
void print_header(const char* fig, const char* what);

/// Writes the entry's JSON + CSV report and announces the paths (identical
/// lines regardless of the worker-pool size). Then fails the entry: throws
/// std::runtime_error naming every "app on config" row that did not finish
/// or carries a verify_msg, so a wrong cell cannot pass silently.
void emit_report(const exp::report::Report& rep);
void emit_report(const char* name, const exp::PlanResult& res);

}  // namespace atacsim::bench
