#include "bench/common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "apps/app.hpp"
#include "harness/runner.hpp"

namespace atacsim::bench {

const std::vector<std::string>& benchmarks() { return apps::app_names(); }

double bench_scale() {
  const char* e = std::getenv("ATACSIM_SCALE");
  if (!e || !*e) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(e, &end);
  if (!end || *end != '\0' || !std::isfinite(v) || v <= 0.0)
    throw std::runtime_error(
        std::string("ATACSIM_SCALE=\"") + e +
        "\": must be a positive number (a zero or garbage scale would "
        "silently run degenerate simulations)");
  return v;
}

MachineParams base_machine() {
  const char* e = std::getenv("ATACSIM_BENCH_MESH");
  if (!e || !*e) return MachineParams::paper();
  int mesh_w = 0, cluster_w = 0;
  char trailing = '\0';
  if (std::sscanf(e, "%dx%d%c", &mesh_w, &cluster_w, &trailing) != 2 ||
      mesh_w <= 0 || cluster_w <= 0)
    throw std::runtime_error(
        std::string("ATACSIM_BENCH_MESH=\"") + e +
        "\": expected <mesh_width>x<cluster_width>, e.g. 8x2");
  try {
    return MachineParams::small(mesh_w, cluster_w);
  } catch (const std::invalid_argument& ex) {
    throw std::runtime_error(std::string("ATACSIM_BENCH_MESH=\"") + e +
                             "\": " + ex.what());
  }
}

MachineParams atac_plus(PhotonicFlavor f) {
  return harness::atac_plus(f, base_machine());
}

MachineParams emesh_bcast() { return harness::emesh_bcast(base_machine()); }

MachineParams emesh_pure() { return harness::emesh_pure(base_machine()); }

void print_header(const char* fig, const char* what) {
  const auto mp = base_machine();
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("machine: %d cores, %d clusters, 11 nm (paper Tables I-III)\n",
              mp.num_cores, mp.num_clusters());
  std::printf("==============================================================\n");
}

void emit_report(const exp::report::Report& rep) {
  for (const auto& path : exp::report::write_report(rep))
    std::printf("report: %s\n", path.c_str());
  std::string failed;
  for (const auto& row : rep.rows) {
    if (row.finished && row.verify_msg.empty()) continue;
    failed += "\n  " + row.app + " on " + row.config + ": " +
              (row.verify_msg.empty() ? "did not complete" : row.verify_msg);
  }
  if (!failed.empty())
    throw std::runtime_error(rep.name + ": cells did not finish or verify:" +
                             failed);
}

void emit_report(const char* name, const exp::PlanResult& res) {
  emit_report(exp::report::Report::from_plan(name, res));
}

}  // namespace atacsim::bench
