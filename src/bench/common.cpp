#include "bench/common.hpp"

#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>

#include "apps/app.hpp"
#include "common/digest.hpp"
#include "common/parse.hpp"
#include "exp/report.hpp"
#include "harness/runner.hpp"
#include "obs/options.hpp"

namespace atacsim::bench {

const std::vector<std::string>& benchmarks() { return apps::app_names(); }

double bench_scale() {
  const char* e = env_value("ATACSIM_SCALE");
  if (!e) return 1.0;
  const auto v = parse_whole<double>(e);
  if (!v || !std::isfinite(*v) || *v <= 0.0)
    throw std::runtime_error(
        std::string("ATACSIM_SCALE=\"") + e +
        "\": must be a positive number (a zero or garbage scale would "
        "silently run degenerate simulations)");
  return *v;
}

MachineParams base_machine() {
  const char* e = env_value("ATACSIM_BENCH_MESH");
  if (!e) return MachineParams::paper();
  const std::string_view v = e;
  const auto x = v.find('x');
  const auto mesh_w = parse_whole<int>(v.substr(0, x));
  const auto cluster_w =
      x == v.npos ? std::nullopt : parse_whole<int>(v.substr(x + 1));
  if (!mesh_w || !cluster_w || *mesh_w <= 0 || *cluster_w <= 0)
    throw std::runtime_error(
        std::string("ATACSIM_BENCH_MESH=\"") + e +
        "\": expected <mesh_width>x<cluster_width>, e.g. 8x2");
  try {
    return MachineParams::small(*mesh_w, *cluster_w);
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

namespace {

/// The row's digest: finished, verify_msg, then each stat's name and value
/// in list order, skipping host time.
std::uint64_t row_digest(const exp::report::Row& row) {
  Digest d;
  auto add = [&d](std::string_view s) {
    d.add(s.size());
    for (const char c : s) d.add(static_cast<unsigned char>(c));
  };
  d.add(row.finished ? 1u : 0u);
  add(row.verify_msg);
  for (const auto& [name, v] : row.stats.items()) {
    if (name == "wall_seconds") continue;
    add(name);
    d.add(std::bit_cast<std::uint64_t>(v));
  }
  return d.value();
}

}  // namespace

void run_entry(const Entry& e, const exp::ExecOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  exp::report::Report rep = e.fn(opt);
  rep.name = e.name;
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto paths = exp::report::write_report(rep);
  for (const auto& path : paths) std::printf("report: %s\n", path.c_str());
  std::string failed;
  for (const auto& row : rep.rows) {
    std::printf("digest\t%s\t%s\t%s\t%016" PRIx64 "\n", rep.name.c_str(),
                row.app.c_str(), row.config.c_str(), row_digest(row));
    if (row.finished && row.verify_msg.empty()) continue;
    failed += "\n  " + row.app + " on " + row.config + ": " +
              (row.verify_msg.empty() ? "did not complete" : row.verify_msg);
  }
  if (paths.size() < 2)
    throw std::runtime_error(rep.name + ": could not write its report under " +
                             obs::report_dir());
  if (!failed.empty())
    throw std::runtime_error(rep.name + ": cells did not finish or verify:" +
                             failed);
}

}  // namespace atacsim::bench
