// Fig. 10: chip area of cache and network components, ATAC+ vs the
// electrical mesh (no simulation required — pure area models).
//
// Expected shape: caches dominate (~90%); the ENet/StarNet/hub electrical
// components are negligible; ATAC+'s waveguides and optical devices occupy
// ~40 mm^2 at the 64-bit flit width.
#include "bench_common.hpp"
#include "power/energy_model.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

exp::report::Report run_fig10(const exp::ExecOptions&) {
  print_header("Figure 10", "chip area breakdown (mm^2)");

  const power::EnergyModel atac(atac_plus());
  const power::EnergyModel mesh(emesh_bcast());
  const auto a = atac.area();
  const auto m = mesh.area();

  exp::report::Report rep;  // analytic, on this thread: jobs 1

  Table t({"component", "ATAC+ (mm^2)", "EMesh (mm^2)"});
  auto row = [&](const char* n, double x, double y) {
    t.add_row({n, Table::num(x, 1), Table::num(y, 1)});
    exp::report::Row rr;
    rr.app = n;
    rr.config = "area";
    rr.stats.add("atac_plus_mm2", x);
    rr.stats.add("emesh_mm2", y);
    rep.rows.push_back(std::move(rr));
  };
  row("L1-I caches", a.l1i, m.l1i);
  row("L1-D caches", a.l1d, m.l1d);
  row("L2 caches", a.l2, m.l2);
  row("directory", a.directory, m.directory);
  row("ENet routers+links", a.enet, m.enet);
  row("receive nets", a.recvnet, m.recvnet);
  row("hubs", a.hubs, m.hubs);
  row("optical (waveguides+rings)", a.optical, m.optical);
  row("TOTAL", a.total(), m.total());
  t.print(std::cout);
  std::printf(
      "\ncaches/total: ATAC+ %.1f%%, EMesh %.1f%% (paper: ~90%%)."
      "\noptical area: %.1f mm^2 (paper: ~40 mm^2 at 64-bit flits).\n\n",
      100.0 * a.caches() / a.total(), 100.0 * m.caches() / m.total(),
      a.optical);
  return rep;
}

}  // namespace

ATACSIM_BENCH("fig10_area",
              "Fig. 10: chip area breakdown, ATAC+ vs electrical mesh",
              run_fig10);
