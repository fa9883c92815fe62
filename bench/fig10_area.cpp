// Fig. 10: chip area of cache and network components, ATAC+ vs the
// electrical mesh (no simulation required — pure area models).
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
  return rep;
}

/// The rows' `s` (atac_plus_mm2 or emesh_mm2) over `parts`, as a share of
/// the TOTAL row's.
double share(const Report& r, const std::vector<std::string>& parts,
             const std::string& s) {
  return sum(r, parts, "area", s) / stat(r, "TOTAL", "area", s);
}

const std::vector<std::string> kCaches = {"L1-I caches", "L1-D caches",
                                          "L2 caches", "directory"};

const std::vector<Claim> kClaims = {
    {"Fig. 10: caches take ~90 % of the chip area (80-100 % on ATAC+ and on "
     "the mesh)",
     [](const Report& r) {
       const double a = share(r, kCaches, "atac_plus_mm2"),
                    m = share(r, kCaches, "emesh_mm2");
       return Verdict{a > 0.8 && m > 0.8, "ATAC+ " + num(100 * a, 1) +
                                              " %, EMesh " +
                                              num(100 * m, 1) + " %"};
     }},
    {"Fig. 10: ATAC+'s optical devices take ~40 mm^2 at 64-bit flits "
     "(within 1.5x)",
     [](const Report& r) {
       const double a =
           stat(r, "optical (waveguides+rings)", "area", "atac_plus_mm2");
       return Verdict{near_paper(a, 40), num(a, 1) + " mm^2"};
     }},
    {"Fig. 10: the electrical network (ENet, receive nets, hubs) is "
     "negligible, under 10 % of ATAC+'s area",
     [](const Report& r) {
       const double a = share(
           r, {"ENet routers+links", "receive nets", "hubs"}, "atac_plus_mm2");
       return Verdict{a < 0.1, num(100 * a, 1) + " %"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig10_area",
              "Fig. 10: chip area breakdown, ATAC+ vs electrical mesh",
              run_fig10, kClaims);
