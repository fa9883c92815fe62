// Fig. 16: ATAC+ energy breakdown as the number of ACKwise hardware sharer
// pointers k varies: the directory's area and energy grow with k (paper
// Sec. V-F).
#include "bench_common.hpp"
#include "power/energy_model.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<int> kKs = {4, 8, 16, 32, 1024};
const std::vector<std::string> kApps = {"radix", "barnes", "fmm",
                                        "ocean_contig", "dynamic_graph"};

std::string k_label(int k) { return "k=" + std::to_string(k); }

exp::report::Report run_fig16(const exp::ExecOptions& opt) {
  print_header("Figure 16", "energy breakdown vs ACKwise hardware sharers");

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::value_axis<int>(
          "num_hw_sharers", kKs, k_label,
          [](exp::sweep::CellConfig& c, int k) {
            c.scenario.mp.num_hw_sharers = k;
          }))
      .axis(exp::sweep::apps_axis(kApps));
  const auto res = exp::sweep::run_scenarios(spec, opt);

  Table t({"k", "directory (norm)", "caches (norm)", "network (norm)",
           "TOTAL (norm)", "dir size/slice (KB)", "area total (norm)"});
  double base_total = 0, base_area = 0;
  for (std::size_t ki = 0; ki < kKs.size(); ++ki) {
    const int k = kKs[ki];
    auto mp = atac_plus();
    mp.num_hw_sharers = k;
    double dir = 0, caches = 0, network = 0, total = 0;
    for (std::size_t ai = 0; ai < kApps.size(); ++ai) {
      const auto& o = res.at({ki, ai});
      dir += o.energy.directory;
      caches += o.energy.caches();
      network += o.energy.network();
      total += o.energy.chip_no_core();
    }
    const power::EnergyModel em(mp);
    const double area = em.area().total();
    const auto sizing = power::DirectorySizing::from(mp);
    if (k == 4) {
      base_total = total;
      base_area = area;
    }
    t.add_row({std::to_string(k), Table::num(dir / base_total, 3),
               Table::num(caches / base_total, 3),
               Table::num(network / base_total, 3),
               Table::num(total / base_total, 3),
               std::to_string(sizing.size_KB()),
               Table::num(area / base_area, 2)});
  }
  t.print(std::cout);
  return res.report();
}

/// Stat `s` summed over the apps at `k`.
double total(const Report& r, int k, const char* s) {
  return sum(r, kApps, k_label(k), s);
}

const std::vector<Claim> kClaims = {
    {"Fig. 16: directory energy grows with k",
     [](const Report& r) {
       bool rising = true;
       for (std::size_t i = 1; i < kKs.size(); ++i)
         rising = rising && total(r, kKs[i], "energy_directory") >
                                total(r, kKs[i - 1], "energy_directory");
       return Verdict{rising, "k=1024 at " +
                                  num(total(r, 1024, "energy_directory") /
                                      total(r, 4, "energy_directory")) +
                                  "x of k=4"};
     }},
    {"Fig. 16: network+cache energy roughly doubles from k=4 to k=1024 "
     "(within 1.5x of 2x)",
     [](const Report& r) {
       const double x = total(r, 1024, "energy_chip_no_core") /
                        total(r, 4, "energy_chip_no_core");
       return Verdict{near_paper(x, 2), num(x) + "x"};
     }},
};

}  // namespace

ATACSIM_BENCH("fig16_sharers_energy",
              "Fig. 16: energy/area breakdown vs ACKwise sharer pointers k",
              run_fig16, kClaims);
