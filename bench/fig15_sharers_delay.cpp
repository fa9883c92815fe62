// Fig. 15: ATAC+ completion time as the number of ACKwise hardware sharer
// pointers k varies over {4, 8, 16, 32, 1024}. More pointers convert
// broadcast invalidations into multiple unicasts, trading ENet contention
// near the sender for receive-hub contention (paper Sec. V-F).
#include <algorithm>

#include "bench_common.hpp"

using namespace atacsim;
using namespace atacsim::bench;

namespace {

const std::vector<int> kKs = {4, 8, 16, 32, 1024};
const std::vector<std::string> kApps = {"radix", "barnes", "fmm",
                                        "ocean_contig", "dynamic_graph"};

std::string k_label(int k) { return "k=" + std::to_string(k); }

exp::report::Report run_fig15(const exp::ExecOptions& opt) {
  print_header("Figure 15", "delay vs ACKwise hardware sharers");

  exp::sweep::CellConfig base;
  base.scenario.mp = atac_plus();
  base.scenario.scale = bench_scale();
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::apps_axis(kApps))
      .axis(exp::sweep::value_axis<int>(
          "num_hw_sharers", kKs, k_label,
          [](exp::sweep::CellConfig& c, int k) {
            c.scenario.mp.num_hw_sharers = k;
          }));
  const auto res = exp::sweep::run_scenarios(spec, opt);
  const auto norm = res.grid([](const Outcome& o) {
                         return static_cast<double>(o.run.completion_cycles);
                       })
                        .normalized_rows(0);

  res.normalized_table(norm, 3).print(std::cout);
  return res.report();
}

/// `app`'s runtime at `k` over its runtime at k=4.
double runtime(const Report& r, const std::string& app, int k) {
  return ratio(r, app, k_label(k), "k=4", "completion_cycles");
}

const std::vector<Claim> kClaims = {
    {"Fig. 15: runtime varies little with k, so ACKwise4 performs like a "
     "full-map directory (every app within 20 % of k=4 at every k)",
     [](const Report& r) {
       double lo = 1, hi = 1;
       for (const auto& app : kApps)
         for (const int k : kKs) {
           lo = std::min(lo, runtime(r, app, k));
           hi = std::max(hi, runtime(r, app, k));
         }
       return Verdict{lo > 0.8 && hi < 1.2,
                      num(lo, 3) + " to " + num(hi, 3) + " of k=4"};
     }},
    {"Fig. 15: runtime is not monotone in k (on at least one app)",
     [](const Report& r) {
       std::string m;
       for (const auto& app : kApps) {
         bool up = true, down = true;
         for (std::size_t i = 1; i < kKs.size(); ++i) {
           const double step =
               runtime(r, app, kKs[i]) - runtime(r, app, kKs[i - 1]);
           up = up && step >= 0;
           down = down && step <= 0;
         }
         if (!up && !down) m += (m.empty() ? "" : ", ") + app;
       }
       return Verdict{!m.empty(), m.empty() ? "monotone on every app"
                                            : "not monotone: " + m};
     }},
};

}  // namespace

ATACSIM_BENCH("fig15_sharers_delay",
              "Fig. 15: completion time vs ACKwise sharer pointers k",
              run_fig15, kClaims);
