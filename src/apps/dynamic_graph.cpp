// Dynamic-graph strongly-connected-component benchmark (the DARPA-UHPC
// application of paper ref [24]): forward-backward reachability from a
// pivot over an evolving directed graph. After the first SCC computation a
// batch of edges is inserted and the SCC is recomputed.
//
// Each round, every core relaxes the frontier inside its vertex partition
// and raises a globally shared `changed` flag; all cores poll that flag and
// the round barrier — a widely-shared, frequently-rewritten word whose
// every write is an ACKwise broadcast invalidation. This gives the highest
// broadcast fraction in the suite (paper Table V: 505 unicasts/broadcast at
// 12% utilization; Fig. 5 shows dynamic_graph as the most broadcast-heavy).
//
// Both graph versions are built at construction, in the App's address
// space, and the second phase reads the second one: no simulated array is
// made or resized while the program runs, so a run never depends on where
// the host heap would place a new array.
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

class DynamicGraphApp final : public App {
 public:
  explicit DynamicGraphApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        v_(std::max(1024, static_cast<int>(8192 * cfg.scale))),
        barrier_(cfg.num_cores, space_),
        fw_(space_.array<std::uint64_t>(static_cast<std::size_t>(v_))),
        bw_(space_.array<std::uint64_t>(static_cast<std::size_t>(v_))),
        shared_(space_.make<Shared>()) {
    // Random digraph with average out-degree 4, plus a long cycle through
    // half the vertices so a nontrivial SCC exists around pivot 0.
    Xoshiro256 rng(cfg.seed ^ 0x5ccull);
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < v_; ++u)
      for (int d = 0; d < 4; ++d)
        edges.emplace_back(u, static_cast<int>(rng.next_below(v_)));
    for (int u = 0; u < v_ / 2; ++u)
      edges.emplace_back(u, (u + 1) % (v_ / 2));
    graph_[0] = build_csr(edges);
    expected_first_ = host_scc_size(edges);
    // The dynamic batch: edges that join the second half into the cycle.
    const std::size_t before = edges.size();
    for (int i = 0; i < v_ / 8; ++i) {
      const int a = v_ / 2 + static_cast<int>(rng.next_below(v_ / 2));
      edges.emplace_back(static_cast<int>(rng.next_below(v_ / 2)), a);
      edges.emplace_back(a, static_cast<int>(rng.next_below(v_ / 2)));
    }
    added_edges_ = edges.size() - before;
    graph_[1] = build_csr(edges);
    expected_second_ = host_scc_size(edges);
  }

  std::string name() const override { return "dynamic_graph"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    if (measured_first_ != expected_first_)
      return "dynamic_graph: SCC size mismatch before edge insertion";
    if (measured_second_ != expected_second_)
      return "dynamic_graph: SCC size mismatch after edge insertion";
    if (measured_second_ <= measured_first_)
      return "dynamic_graph: edge batch should have grown the SCC";
    return "";
  }

 private:
  /// One graph version in CSR form, forward and reverse.
  struct Csr {
    std::span<std::uint64_t> out_head, in_head, out_edges, in_edges;
  };
  /// The simulated scalars: the SCC-size reduction and the round's
  /// `changed` flag, each on a line of its own.
  struct Shared {
    std::uint64_t scc_count = 0;
    alignas(64) std::uint64_t changed = 0;
  };

  Csr build_csr(const std::vector<std::pair<int, int>>& edges) {
    const std::size_t heads = static_cast<std::size_t>(v_) + 1;
    Csr g{space_.array<std::uint64_t>(heads),
          space_.array<std::uint64_t>(heads),
          space_.array<std::uint64_t>(edges.size()),
          space_.array<std::uint64_t>(edges.size())};
    for (auto [u, w] : edges) {
      ++g.out_head[static_cast<std::size_t>(u) + 1];
      ++g.in_head[static_cast<std::size_t>(w) + 1];
    }
    for (int i = 0; i < v_; ++i) {
      g.out_head[static_cast<std::size_t>(i) + 1] +=
          g.out_head[static_cast<std::size_t>(i)];
      g.in_head[static_cast<std::size_t>(i) + 1] +=
          g.in_head[static_cast<std::size_t>(i)];
    }
    std::vector<std::uint64_t> oc(g.out_head.begin(), g.out_head.end());
    std::vector<std::uint64_t> ic(g.in_head.begin(), g.in_head.end());
    for (auto [u, w] : edges) {
      g.out_edges[oc[static_cast<std::size_t>(u)]++] = w;
      g.in_edges[ic[static_cast<std::size_t>(w)]++] = u;
    }
    return g;
  }

  int host_scc_size(const std::vector<std::pair<int, int>>& edges) const {
    std::vector<std::vector<int>> out(static_cast<std::size_t>(v_)),
        in(static_cast<std::size_t>(v_));
    for (auto [u, w] : edges) {
      out[static_cast<std::size_t>(u)].push_back(w);
      in[static_cast<std::size_t>(w)].push_back(u);
    }
    auto reach = [&](const std::vector<std::vector<int>>& adj) {
      std::vector<char> vis(static_cast<std::size_t>(v_), 0);
      std::vector<int> stack{0};
      vis[0] = 1;
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int w : adj[static_cast<std::size_t>(u)])
          if (!vis[static_cast<std::size_t>(w)]) {
            vis[static_cast<std::size_t>(w)] = 1;
            stack.push_back(w);
          }
      }
      return vis;
    };
    const auto f = reach(out);
    const auto b = reach(in);
    int n = 0;
    for (int i = 0; i < v_; ++i)
      if (f[static_cast<std::size_t>(i)] && b[static_cast<std::size_t>(i)])
        ++n;
    return n;
  }

  /// One label-propagation reachability pass over `heads/edges`.
  core::Task<void> propagate(core::CoreCtx& c, core::Barrier::Sense& sense,
                             std::span<std::uint64_t> mark,
                             std::span<const std::uint64_t> heads,
                             std::span<const std::uint64_t> edges) {
    const Range mine = partition(v_, p_, c.id());
    for (;;) {
      // All cores have read the previous round's verdict before this
      // barrier; only then may core 0 reset the flag (a reset racing the
      // reads would split the cores across rounds and deadlock the barrier).
      co_await barrier_.wait(c, sense);
      if (c.id() == 0) co_await c.write<std::uint64_t>(&shared_.changed, 0);
      co_await barrier_.wait(c, sense);
      bool local_changed = false;
      for (int u = mine.begin; u < mine.end; ++u) {
        const auto mu = co_await c.read(&mark[static_cast<std::size_t>(u)]);
        if (mu != 1) continue;  // 1 = frontier, 2 = settled
        const auto b = co_await c.read(&heads[static_cast<std::size_t>(u)]);
        const auto e = co_await c.read(&heads[static_cast<std::size_t>(u) + 1]);
        for (auto k = b; k < e; ++k) {
          const int w = static_cast<int>(
              co_await c.read(&edges[static_cast<std::size_t>(k)]));
          const auto mw = co_await c.read(&mark[static_cast<std::size_t>(w)]);
          if (mw == 0) {
            co_await c.write<std::uint64_t>(&mark[static_cast<std::size_t>(w)],
                                            1);
            local_changed = true;
          }
          co_await c.compute(4);
        }
        co_await c.write<std::uint64_t>(&mark[static_cast<std::size_t>(u)], 2);
      }
      if (local_changed)
        co_await c.rmw(&shared_.changed,
                       [](std::uint64_t) -> std::uint64_t { return 1; });
      co_await barrier_.wait(c, sense);
      if (co_await c.read(&shared_.changed) == 0) co_return;
    }
  }

  core::Task<void> run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const int id = c.id();
    const Range mine = partition(v_, p_, id);

    for (int phase = 0; phase < 2; ++phase) {
      // Reset marks; seed the pivot.
      for (int u = mine.begin; u < mine.end; ++u) {
        co_await c.write<std::uint64_t>(&fw_[static_cast<std::size_t>(u)],
                                        u == 0 ? 1 : 0);
        co_await c.write<std::uint64_t>(&bw_[static_cast<std::size_t>(u)],
                                        u == 0 ? 1 : 0);
      }
      co_await barrier_.wait(c, sense);

      const Csr& g = graph_[phase];
      co_await propagate(c, sense, fw_, g.out_head, g.out_edges);
      co_await propagate(c, sense, bw_, g.in_head, g.in_edges);

      // Count |SCC| = |forward ∩ backward| with an atomic-add reduction
      // (a global lock here would thundering-herd 1000 cores per handoff).
      std::uint64_t local = 0;
      for (int u = mine.begin; u < mine.end; ++u) {
        const auto f = co_await c.read(&fw_[static_cast<std::size_t>(u)]);
        const auto b = co_await c.read(&bw_[static_cast<std::size_t>(u)]);
        if (f && b) ++local;
        co_await c.compute(2);
      }
      if (local) {
        co_await c.rmw(&shared_.scc_count,
                       [local](std::uint64_t v) { return v + local; });
      }
      co_await barrier_.wait(c, sense);

      if (id == 0) {
        const auto total = co_await c.read(&shared_.scc_count);
        if (phase == 0) {
          measured_first_ = static_cast<int>(total);
          // Apply the dynamic edge batch: phase 1 reads the prebuilt
          // second graph; the rebuild cost is modelled as compute on core 0.
          co_await c.compute(static_cast<std::uint64_t>(added_edges_) * 8);
        } else {
          measured_second_ = static_cast<int>(total);
        }
        co_await c.write<std::uint64_t>(&shared_.scc_count, 0);
      }
      co_await barrier_.wait(c, sense);
    }
  }

  int p_;
  int v_;
  core::Barrier barrier_;
  std::span<std::uint64_t> fw_, bw_;
  Shared& shared_;
  Csr graph_[2];  ///< before and after the edge batch
  std::size_t added_edges_ = 0;
  int expected_first_ = 0, expected_second_ = 0;
  int measured_first_ = -1, measured_second_ = -1;
};

}  // namespace

std::unique_ptr<App> make_dynamic_graph(const AppConfig& cfg) {
  return std::make_unique<DynamicGraphApp>(cfg);
}

}  // namespace atacsim::apps
