// SPLASH-2-style FMM: 2-D fast-multipole-method skeleton on a uniform
// quadtree (monopole + dipole expansions). Phases per timestep:
//   P2M (leaf moments from bodies) -> M2M (upward pass) ->
//   M2L (interaction lists at every level) -> L2L (downward pass) ->
//   L2P + P2P (evaluate locals, near-field direct sum) -> integrate.
// Like barnes, upper-level moments are read by many cores and rewritten
// next step — a broadcast-invalidation-heavy signature (paper Table V:
// ~95 unicasts per broadcast at 8% utilization).
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

struct FmmCell {
  double m = 0, mx = 0, my = 0;   // monopole + dipole moments
  double l0 = 0, lx = 0, ly = 0;  // local expansion
  std::uint64_t count = 0;
  double pad;
};

struct FmmBody {
  double x, y, ax, ay;
  double pad[4];
};

class FmmApp final : public App {
 public:
  static constexpr int kDepth = 3;  // 8x8 leaves
  static constexpr int kSide = 1 << kDepth;
  static constexpr int kMaxPerLeaf = 64;
  static constexpr int kIters = 2;

  explicit FmmApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        n_(std::max(256, static_cast<int>(1024 * cfg.scale))),
        barrier_(cfg.num_cores, space_),
        bodies_(space_.array<FmmBody>(static_cast<std::size_t>(n_))),
        members_(space_.array<std::uint64_t>(
            static_cast<std::size_t>(kSide * kSide) * kMaxPerLeaf)) {
    level_off_.push_back(0);
    int total = 0;
    for (int l = 0; l <= kDepth; ++l) {
      total += (1 << l) * (1 << l);
      level_off_.push_back(total);
    }
    cells_ = space_.array<FmmCell>(static_cast<std::size_t>(total));
    Xoshiro256 rng(cfg.seed ^ 0xF33Dull);
    for (auto& b : bodies_) {
      b.x = rng.next_double();
      b.y = rng.next_double();
      b.ax = b.ay = 0;
    }
  }

  std::string name() const override { return "fmm"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    double asum = 0;
    for (const auto& b : bodies_) {
      if (!std::isfinite(b.ax) || !std::isfinite(b.ay))
        return "fmm: non-finite acceleration";
      asum += std::abs(b.ax) + std::abs(b.ay);
    }
    return asum > 0 ? "" : "fmm: no forces were accumulated";
  }

 private:
  FmmCell* cell(int level, int ix, int iy) {
    const int side = 1 << level;
    return &cells_[static_cast<std::size_t>(level_off_[level]) +
                   static_cast<std::size_t>(iy) * side + ix];
  }

  static bool well_separated(int ax, int ay, int bx, int by) {
    return std::abs(ax - bx) > 1 || std::abs(ay - by) > 1;
  }

  core::Task run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const int id = c.id();
    const Range mine = partition(n_, p_, id);
    const int num_leaves = kSide * kSide;

    for (int it = 0; it < kIters; ++it) {
      // Reset cells.
      const Range cr = partition(static_cast<int>(cells_.size()), p_, id);
      for (int i = cr.begin; i < cr.end; ++i) {
        FmmCell* f = &cells_[static_cast<std::size_t>(i)];
        co_await c.write(&f->m, 0.0);
        co_await c.write(&f->mx, 0.0);
        co_await c.write(&f->my, 0.0);
        co_await c.write(&f->l0, 0.0);
        co_await c.write(&f->lx, 0.0);
        co_await c.write(&f->ly, 0.0);
        co_await c.write<std::uint64_t>(&f->count, 0);
      }
      co_await barrier_.wait(c, sense);

      // Bin bodies into leaves.
      for (int i = mine.begin; i < mine.end; ++i) {
        FmmBody* b = &bodies_[static_cast<std::size_t>(i)];
        const double x = co_await c.read(&b->x);
        const double y = co_await c.read(&b->y);
        const int ix = std::min(kSide - 1, std::max(0, int(x * kSide)));
        const int iy = std::min(kSide - 1, std::max(0, int(y * kSide)));
        FmmCell* leaf = cell(kDepth, ix, iy);
        const auto slot = co_await c.rmw(
            &leaf->count, [](std::uint64_t v) { return v + 1; });
        if (slot < kMaxPerLeaf)
          co_await c.write<std::uint64_t>(
              &members_[(static_cast<std::size_t>(iy) * kSide + ix) *
                            kMaxPerLeaf +
                        slot],
              static_cast<std::uint64_t>(i));
        co_await c.compute(6);
      }
      co_await barrier_.wait(c, sense);

      // P2M: leaf moments about leaf centres.
      for (int leaf = id; leaf < num_leaves; leaf += p_) {
        const int ix = leaf % kSide, iy = leaf / kSide;
        const double cx = (ix + 0.5) / kSide, cy = (iy + 0.5) / kSide;
        FmmCell* l = cell(kDepth, ix, iy);
        const auto cnt =
            std::min<std::uint64_t>(co_await c.read(&l->count), kMaxPerLeaf);
        double m = 0, mx = 0, my = 0;
        for (std::uint64_t s = 0; s < cnt; ++s) {
          const auto bi = co_await c.read(
              &members_[static_cast<std::size_t>(leaf) * kMaxPerLeaf + s]);
          const double bx =
              co_await c.read(&bodies_[static_cast<std::size_t>(bi)].x);
          const double by =
              co_await c.read(&bodies_[static_cast<std::size_t>(bi)].y);
          m += 1.0;
          mx += bx - cx;
          my += by - cy;
          co_await c.compute(6);
        }
        co_await c.write(&l->m, m);
        co_await c.write(&l->mx, mx);
        co_await c.write(&l->my, my);
      }
      co_await barrier_.wait(c, sense);

      // M2M upward.
      for (int level = kDepth - 1; level >= 0; --level) {
        const int side = 1 << level;
        for (int ci = id; ci < side * side; ci += p_) {
          const int ix = ci % side, iy = ci / side;
          double m = 0, mx = 0, my = 0;
          for (int q = 0; q < 4; ++q) {
            FmmCell* ch = cell(level + 1, 2 * ix + (q & 1), 2 * iy + (q >> 1));
            const double dm = co_await c.read(&ch->m);
            const double ox = (q & 1) ? 0.25 : -0.25;
            const double oy = (q >> 1) ? 0.25 : -0.25;
            m += dm;
            mx += co_await c.read(&ch->mx) + dm * ox / side;
            my += co_await c.read(&ch->my) + dm * oy / side;
            co_await c.compute(8);
          }
          FmmCell* me = cell(level, ix, iy);
          co_await c.write(&me->m, m);
          co_await c.write(&me->mx, mx);
          co_await c.write(&me->my, my);
        }
        co_await barrier_.wait(c, sense);
      }

      // M2L: for every cell, gather well-separated same-level cells whose
      // parents were near neighbours (the classic interaction list).
      for (int level = 2; level <= kDepth; ++level) {
        const int side = 1 << level;
        for (int ci = id; ci < side * side; ci += p_) {
          const int ix = ci % side, iy = ci / side;
          const double cx = (ix + 0.5) / side, cy = (iy + 0.5) / side;
          double l0 = 0, lx = 0, ly = 0;
          const int px = ix / 2, py = iy / 2;
          for (int ny = std::max(0, py - 1); ny <= std::min(side / 2 - 1, py + 1);
               ++ny)
            for (int nx = std::max(0, px - 1);
                 nx <= std::min(side / 2 - 1, px + 1); ++nx)
              for (int q = 0; q < 4; ++q) {
                const int sx = 2 * nx + (q & 1), sy = 2 * ny + (q >> 1);
                if (!well_separated(ix, iy, sx, sy)) continue;
                FmmCell* s = cell(level, sx, sy);
                const double m = co_await c.read(&s->m);
                if (m == 0) continue;
                const double scx = (sx + 0.5) / side, scy = (sy + 0.5) / side;
                const double dx = scx - cx, dy = scy - cy;
                const double r2 = dx * dx + dy * dy;
                l0 += m / std::sqrt(r2);
                lx += m * dx / (r2 * std::sqrt(r2));
                ly += m * dy / (r2 * std::sqrt(r2));
                co_await c.compute(16);
              }
          FmmCell* me = cell(level, ix, iy);
          co_await c.write(&me->l0, l0);
          co_await c.write(&me->lx, lx);
          co_await c.write(&me->ly, ly);
        }
        co_await barrier_.wait(c, sense);
      }

      // L2L downward: add parent's local expansion into children.
      for (int level = 3; level <= kDepth; ++level) {
        const int side = 1 << level;
        for (int ci = id; ci < side * side; ci += p_) {
          const int ix = ci % side, iy = ci / side;
          FmmCell* par = cell(level - 1, ix / 2, iy / 2);
          FmmCell* me = cell(level, ix, iy);
          const double pl = co_await c.read(&par->lx);
          const double pm = co_await c.read(&par->ly);
          co_await c.write(&me->lx, co_await c.read(&me->lx) + pl);
          co_await c.write(&me->ly, co_await c.read(&me->ly) + pm);
          co_await c.compute(4);
        }
        co_await barrier_.wait(c, sense);
      }

      // L2P + P2P: far field from the leaf local, near field directly from
      // the 3x3 neighbourhood's bodies.
      for (int i = mine.begin; i < mine.end; ++i) {
        FmmBody* b = &bodies_[static_cast<std::size_t>(i)];
        const double x = co_await c.read(&b->x);
        const double y = co_await c.read(&b->y);
        const int ix = std::min(kSide - 1, std::max(0, int(x * kSide)));
        const int iy = std::min(kSide - 1, std::max(0, int(y * kSide)));
        FmmCell* leaf = cell(kDepth, ix, iy);
        double ax = co_await c.read(&leaf->lx);
        double ay = co_await c.read(&leaf->ly);
        for (int ny = std::max(0, iy - 1); ny <= std::min(kSide - 1, iy + 1);
             ++ny)
          for (int nx = std::max(0, ix - 1); nx <= std::min(kSide - 1, ix + 1);
               ++nx) {
            FmmCell* nl = cell(kDepth, nx, ny);
            const auto cnt = std::min<std::uint64_t>(
                co_await c.read(&nl->count), kMaxPerLeaf);
            for (std::uint64_t s = 0; s < cnt; ++s) {
              const auto bj = co_await c.read(
                  &members_[(static_cast<std::size_t>(ny) * kSide + nx) *
                                kMaxPerLeaf +
                            s]);
              if (static_cast<int>(bj) == i) continue;
              const double ox =
                  co_await c.read(&bodies_[static_cast<std::size_t>(bj)].x);
              const double oy =
                  co_await c.read(&bodies_[static_cast<std::size_t>(bj)].y);
              const double dx = ox - x, dy = oy - y;
              const double r2 = dx * dx + dy * dy + 1e-6;
              const double inv = 1.0 / (r2 * std::sqrt(r2));
              ax += dx * inv;
              ay += dy * inv;
              co_await c.compute(12);
            }
          }
        co_await c.write(&b->ax, ax);
        co_await c.write(&b->ay, ay);
      }
      co_await barrier_.wait(c, sense);
    }
  }

  int p_;
  int n_;
  core::Barrier barrier_;
  std::span<FmmBody> bodies_;
  std::span<FmmCell> cells_;
  std::span<std::uint64_t> members_;
  std::vector<int> level_off_;
};

}  // namespace

std::unique_ptr<App> make_fmm(const AppConfig& cfg) {
  return std::make_unique<FmmApp>(cfg);
}

}  // namespace atacsim::apps
