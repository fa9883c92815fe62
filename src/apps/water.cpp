// Extension workload (beyond the paper's eight): SPLASH-2-style
// water-nsquared. Pairwise O(n^2/2) force computation over n molecules with
// per-molecule accumulator locks — a fine-grained-locking pattern none of
// the paper's benchmarks exercises (the locks are real coherence traffic:
// ticket acquisition, ownership migration of the accumulator lines).
#include <cmath>
#include <cstdint>
#include <span>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

struct Molecule {
  double x = 0, y = 0, z = 0;
  double fx = 0, fy = 0, fz = 0;
  double pad[2];
};

class WaterApp final : public App {
 public:
  explicit WaterApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        n_(std::max(64, static_cast<int>(256 * cfg.scale))),
        barrier_(cfg.num_cores, space_),
        mol_(space_.array<Molecule>(static_cast<std::size_t>(n_))),
        locks_(space_.array<core::Lock>(static_cast<std::size_t>(n_))) {
    Xoshiro256 rng(cfg.seed ^ 0xAA7ull);
    for (auto& m : mol_) {
      m.x = rng.next_double();
      m.y = rng.next_double();
      m.z = rng.next_double();
    }
    reference_ = host_forces();
  }

  std::string name() const override { return "water_nsq"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    for (int i = 0; i < n_; ++i) {
      const auto& m = mol_[static_cast<std::size_t>(i)];
      const auto& r = reference_[static_cast<std::size_t>(i)];
      // Accumulation order differs across cores: relative tolerance.
      auto close = [](double a, double b) {
        return std::abs(a - b) <= 1e-9 * (std::abs(b) + 1.0);
      };
      if (!close(m.fx, r.fx) || !close(m.fy, r.fy) || !close(m.fz, r.fz))
        return "water_nsq: forces diverge from reference";
    }
    return "";
  }

 private:
  static void pair_force(const Molecule& a, const Molecule& b, double* fx,
                         double* fy, double* fz) {
    const double dx = b.x - a.x, dy = b.y - a.y, dz = b.z - a.z;
    const double r2 = dx * dx + dy * dy + dz * dz + 1e-3;
    const double inv = 1.0 / (r2 * std::sqrt(r2));
    *fx = dx * inv;
    *fy = dy * inv;
    *fz = dz * inv;
  }

  std::vector<Molecule> host_forces() const {
    std::vector<Molecule> out(mol_.begin(), mol_.end());
    for (auto& m : out) m.fx = m.fy = m.fz = 0;
    for (int i = 0; i < n_; ++i)
      for (int j = i + 1; j < n_; ++j) {
        double fx, fy, fz;
        pair_force(out[static_cast<std::size_t>(i)],
                   out[static_cast<std::size_t>(j)], &fx, &fy, &fz);
        out[static_cast<std::size_t>(i)].fx += fx;
        out[static_cast<std::size_t>(i)].fy += fy;
        out[static_cast<std::size_t>(i)].fz += fz;
        out[static_cast<std::size_t>(j)].fx -= fx;
        out[static_cast<std::size_t>(j)].fy -= fy;
        out[static_cast<std::size_t>(j)].fz -= fz;
      }
    return out;
  }

  core::Task add_force(core::CoreCtx& c, int j, double fx, double fy,
                       double fz) {
    Molecule* m = &mol_[static_cast<std::size_t>(j)];
    co_await locks_[static_cast<std::size_t>(j)].acquire(c);
    co_await c.write(&m->fx, co_await c.read(&m->fx) + fx);
    co_await c.write(&m->fy, co_await c.read(&m->fy) + fy);
    co_await c.write(&m->fz, co_await c.read(&m->fz) + fz);
    co_await locks_[static_cast<std::size_t>(j)].release(c);
  }

  core::Task run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const Range mine = partition(n_, p_, c.id());

    // Zero the force accumulators of owned molecules.
    for (int i = mine.begin; i < mine.end; ++i) {
      Molecule* m = &mol_[static_cast<std::size_t>(i)];
      co_await c.write(&m->fx, 0.0);
      co_await c.write(&m->fy, 0.0);
      co_await c.write(&m->fz, 0.0);
    }
    co_await barrier_.wait(c, sense);

    // Pairwise forces: core owning i handles pairs (i, j>i); Newton's third
    // law means remote accumulation into j under its lock.
    for (int i = mine.begin; i < mine.end; ++i) {
      const double xi = co_await c.read(&mol_[static_cast<std::size_t>(i)].x);
      const double yi = co_await c.read(&mol_[static_cast<std::size_t>(i)].y);
      const double zi = co_await c.read(&mol_[static_cast<std::size_t>(i)].z);
      double ax = 0, ay = 0, az = 0;
      for (int j = i + 1; j < n_; ++j) {
        const double xj = co_await c.read(&mol_[static_cast<std::size_t>(j)].x);
        const double yj = co_await c.read(&mol_[static_cast<std::size_t>(j)].y);
        const double zj = co_await c.read(&mol_[static_cast<std::size_t>(j)].z);
        const double dx = xj - xi, dy = yj - yi, dz = zj - zi;
        const double r2 = dx * dx + dy * dy + dz * dz + 1e-3;
        const double inv = 1.0 / (r2 * std::sqrt(r2));
        co_await c.compute(14);
        ax += dx * inv;
        ay += dy * inv;
        az += dz * inv;
        co_await add_force(c, j, -dx * inv, -dy * inv, -dz * inv);
      }
      co_await add_force(c, i, ax, ay, az);
    }
    co_await barrier_.wait(c, sense);
  }

  int p_;
  int n_;
  core::Barrier barrier_;
  std::span<Molecule> mol_;
  std::span<core::Lock> locks_;
  std::vector<Molecule> reference_;
};

}  // namespace

std::unique_ptr<App> make_water(const AppConfig& cfg) {
  return std::make_unique<WaterApp>(cfg);
}

}  // namespace atacsim::apps
