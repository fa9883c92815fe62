// SPLASH-2-style ocean: red-black successive over-relaxation on a 2-D grid,
// in two layouts:
//   * ocean_contig:     row-major grid, cores own square tiles — vertical
//                       neighbours are usually in the same or adjacent home.
//   * ocean_non_contig: rows are scattered through memory (permuted row
//                       placement), so every vertical neighbour access lands
//                       on a distant home — the highest-traffic benchmark in
//                       the paper (Table V: 29% SWMR utilization).
// Each color sweep is separated by a barrier.
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

class OceanApp final : public App {
 public:
  static constexpr double kOmega = 1.2;
  static constexpr int kIters = 2;

  OceanApp(const AppConfig& cfg, bool contiguous)
      : contiguous_(contiguous),
        p_(cfg.num_cores),
        g_(std::max(32, static_cast<int>(std::lround(
                            256 * std::sqrt(cfg.scale))) / 8 * 8)),
        barrier_(cfg.num_cores, space_),
        store_(space_.array<double>(static_cast<std::size_t>(g_) * g_)),
        row_of_(static_cast<std::size_t>(g_)) {
    // Row placement: identity for contig; a fixed permutation otherwise.
    for (int i = 0; i < g_; ++i)
      row_of_[static_cast<std::size_t>(i)] =
          contiguous_ ? i : static_cast<int>((static_cast<long long>(i) * 73 +
                                              17) % g_);
    Xoshiro256 rng(cfg.seed);
    for (int i = 0; i < g_; ++i)
      for (int j = 0; j < g_; ++j) *cell_host(i, j) = rng.next_double();
    reference_.assign(store_.size(), 0);
    for (int i = 0; i < g_; ++i)
      for (int j = 0; j < g_; ++j)
        reference_[static_cast<std::size_t>(i) * g_ + j] = *cell_host(i, j);
    host_sor(reference_, g_);
  }

  std::string name() const override {
    return contiguous_ ? "ocean_contig" : "ocean_non_contig";
  }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    for (int i = 0; i < g_; ++i)
      for (int j = 0; j < g_; ++j)
        if (std::abs(*cell_host(i, j) -
                     reference_[static_cast<std::size_t>(i) * g_ + j]) > 1e-12)
          return "ocean: grid diverges from reference";
    return "";
  }

 private:
  double* cell_host(int i, int j) const {
    const auto row =
        static_cast<std::size_t>(row_of_[static_cast<std::size_t>(i)]);
    return &store_[row * g_ + j];
  }

  static void host_sor(std::vector<double>& a, int g) {
    auto at = [&](int i, int j) -> double& {
      return a[static_cast<std::size_t>(i) * g + j];
    };
    for (int it = 0; it < kIters; ++it)
      for (int color = 0; color < 2; ++color)
        for (int i = 1; i < g - 1; ++i)
          for (int j = 1; j < g - 1; ++j) {
            if (((i + j) & 1) != color) continue;
            const double nb =
                0.25 * (at(i - 1, j) + at(i + 1, j) + at(i, j - 1) +
                        at(i, j + 1));
            at(i, j) += kOmega * (nb - at(i, j));
          }
  }

  core::Task run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    // Square-ish tile decomposition over the interior.
    int tiles_x = 1;
    while (tiles_x * tiles_x < p_) tiles_x *= 2;
    const int tiles_y = p_ / tiles_x;
    const int tx = c.id() % tiles_x, ty = c.id() / tiles_x;
    const Range rx = partition(g_ - 2, tiles_x, tx);
    const Range ry = partition(g_ - 2, tiles_y, ty);

    for (int it = 0; it < kIters; ++it) {
      for (int color = 0; color < 2; ++color) {
        for (int i = ry.begin + 1; i < ry.end + 1; ++i) {
          for (int j = rx.begin + 1; j < rx.end + 1; ++j) {
            if (((i + j) & 1) != color) continue;
            const double up = co_await c.read(cell_host(i - 1, j));
            const double dn = co_await c.read(cell_host(i + 1, j));
            const double lf = co_await c.read(cell_host(i, j - 1));
            const double rt = co_await c.read(cell_host(i, j + 1));
            const double me = co_await c.read(cell_host(i, j));
            co_await c.compute(8);
            co_await c.write(cell_host(i, j),
                             me + kOmega * (0.25 * (up + dn + lf + rt) - me));
          }
        }
        co_await barrier_.wait(c, sense);
      }
    }
  }

  bool contiguous_;
  int p_;
  int g_;
  core::Barrier barrier_;
  std::span<double> store_;
  std::vector<int> row_of_;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<App> make_ocean(const AppConfig& cfg, bool contiguous) {
  return std::make_unique<OceanApp>(cfg, contiguous);
}

}  // namespace atacsim::apps
