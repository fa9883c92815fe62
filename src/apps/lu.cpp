// SPLASH-2-style blocked dense LU factorization (no pivoting), in the two
// layouts the paper evaluates:
//   * lu_contig:      blocks are contiguous in memory (each block's lines
//                     are consecutive; little cross-block line sharing).
//   * lu_non_contig:  a plain row-major 2-D array, deliberately misaligned
//                     by one element so block rows straddle cache lines and
//                     neighbouring blocks false-share — the layout effect
//                     SPLASH-2's non-contiguous variant exhibits.
// Steps k = 0..nb-1: factor diagonal block; update column/row perimeter;
// rank-B update of the interior. Barriers separate the step phases — LU is
// the most barrier-light, unicast-dominated kernel in the suite (paper
// Table V: ~30K unicasts per broadcast for lu_contig).
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

class LuApp final : public App {
 public:
  static constexpr int kB = 8;  // block edge

  LuApp(const AppConfig& cfg, bool contiguous)
      : contiguous_(contiguous),
        p_(cfg.num_cores),
        n_(static_cast<int>(std::lround(96 * std::sqrt(cfg.scale))) / kB * kB),
        nb_(n_ / kB),
        barrier_(cfg.num_cores, space_),
        store_(space_.array<double>(static_cast<std::size_t>(n_) * n_ + 8)) {
    Xoshiro256 rng(cfg.seed);
    // Diagonally dominant matrix => LU without pivoting is stable.
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        *at_host(i, j) = (i == j) ? n_ + 1.0 : rng.next_double();
    reference_.assign(static_cast<std::size_t>(n_) * n_, 0.0);
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        reference_[static_cast<std::size_t>(i) * n_ + j] = *at_host(i, j);
    host_lu(reference_);
  }

  std::string name() const override {
    return contiguous_ ? "lu_contig" : "lu_non_contig";
  }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    double max_err = 0;
    for (int i = 0; i < n_; ++i)
      for (int j = 0; j < n_; ++j)
        max_err = std::max(
            max_err,
            std::abs(*at_host(i, j) -
                     reference_[static_cast<std::size_t>(i) * n_ + j]));
    return max_err < 1e-9 ? "" : "lu: factorization diverges from reference";
  }

 private:
  /// Element address under the selected layout.
  double* at_host(int i, int j) const {
    if (contiguous_) {
      // Block-major: each kB x kB block stored contiguously.
      const int bi = i / kB, bj = j / kB;
      const std::size_t block =
          (static_cast<std::size_t>(bi) * nb_ + bj) * (kB * kB);
      return &store_[block + static_cast<std::size_t>(i % kB) * kB + (j % kB)];
    }
    // Row-major, shifted one element to break 64 B line alignment.
    return &store_[static_cast<std::size_t>(i) * n_ + j + 1];
  }

  int owner(int bi, int bj) const { return (bi * nb_ + bj) % p_; }

  static void host_lu(std::vector<double>& a) {
    const int n = static_cast<int>(std::lround(std::sqrt(double(a.size()))));
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) {
        a[static_cast<std::size_t>(i) * n + k] /=
            a[static_cast<std::size_t>(k) * n + k];
        for (int j = k + 1; j < n; ++j)
          a[static_cast<std::size_t>(i) * n + j] -=
              a[static_cast<std::size_t>(i) * n + k] *
              a[static_cast<std::size_t>(k) * n + j];
      }
    }
  }

  core::Task run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const int id = c.id();

    for (int k = 0; k < nb_; ++k) {
      const int base = k * kB;
      // Phase 1: factor the diagonal block (its owner only).
      if (owner(k, k) == id) {
        for (int kk = 0; kk < kB; ++kk) {
          const double piv = co_await c.read(at_host(base + kk, base + kk));
          for (int ii = kk + 1; ii < kB; ++ii) {
            const double l =
                co_await c.read(at_host(base + ii, base + kk)) / piv;
            co_await c.write(at_host(base + ii, base + kk), l);
            for (int jj = kk + 1; jj < kB; ++jj) {
              const double u = co_await c.read(at_host(base + kk, base + jj));
              const double v = co_await c.read(at_host(base + ii, base + jj));
              co_await c.write(at_host(base + ii, base + jj), v - l * u);
              co_await c.compute(2);
            }
          }
        }
      }
      co_await barrier_.wait(c, sense);

      // Phase 2: perimeter. Column blocks (i,k): L = A * U_kk^-1 via forward
      // substitution; row blocks (k,j): U = L_kk^-1 * A.
      for (int bi = k + 1; bi < nb_; ++bi) {
        if (owner(bi, k) != id) continue;
        for (int jj = 0; jj < kB; ++jj) {
          const double piv = co_await c.read(at_host(base + jj, base + jj));
          for (int ii = 0; ii < kB; ++ii) {
            double v = co_await c.read(at_host(bi * kB + ii, base + jj));
            for (int kk = 0; kk < jj; ++kk) {
              v -= co_await c.read(at_host(bi * kB + ii, base + kk)) *
                   co_await c.read(at_host(base + kk, base + jj));
              co_await c.compute(2);
            }
            co_await c.write(at_host(bi * kB + ii, base + jj), v / piv);
          }
        }
      }
      for (int bj = k + 1; bj < nb_; ++bj) {
        if (owner(k, bj) != id) continue;
        for (int ii = 1; ii < kB; ++ii) {
          for (int jj = 0; jj < kB; ++jj) {
            double v = co_await c.read(at_host(base + ii, bj * kB + jj));
            for (int kk = 0; kk < ii; ++kk) {
              v -= co_await c.read(at_host(base + ii, base + kk)) *
                   co_await c.read(at_host(base + kk, bj * kB + jj));
              co_await c.compute(2);
            }
            co_await c.write(at_host(base + ii, bj * kB + jj), v);
          }
        }
      }
      co_await barrier_.wait(c, sense);

      // Phase 3: rank-kB interior update A(i,j) -= L(i,k)*U(k,j).
      for (int bi = k + 1; bi < nb_; ++bi) {
        for (int bj = k + 1; bj < nb_; ++bj) {
          if (owner(bi, bj) != id) continue;
          for (int ii = 0; ii < kB; ++ii) {
            for (int jj = 0; jj < kB; ++jj) {
              double acc = co_await c.read(at_host(bi * kB + ii, bj * kB + jj));
              for (int kk = 0; kk < kB; ++kk) {
                acc -= co_await c.read(at_host(bi * kB + ii, base + kk)) *
                       co_await c.read(at_host(base + kk, bj * kB + jj));
              }
              co_await c.compute(2 * kB);
              co_await c.write(at_host(bi * kB + ii, bj * kB + jj), acc);
            }
          }
        }
      }
      co_await barrier_.wait(c, sense);
    }
  }

  bool contiguous_;
  int p_;
  int n_;
  int nb_;
  core::Barrier barrier_;
  std::span<double> store_;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<App> make_lu(const AppConfig& cfg, bool contiguous) {
  return std::make_unique<LuApp>(cfg, contiguous);
}

}  // namespace atacsim::apps
