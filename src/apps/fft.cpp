// Extension workload (beyond the paper's eight): SPLASH-2-style six-step
// 1-D FFT. N = m^2 complex points viewed as an m x m matrix:
//   transpose -> m-point row FFTs -> twiddle scale -> transpose ->
//   row FFTs -> transpose.
// The transposes are all-to-all communication — every core reads a column
// strided across every other core's rows — a traffic pattern none of the
// paper's benchmarks stresses (closest to uniform-random unicast).
#include <cmath>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

struct Cpx {
  double re = 0, im = 0;
};

class FftApp final : public App {
 public:
  explicit FftApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        m_(cfg.scale >= 0.5 ? 64 : 32),
        n_(m_ * m_),
        barrier_(cfg.num_cores, space_),
        a_(space_.array<Cpx>(static_cast<std::size_t>(n_))),
        b_(space_.array<Cpx>(static_cast<std::size_t>(n_))) {
    Xoshiro256 rng(cfg.seed ^ 0xFF7ull);
    for (auto& c : a_) {
      c.re = rng.next_double() - 0.5;
      c.im = rng.next_double() - 0.5;
    }
    // Host reference: the same six-step algorithm on a copy.
    ref_.assign(a_.begin(), a_.end());
    host_six_step(ref_);
  }

  std::string name() const override { return "fft"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      if (std::abs(a_[i].re - ref_[i].re) > 1e-9 ||
          std::abs(a_[i].im - ref_[i].im) > 1e-9)
        return "fft: result diverges from reference";
    }
    return "";
  }

 private:
  static void fft_row_host(Cpx* row, int m) {
    // Iterative radix-2 Cooley-Tukey, bit-reversal first.
    for (int i = 1, j = 0; i < m; ++i) {
      int bit = m >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(row[i], row[j]);
    }
    for (int len = 2; len <= m; len <<= 1) {
      const double ang = -2.0 * M_PI / len;
      for (int i = 0; i < m; i += len) {
        for (int k = 0; k < len / 2; ++k) {
          const double wr = std::cos(ang * k), wi = std::sin(ang * k);
          Cpx& u = row[i + k];
          Cpx& v = row[i + k + len / 2];
          const double tr = v.re * wr - v.im * wi;
          const double ti = v.re * wi + v.im * wr;
          v.re = u.re - tr;
          v.im = u.im - ti;
          u.re += tr;
          u.im += ti;
        }
      }
    }
  }

  void host_six_step(std::vector<Cpx>& x) const {
    std::vector<Cpx> t(x.size());
    auto transpose = [&](std::vector<Cpx>& src, std::vector<Cpx>& dst) {
      for (int r = 0; r < m_; ++r)
        for (int col = 0; col < m_; ++col)
          dst[static_cast<std::size_t>(col) * m_ + r] =
              src[static_cast<std::size_t>(r) * m_ + col];
    };
    transpose(x, t);
    for (int r = 0; r < m_; ++r) fft_row_host(&t[static_cast<std::size_t>(r) * m_], m_);
    for (int r = 0; r < m_; ++r)
      for (int col = 0; col < m_; ++col) {
        const double ang = -2.0 * M_PI * r * col / n_;
        Cpx& c = t[static_cast<std::size_t>(r) * m_ + col];
        const double wr = std::cos(ang), wi = std::sin(ang);
        const double re = c.re * wr - c.im * wi;
        c.im = c.re * wi + c.im * wr;
        c.re = re;
      }
    transpose(t, x);
    for (int r = 0; r < m_; ++r) fft_row_host(&x[static_cast<std::size_t>(r) * m_], m_);
    transpose(x, t);
    x = t;
  }

  /// Timed transpose of the rows this core owns: reads a column scattered
  /// across every other owner's rows (the all-to-all).
  core::Task<void> transpose_step(core::CoreCtx& c, std::span<Cpx> src,
                                  std::span<Cpx> dst) {
    const Range rows = partition(m_, p_, c.id());
    for (int r = rows.begin; r < rows.end; ++r) {
      for (int col = 0; col < m_; ++col) {
        const auto re = co_await c.read(
            &src[static_cast<std::size_t>(col) * m_ + r].re);
        const auto im = co_await c.read(
            &src[static_cast<std::size_t>(col) * m_ + r].im);
        co_await c.write(&dst[static_cast<std::size_t>(r) * m_ + col].re, re);
        co_await c.write(&dst[static_cast<std::size_t>(r) * m_ + col].im, im);
        co_await c.compute(2);
      }
    }
  }

  /// Timed in-place FFT over this core's rows (touches only owned rows, so
  /// after the first stage it runs out of the local cache).
  core::Task<void> fft_rows(core::CoreCtx& c, std::span<Cpx> x,
                            bool twiddle) {
    const Range rows = partition(m_, p_, c.id());
    for (int r = rows.begin; r < rows.end; ++r) {
      Cpx* row = &x[static_cast<std::size_t>(r) * m_];
      // Bit reversal (timed swaps).
      for (int i = 1, j = 0; i < m_; ++i) {
        int bit = m_ >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) {
          const auto xr = co_await c.read(&row[i].re);
          const auto xi = co_await c.read(&row[i].im);
          const auto yr = co_await c.read(&row[j].re);
          const auto yi = co_await c.read(&row[j].im);
          co_await c.write(&row[i].re, yr);
          co_await c.write(&row[i].im, yi);
          co_await c.write(&row[j].re, xr);
          co_await c.write(&row[j].im, xi);
        }
      }
      for (int len = 2; len <= m_; len <<= 1) {
        const double ang = -2.0 * M_PI / len;
        for (int i = 0; i < m_; i += len) {
          for (int k = 0; k < len / 2; ++k) {
            const double wr = std::cos(ang * k), wi = std::sin(ang * k);
            const auto ur = co_await c.read(&row[i + k].re);
            const auto ui = co_await c.read(&row[i + k].im);
            const auto vr = co_await c.read(&row[i + k + len / 2].re);
            const auto vi = co_await c.read(&row[i + k + len / 2].im);
            const double tr = vr * wr - vi * wi;
            const double ti = vr * wi + vi * wr;
            co_await c.compute(10);
            co_await c.write(&row[i + k + len / 2].re, ur - tr);
            co_await c.write(&row[i + k + len / 2].im, ui - ti);
            co_await c.write(&row[i + k].re, ur + tr);
            co_await c.write(&row[i + k].im, ui + ti);
          }
        }
      }
      if (twiddle) {
        for (int col = 0; col < m_; ++col) {
          const double ang = -2.0 * M_PI * r * col / n_;
          const double wr = std::cos(ang), wi = std::sin(ang);
          const auto re = co_await c.read(&row[col].re);
          const auto im = co_await c.read(&row[col].im);
          co_await c.compute(6);
          co_await c.write(&row[col].re, re * wr - im * wi);
          co_await c.write(&row[col].im, re * wi + im * wr);
        }
      }
    }
  }

  core::Task<void> run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    co_await transpose_step(c, a_, b_);
    co_await barrier_.wait(c, sense);
    co_await fft_rows(c, b_, /*twiddle=*/true);
    co_await barrier_.wait(c, sense);
    co_await transpose_step(c, b_, a_);
    co_await barrier_.wait(c, sense);
    co_await fft_rows(c, a_, /*twiddle=*/false);
    co_await barrier_.wait(c, sense);
    co_await transpose_step(c, a_, b_);
    co_await barrier_.wait(c, sense);
    // Copy back so the result lives in a_ (each core its rows).
    const Range rows = partition(m_, p_, c.id());
    for (int r = rows.begin; r < rows.end; ++r)
      for (int col = 0; col < m_; ++col) {
        const std::size_t idx = static_cast<std::size_t>(r) * m_ + col;
        const auto re = co_await c.read(&b_[idx].re);
        const auto im = co_await c.read(&b_[idx].im);
        co_await c.write(&a_[idx].re, re);
        co_await c.write(&a_[idx].im, im);
      }
    co_await barrier_.wait(c, sense);
  }

  int p_;
  int m_;
  int n_;
  core::Barrier barrier_;
  std::span<Cpx> a_, b_;
  std::vector<Cpx> ref_;
};

}  // namespace

std::unique_ptr<App> make_fft(const AppConfig& cfg) {
  return std::make_unique<FftApp>(cfg);
}

}  // namespace atacsim::apps
