// SPLASH-2-style parallel radix sort.
//
// Each pass over a digit: (1) every core builds a private histogram of its
// keys, (2) publishes it into a shared core x bucket matrix, (3) bucket
// owners compute global bucket bases and per-core offsets (parallel prefix
// across the histogram column), (4) every core permutes its keys into the
// destination array. Barriers separate the phases. Traffic signature (paper
// Table V): unicast-heavy with periodic broadcasts — the published histogram
// columns are read by bucket owners, and offset rows fan back out.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "apps/app.hpp"
#include "common/rng.hpp"
#include "core/sync.hpp"

namespace atacsim::apps {
namespace {

class RadixApp final : public App {
 public:
  static constexpr int kRadixBits = 4;
  static constexpr int kRadix = 1 << kRadixBits;
  static constexpr int kPasses = 3;

  explicit RadixApp(const AppConfig& cfg)
      : p_(cfg.num_cores),
        n_(std::max(cfg.num_cores, static_cast<int>(24576 * cfg.scale))),
        barrier_(cfg.num_cores, space_),
        src_(space_.array<std::uint64_t>(static_cast<std::size_t>(n_))),
        dst_(space_.array<std::uint64_t>(static_cast<std::size_t>(n_))),
        hist_(space_.array<std::uint64_t>(static_cast<std::size_t>(p_) *
                                          kRadix)),
        offs_(space_.array<std::uint64_t>(static_cast<std::size_t>(p_) *
                                          kRadix)),
        total_(space_.array<std::uint64_t>(kRadix)),
        base_(space_.array<std::uint64_t>(kRadix)) {
    Xoshiro256 rng(cfg.seed);
    for (auto& k : src_) k = rng.next_below(1u << (kRadixBits * kPasses));
    reference_.assign(src_.begin(), src_.end());
    std::sort(reference_.begin(), reference_.end());
  }

  std::string name() const override { return "radix"; }

  core::AppBody body() override {
    return {[this](core::CoreCtx& c) { return run(c); }, &space_};
  }

  std::string verify() const override {
    const auto& result = (kPasses % 2) ? dst_ : src_;
    if (!std::ranges::equal(result, reference_))
      return "radix: output is not sorted correctly";
    return "";
  }

 private:
  core::Task<void> run(core::CoreCtx& c) {
    core::Barrier::Sense sense;
    const int id = c.id();
    auto* src = &src_;
    auto* dst = &dst_;

    for (int pass = 0; pass < kPasses; ++pass) {
      const int shift = pass * kRadixBits;
      const Range r = partition(n_, p_, id);

      // (1) private histogram (host-local scratch; key reads are timed).
      std::uint64_t local[kRadix] = {};
      for (int i = r.begin; i < r.end; ++i) {
        const auto key = co_await c.read(&(*src)[static_cast<std::size_t>(i)]);
        ++local[(key >> shift) & (kRadix - 1)];
        co_await c.compute(2);
      }
      // (2) publish into the shared histogram matrix.
      for (int b = 0; b < kRadix; ++b)
        co_await c.write(&hist_[static_cast<std::size_t>(id) * kRadix + b],
                         local[b]);
      co_await barrier_.wait(c, sense);

      // (3) bucket owners: column sums, then per-core offsets.
      for (int b = id; b < kRadix; b += p_) {
        std::uint64_t sum = 0;
        for (int core = 0; core < p_; ++core)
          sum += co_await c.read(
              &hist_[static_cast<std::size_t>(core) * kRadix + b]);
        co_await c.write(&total_[static_cast<std::size_t>(b)], sum);
      }
      co_await barrier_.wait(c, sense);
      if (id == 0) {
        // Serial exclusive prefix over kRadix totals (cheap).
        std::uint64_t acc = 0;
        for (int b = 0; b < kRadix; ++b) {
          const auto t = co_await c.read(&total_[static_cast<std::size_t>(b)]);
          co_await c.write(&base_[static_cast<std::size_t>(b)], acc);
          acc += t;
        }
      }
      co_await barrier_.wait(c, sense);
      for (int b = id; b < kRadix; b += p_) {
        std::uint64_t acc =
            co_await c.read(&base_[static_cast<std::size_t>(b)]);
        for (int core = 0; core < p_; ++core) {
          co_await c.write(
              &offs_[static_cast<std::size_t>(core) * kRadix + b], acc);
          acc += co_await c.read(
              &hist_[static_cast<std::size_t>(core) * kRadix + b]);
        }
      }
      co_await barrier_.wait(c, sense);

      // (4) permute own keys into the destination.
      std::uint64_t cursor[kRadix];
      for (int b = 0; b < kRadix; ++b)
        cursor[b] = co_await c.read(
            &offs_[static_cast<std::size_t>(id) * kRadix + b]);
      for (int i = r.begin; i < r.end; ++i) {
        const auto key = co_await c.read(&(*src)[static_cast<std::size_t>(i)]);
        const int b = static_cast<int>((key >> shift) & (kRadix - 1));
        co_await c.write(&(*dst)[static_cast<std::size_t>(cursor[b]++)], key);
        co_await c.compute(3);
      }
      co_await barrier_.wait(c, sense);
      std::swap(src, dst);
    }
  }

  int p_;
  int n_;
  core::Barrier barrier_;
  std::span<std::uint64_t> src_, dst_;
  std::span<std::uint64_t> hist_, offs_, total_, base_;
  std::vector<std::uint64_t> reference_;
};

}  // namespace

std::unique_ptr<App> make_radix(const AppConfig& cfg) {
  return std::make_unique<RadixApp>(cfg);
}

}  // namespace atacsim::apps
