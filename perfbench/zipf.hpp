// YCSB-style Zipfian generator (Gray et al., "Quickly generating
// billion-record synthetic databases", SIGMOD 1994, as used by YCSB's
// ZipfianGenerator): item 0 is the most popular, and item i is drawn with
// probability proportional to 1 / (i + 1)^theta.  The benchmark draws
// analysts and query names from it, seeded from the --seed argument.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace perfbench {

/// SplitMix64: a small seeded generator whose sequence is fixed by the
/// seed alone (no library-defined distributions), so frame sequences are
/// the same on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

class Zipfian {
 public:
  explicit Zipfian(std::uint64_t items, double theta = 0.99)
      : items_(items),
        theta_(theta),
        alpha_(1.0 / (1.0 - theta)),
        zetan_(zeta(items, theta)),
        eta_((1.0 - std::pow(2.0 / static_cast<double>(items), 1.0 - theta)) /
             (1.0 - zeta(2, theta) / zetan_)) {}

  std::uint64_t next(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto i = static_cast<std::uint64_t>(
        static_cast<double>(items_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(i, items_ - 1);
  }

  /// Probability of item 0: 1 / zeta(n, theta).  Exact for this
  /// generator (item 0 is drawn iff u * zeta(n) < 1).
  [[nodiscard]] double top_mass() const { return 1.0 / zetan_; }

 private:
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  std::uint64_t items_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

}  // namespace perfbench
