// Row storage (plan::Rows, docs/architecture.md "Row storage"): subset
// operators emit selections over a shared immutable base instead of
// copying records, selections over selections return exactly the rows a
// materialized reference returns, and a selection keeps its base alive
// after the Queryable it came from is gone.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/exec/executor.hpp"
#include "core/queryable.hpp"

namespace {

// A record whose copies are counted: the zero-copy claim is that no
// subset operator and no shared-source view ever invokes these.
struct Counted {
  static inline std::atomic<int> copies{0};

  int v = 0;

  Counted() = default;
  explicit Counted(int x) : v(x) {}
  Counted(const Counted& other) : v(other.v) { copies.fetch_add(1); }
  Counted& operator=(const Counted& other) {
    v = other.v;
    copies.fetch_add(1);
    return *this;
  }
  Counted(Counted&&) noexcept = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() = default;

  bool operator==(const Counted& other) const { return v == other.v; }
};

}  // namespace

template <>
struct std::hash<Counted> {
  std::size_t operator()(const Counted& c) const noexcept {
    return std::hash<int>{}(c.v);
  }
};

namespace dpnet::core {
namespace {

std::shared_ptr<const std::vector<Counted>> counted_base(int n) {
  std::vector<Counted> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rows.emplace_back(i % 37);
  return std::make_shared<const std::vector<Counted>>(std::move(rows));
}

Queryable<Counted> view_of(std::shared_ptr<const std::vector<Counted>> base,
                           std::shared_ptr<PrivacyBudget> budget,
                           std::uint64_t seed) {
  return Queryable<Counted>(std::move(base), std::move(budget),
                            std::make_shared<NoiseSource>(seed));
}

// ---------------------------------------------------------------------
// (a) zero record copies
// ---------------------------------------------------------------------

TEST(Rows, SubsetOperatorsCopyNoRecord) {
  const auto base = counted_base(1000);
  auto budget = std::make_shared<RootBudget>(1e9);
  const auto q = view_of(base, budget, 7);
  const auto odd = [](const Counted& c) { return c.v % 2 == 1; };
  const auto small = [](const Counted& c) { return c.v < 20; };
  Counted::copies.store(0);

  std::ignore = q.where(odd).noisy_count(1.0);
  std::ignore = q.distinct().noisy_count(1.0);
  std::ignore = q.where(odd).except(q.where(small)).noisy_count(1.0);
  std::ignore = q.where(odd).intersect(q.where(small)).noisy_count(1.0);
  const auto parts = q.where(small).partition(
      std::vector<int>{0, 1, 2}, [](const Counted& c) { return c.v % 3; });
  for (const auto& [k, part] : parts) {
    std::ignore = part.where(odd).distinct().noisy_count(1.0);
  }
  EXPECT_EQ(Counted::copies.load(), 0);
}

TEST(Rows, ManyViewsShareOneSourceBuffer) {
  const auto base = counted_base(1000);
  auto budget = std::make_shared<RootBudget>(1e9);
  Counted::copies.store(0);
  std::vector<Queryable<Counted>> views;
  for (std::uint64_t s = 0; s < 16; ++s) views.push_back(view_of(base, budget, s));
  for (const auto& v : views) {
    EXPECT_EQ(v.size_unsafe(), 1000u);
    std::ignore = v.noisy_count(1.0);
  }
  EXPECT_EQ(Counted::copies.load(), 0);
  // The base is shared, not duplicated: 16 views, one buffer.
  EXPECT_EQ(base.use_count(), 17);
}

TEST(Rows, ConstructorRefusesAMissingBuffer) {
  EXPECT_THROW(view_of(nullptr, std::make_shared<RootBudget>(1.0), 1),
               InvalidQueryError);
}

// ---------------------------------------------------------------------
// (b) selections over selections agree with a materialized reference
// ---------------------------------------------------------------------

std::vector<int> mixed_values() {
  std::vector<int> out;
  for (int i = 0; i < 2000; ++i) out.push_back((i * 7919) % 301);
  return out;
}

template <typename Pred>
std::vector<int> keep_if(const std::vector<int>& in, Pred pred) {
  std::vector<int> out;
  std::copy_if(in.begin(), in.end(), std::back_inserter(out), pred);
  return out;
}

std::vector<int> distinct_of(const std::vector<int>& in) {
  std::unordered_set<int> seen;
  return keep_if(in, [&](int x) { return seen.insert(x).second; });
}

TEST(Rows, FilterOfFilterComposesIntoOneBase) {
  const auto data = mixed_values();
  const plan::Rows<int> all(std::make_shared<const std::vector<int>>(data));
  const auto even = [](int x) { return x % 2 == 0; };
  const auto big = [](int x) { return x > 150; };
  const plan::Rows<int> chained = all.filter(even).filter(big);
  const auto want = keep_if(keep_if(data, even), big);
  EXPECT_EQ(chained.to_vector(), want);
  ASSERT_EQ(chained.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(chained[i], want[i]) << i;
  }
  const auto parts = all.filter(even).split(
      3, [](int x) { return static_cast<std::size_t>(x % 4); });
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(parts[k].to_vector(),
              keep_if(keep_if(data, even),
                      [k](int x) { return static_cast<std::size_t>(x % 4) == k; }))
        << "part " << k;
  }
}

TEST(Rows, ChainedSelectionsReturnTheReferenceRows) {
  const auto data = mixed_values();
  const auto q = Queryable<int>(data, std::make_shared<RootBudget>(1e9),
                                std::make_shared<NoiseSource>(3));
  const auto even = [](int x) { return x % 2 == 0; };
  const auto big = [](int x) { return x > 100; };
  const auto mod5 = [](int x) { return x % 5 != 0; };

  // where of a partition part of a where.
  const auto parts = q.where(even).partition(
      std::vector<int>{0, 1, 2}, [](int x) { return x % 3; });
  for (int k = 0; k < 3; ++k) {
    const auto want = keep_if(
        keep_if(keep_if(data, even), [k](int x) { return x % 3 == k; }), big);
    EXPECT_EQ(parts.at(k).where(big).data_unsafe(), want) << "part " << k;
  }
  // distinct of a where.
  EXPECT_EQ(q.where(big).distinct().data_unsafe(),
            distinct_of(keep_if(data, big)));
  // except / intersect of selected inputs.
  const auto left = keep_if(data, even);
  const auto right = keep_if(data, big);
  const std::unordered_set<int> right_set(right.begin(), right.end());
  EXPECT_EQ(q.where(even).except(q.where(big)).data_unsafe(),
            distinct_of(keep_if(left, [&](int x) {
              return right_set.count(x) == 0;
            })));
  EXPECT_EQ(q.where(even).intersect(q.where(big)).data_unsafe(),
            distinct_of(keep_if(left, [&](int x) {
              return right_set.count(x) != 0;
            })));
  // A where over an except (a selection over a selection's base).
  EXPECT_EQ(q.where(even).except(q.where(big)).where(mod5).data_unsafe(),
            keep_if(distinct_of(keep_if(left,
                                        [&](int x) {
                                          return right_set.count(x) == 0;
                                        })),
                    mod5));
}

// The same chained pipeline, its releases fanned out over partition parts
// on an executor: byte-identical values at 1 and 4 threads.
std::vector<double> chained_releases(std::size_t threads) {
  const auto q = Queryable<int>(mixed_values(),
                                std::make_shared<RootBudget>(1e9),
                                std::make_shared<NoiseSource>(11));
  const std::vector<int> keys = {0, 1, 2, 3};
  auto parts = q.where([](int x) { return x % 2 == 0; })
                   .partition(keys, [](int x) { return x % 4; });
  const auto per_part = exec::map_parts(
      exec::ExecPolicy{threads}, keys, parts,
      [](int, const Queryable<int>& part) {
        const auto big = part.where([](int x) { return x > 100; });
        return std::vector<double>{
            big.noisy_count(0.5), big.distinct().noisy_count(0.5),
            part.except(big).noisy_count(0.5),
            part.intersect(big).noisy_count(0.5),
            big.noisy_sum(0.5, [](int x) { return (x % 3) - 1.0; })};
      });
  std::vector<double> flat;
  for (const auto& v : per_part) flat.insert(flat.end(), v.begin(), v.end());
  return flat;
}

TEST(Rows, ChainedSelectionsReleaseIdenticalBytesAtOneAndFourThreads) {
  const auto one = chained_releases(1);
  const auto four = chained_releases(4);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------
// (c) a selection pins its base
// ---------------------------------------------------------------------

TEST(Rows, WhereOutlivesItsParentQueryable) {
  const auto even = [](int x) { return x % 2 == 0; };
  std::optional<Queryable<int>> forced;
  std::optional<Queryable<int>> lazy;
  {
    const auto q = Queryable<int>(mixed_values(),
                                  std::make_shared<RootBudget>(1e9),
                                  std::make_shared<NoiseSource>(5));
    forced.emplace(q.where(even));
    std::ignore = forced->noisy_count(1.0);  // materialized while q lives
    lazy.emplace(q.where(even));             // materialized after q dies
  }
  const auto want = keep_if(mixed_values(), even);
  EXPECT_EQ(forced->data_unsafe(), want);
  EXPECT_EQ(lazy->data_unsafe(), want);
  EXPECT_EQ(forced->where([](int x) { return x > 100; }).data_unsafe(),
            keep_if(want, [](int x) { return x > 100; }));
}

TEST(Rows, SharedSourceOutlivesTheCallersHandle) {
  auto base = std::make_shared<const std::vector<int>>(mixed_values());
  const auto q = Queryable<int>(base, std::make_shared<RootBudget>(1e9),
                                std::make_shared<NoiseSource>(5));
  const auto filtered = q.where([](int x) { return x < 10; });
  base.reset();
  EXPECT_EQ(filtered.data_unsafe(),
            keep_if(mixed_values(), [](int x) { return x < 10; }));
}

}  // namespace
}  // namespace dpnet::core
