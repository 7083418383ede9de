// Radix-partitioned two-phase parallel grouping.
//
// Phase 1 (build): the input is split into contiguous row chunks, one
// per worker.  Each worker scans its chunk and accumulates into
// *private* GroupTables, one per radix partition (middle bits of the
// key's mixed hash), remembering for every key the global row index of
// its first occurrence in the chunk.  No shared mutable state, so no
// locks and no false sharing beyond the output vectors.
//
// Phase 2 (merge): partitions are disjoint by construction — a key's
// hash lands it in exactly one — so each partition merges independently
// (again under the executor).  Workers are merged in chunk order; chunk
// order is row order, so the first worker holding a key also holds its
// globally-first occurrence, and concatenating its item runs in worker
// order reproduces input order exactly.  A final sort of the merged
// groups by first-occurrence row index restores the sequential
// insertion order.
//
// The result is therefore byte-identical to the sequential
// GroupBuilder loop at any thread count — the same determinism contract
// the executor already guarantees for noise and traces
// (docs/architecture.md, "grouping engine").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exec/executor.hpp"
#include "core/group.hpp"
#include "core/grouping/builder.hpp"
#include "core/grouping/table.hpp"
#include "core/guard.hpp"

namespace dpnet::core::exec {

/// Radix fan-out of the two-phase merge.  The partition index uses the
/// *middle* hash bits: the low bits pick the table bucket and the top
/// seven feed the tag byte, so the three must stay independent.
inline constexpr std::size_t kGroupRadixBits = 6;
inline constexpr std::size_t kGroupRadixParts = std::size_t{1}
                                                << kGroupRadixBits;

/// Rows between guard checkpoints in the per-row build loops (power of
/// two; the checkpoint is a TLS read when no guard is installed).
inline constexpr std::size_t kGroupCheckpointStride = 4096;

namespace group_detail {

struct ChunkBounds {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// Contiguous near-even split of [0, n) into `workers` chunks; chunk
/// order is row order, which phase 2's merge relies on.
inline ChunkBounds chunk_bounds(std::size_t n, std::size_t workers,
                                std::size_t w) {
  const std::size_t base = n / workers;
  const std::size_t rem = n % workers;
  const std::size_t lo = w * base + std::min(w, rem);
  return {lo, lo + base + (w < rem ? 1 : 0)};
}

}  // namespace group_detail

/// Groups `rows` by `key(row)` with the executor, returning exactly what
/// the sequential GroupBuilder loop returns: groups in first-occurrence
/// order, items in input order, byte-identical at any thread count.
/// `rows` is any indexable row set with a value_type (std::vector,
/// plan::Rows); workers only read it.
template <typename RowSet, typename KeyF,
          typename V = typename RowSet::value_type>
[[nodiscard]] auto parallel_group_by(const ExecPolicy& policy,
                                     const RowSet& rows, const KeyF& key)
    -> std::vector<
        Group<std::decay_t<std::invoke_result_t<KeyF, const V&>>, V>> {
  using K = std::decay_t<std::invoke_result_t<KeyF, const V&>>;
  const std::size_t n = rows.size();
  std::size_t workers = policy.threads;
  if (workers > n) workers = n;
  if (workers <= 1) {
    grouping::GroupBuilder<K, V> builder;
    for (std::size_t lo = 0; lo < n; lo += grouping::kScanBlock) {
      if ((lo & (kGroupCheckpointStride - 1)) == 0) {
        guard_checkpoint("exec.group_by");
      }
      builder.add_block(rows, lo, std::min(n, lo + grouping::kScanBlock),
                        key);
    }
    return builder.take();
  }

  // Phase 1: private radix-partitioned accumulation per worker.
  struct Acc {
    grouping::GroupTable<K> table;
    std::vector<std::vector<V>> items;      // per local slot
    std::vector<std::uint64_t> first_row;   // per local slot, global index
  };
  std::vector<std::vector<Acc>> accs(workers);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(workers);
    // Task construction only; the row loops run under Executor::run.
    // dpnet-lint: suppress(R11)
    for (std::size_t w = 0; w < workers; ++w) {
      tasks.push_back([&rows, &accs, &key, n, workers, w] {
        const auto [lo, hi] = group_detail::chunk_bounds(n, workers, w);
        std::vector<Acc>& mine = accs[w];
        mine.resize(kGroupRadixParts);
        // Hash-then-probe block scan (same shape as GroupBuilder::
        // add_block): hash a block, prefetch each key's destination
        // bucket, then probe, so the per-partition table misses overlap.
        std::vector<K> bkeys;
        std::vector<std::uint64_t> bhashes;
        bkeys.reserve(grouping::kScanBlock);
        bhashes.reserve(grouping::kScanBlock);
        for (std::size_t blo = lo; blo < hi; blo += grouping::kScanBlock) {
          guard_checkpoint("exec.group_chunk");
          const std::size_t bhi = std::min(hi, blo + grouping::kScanBlock);
          bkeys.clear();
          bhashes.clear();
          // Bounded at kScanBlock rows; the enclosing block loop
          // checkpoints, so the guard still fires every block.
          // dpnet-lint: suppress(R11)
          for (std::size_t i = blo; i < bhi; ++i) {
            bkeys.push_back(key(rows[i]));
            const std::uint64_t h = grouping::mixed_hash<K>(bkeys.back());
            bhashes.push_back(h);
            mine[(h >> 32) & (kGroupRadixParts - 1)].table.prefetch_hashed(h);
          }
          // Bounded at kScanBlock rows — see above.
          // dpnet-lint: suppress(R11)
          for (std::size_t j = 0; j < bkeys.size(); ++j) {
            const std::size_t i = blo + j;
            const std::uint64_t h = bhashes[j];
            Acc& acc = mine[(h >> 32) & (kGroupRadixParts - 1)];
            const auto [slot, inserted] =
                acc.table.acquire_hashed(std::move(bkeys[j]), h);
            if (inserted) {
              acc.items.emplace_back();
              acc.first_row.push_back(i);
            }
            acc.items[slot].push_back(rows[i]);
          }
        }
      });
    }
    Executor(policy).run(std::move(tasks));
  }

  // Phase 2: deterministic per-partition merge in worker (= row) order.
  struct MergedGroup {
    std::uint64_t first = 0;  // global row index of first occurrence
    Group<K, V> group;
  };
  std::vector<std::vector<MergedGroup>> parts(kGroupRadixParts);
  {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(kGroupRadixParts);
    // Task construction only — see above.
    // dpnet-lint: suppress(R11)
    for (std::size_t p = 0; p < kGroupRadixParts; ++p) {
      tasks.push_back([&accs, &parts, workers, p] {
        grouping::GroupTable<K> index;
        std::vector<MergedGroup>& out = parts[p];
        for (std::size_t w = 0; w < workers; ++w) {
          Acc& acc = accs[w][p];
          const auto count = static_cast<std::uint32_t>(acc.table.size());
          for (std::uint32_t s = 0; s < count; ++s) {
            guard_checkpoint("exec.group_merge");
            const auto [g, inserted] = index.acquire_hashed(
                acc.table.steal_key(s), acc.table.hash_at(s));
            if (inserted) {
              out.push_back(MergedGroup{
                  acc.first_row[s],
                  Group<K, V>{index.key_at(g), std::move(acc.items[s])}});
            } else {
              std::vector<V>& items = out[g].group.items;
              items.insert(items.end(),
                           std::make_move_iterator(acc.items[s].begin()),
                           std::make_move_iterator(acc.items[s].end()));
            }
          }
        }
      });
    }
    Executor(policy).run(std::move(tasks));
  }

  // Restore sequential insertion order: sort by first occurrence (row
  // indices are unique, so the order is total and schedule-independent).
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<MergedGroup> merged;
  merged.reserve(total);
  for (auto& part : parts) {
    guard_checkpoint("exec.group_merge");
    for (auto& m : part) merged.push_back(std::move(m));
  }
  std::sort(merged.begin(), merged.end(),
            [](const MergedGroup& a, const MergedGroup& b) {
              return a.first < b.first;
            });
  std::vector<Group<K, V>> out;
  out.reserve(merged.size());
  for (auto& m : merged) out.push_back(std::move(m.group));
  return out;
}

}  // namespace dpnet::core::exec
