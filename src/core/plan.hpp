// Logical plan IR: the operator DAG behind every Queryable.
//
// A Queryable used to interleave operator logic, memoization, budget
// charging, and trace emission in one closure chain.  The plan layer
// separates the *what* from the *when*: each transformation builds a
// plan::Node carrying the operator name, its stability factor, a stable
// node id, and a deferred batch compute over its inputs' rows.
// Executors (sequential aggregation calls or core::exec workers) then
// materialize nodes on demand; materialization stays memoized and
// thread-safe, so the same node evaluated from two workers runs once.
//
// Row storage (docs/architecture.md, "Row storage"): a node's rows are a
// plan::Rows<T> — a shared, immutable base buffer plus an optional,
// order-preserving selection of base indices.  Subset operators (where,
// distinct, except, intersect, partition parts) emit a selection over
// their input's base and never copy a record; a selection over a
// selection composes into indices of the same base, so a row is never
// more than one indirection away.  Operators that make new values build
// a fresh base.  A selection pins its base buffer for as long as it
// lives.
//
// Node ids are the determinism anchor (see docs/architecture.md):
//
//   root id   = mix64(kRootSalt, noise-stream base)
//   child id  = mix64(parent id, per-parent child ordinal)
//
// Ids therefore depend only on the shape of the plan and the order in
// which the analyst's code derives children from each parent — never on
// which thread happens to run first.  NoiseSource forks and audit-ledger
// entries key off these ids, which is what makes parallel execution
// byte-identical to sequential.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/guard.hpp"
#include "core/hash.hpp"
#include "core/metrics.hpp"
#include "core/obs/diagnostics.hpp"
#include "core/trace.hpp"

namespace dpnet::core::plan {

using NodeId = std::uint64_t;

inline constexpr NodeId kRootSalt = 0x706c616e726f6f74ULL;     // "planroot"
inline constexpr NodeId kReleaseSalt = 0x72656c65617365ULL;    // "release"

/// Type-erased plan node: identity, operator metadata, and DAG edges.
/// The typed rows live in the Node<T> subclass.
class NodeBase {
 public:
  NodeBase(NodeId id, std::string op, double op_stability,
           std::vector<std::weak_ptr<const NodeBase>> inputs = {})
      : id_(id),
        op_(std::move(op)),
        op_stability_(op_stability),
        inputs_(std::move(inputs)) {}

  virtual ~NodeBase() = default;

  NodeBase(const NodeBase&) = delete;
  NodeBase& operator=(const NodeBase&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& op() const { return op_; }
  [[nodiscard]] double op_stability() const { return op_stability_; }

  /// True once the rows have been computed (or were supplied eagerly).
  [[nodiscard]] bool materialized() const {
    return materialized_.load(std::memory_order_acquire);
  }

  /// Live upstream nodes.  Edges are weak so a parent node can be freed
  /// once every consumer has materialized (the pre-plan engine had the
  /// same behavior by dropping compute closures); its base buffer lives
  /// on while any selection over it does.
  [[nodiscard]] std::vector<std::shared_ptr<const NodeBase>> inputs() const {
    std::vector<std::shared_ptr<const NodeBase>> live;
    live.reserve(inputs_.size());
    for (const auto& weak : inputs_) {
      if (auto strong = weak.lock()) live.push_back(std::move(strong));
    }
    return live;
  }

  /// Id for the next child derived from this node.  Deterministic as long
  /// as each node's children are derived in a deterministic order (which
  /// analyst code — including per-partition executor tasks, each of which
  /// owns its branch — guarantees by construction).
  [[nodiscard]] NodeId next_child_id() const {
    return mix64(id_, child_ordinal_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Seed for the NoiseSource fork backing this node's next release.
  /// Mixing (stream base, node id, per-node release ordinal) makes every
  /// aggregation's noise independent of both sibling nodes and thread
  /// schedule.
  [[nodiscard]] std::uint64_t next_release_seed(std::uint64_t stream) const {
    const std::uint64_t ordinal =
        release_ordinal_.fetch_add(1, std::memory_order_relaxed);
    return mix64(mix64(mix64(kReleaseSalt, stream), id_), ordinal);
  }

  /// Indented rendering of the reachable DAG (operator, short id, and a
  /// '*' marker on materialized nodes).  Diagnostic only.
  [[nodiscard]] std::string describe() const {
    std::string out;
    describe_into(out, 0);
    return out;
  }

 protected:
  void mark_materialized() {
    materialized_.store(true, std::memory_order_release);
  }

 private:
  void describe_into(std::string& out, int depth) const {
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += op_;
    out += '#';
    constexpr char kHex[] = "0123456789abcdef";
    for (int shift = 28; shift >= 0; shift -= 4) {
      out += kHex[(id_ >> shift) & 0xF];
    }
    if (materialized()) out += '*';
    out += '\n';
    for (const auto& input : inputs()) {
      input->describe_into(out, depth + 1);
    }
  }

  const NodeId id_;
  const std::string op_;
  const double op_stability_;
  const std::vector<std::weak_ptr<const NodeBase>> inputs_;
  mutable std::atomic<std::uint64_t> child_ordinal_{0};
  mutable std::atomic<std::uint64_t> release_ordinal_{0};
  std::atomic<bool> materialized_{false};
};

/// The one row representation of a plan node: a shared, immutable base
/// buffer plus an optional, order-preserving selection of base indices.
///
/// Copying a Rows never copies a record: it shares the base.  filter()
/// and split() emit selections over the same base — a selection over a
/// selection composes into base indices — so subset operators cost one
/// uint32 per kept row instead of one record.  Any selection (and any
/// Queryable viewing the base) pins the whole base buffer until it is
/// released, even when it keeps only a few rows.
template <typename T>
class Rows {
 public:
  using value_type = T;

  /// Indices are uint32, so a base may hold at most 2^32 - 1 rows.
  static constexpr std::size_t kMaxRows =
      std::numeric_limits<std::uint32_t>::max();

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const T* base, const std::uint32_t* selection,
                   std::size_t i)
        : base_(base), selection_(selection), i_(i) {}

    reference operator*() const {
      return selection_ != nullptr ? base_[selection_[i_]] : base_[i_];
    }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++i_;
      return prev;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    const T* base_ = nullptr;
    const std::uint32_t* selection_ = nullptr;
    std::size_t i_ = 0;
  };

  Rows() = default;

  /// A fresh base holding `owned` (operators that make new values).
  explicit Rows(std::vector<T> owned)
      : Rows(std::make_shared<const std::vector<T>>(std::move(owned))) {}

  /// Every row of a shared base, in base order.
  explicit Rows(std::shared_ptr<const std::vector<T>> base)
      : base_(std::move(base)) {
    if (base_ && base_->size() > kMaxRows) {
      throw InvalidQueryError("row buffer exceeds 2^32 - 1 rows");
    }
  }

  [[nodiscard]] std::size_t size() const {
    if (selected_) return selection_.size();
    return base_ ? base_->size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return selected_ ? (*base_)[selection_[i]] : (*base_)[i];
  }

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(base_data(), selection_data(), 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(base_data(), selection_data(), size());
  }

  /// The rows `keep(row)` accepts, in order, as a selection over this
  /// base.  Copies no record.
  template <typename Keep>
  [[nodiscard]] Rows filter(Keep&& keep) const {
    // Branch-free: every index is written and the cursor advances only
    // past kept ones, so an unpredictable predicate costs no mispredicts.
    std::vector<std::uint32_t> kept(size());
    std::size_t n = 0;
    for_each_indexed([&](std::uint32_t at, const T& row) {
      kept[n] = at;
      n += keep(row) ? 1 : 0;
    });
    kept.resize(n);
    if (n < kept.capacity() / 2) kept.shrink_to_fit();
    return Rows(base_, std::move(kept));
  }

  /// Splits the rows into `parts` selections over this base: each row
  /// goes to part `slot_of(row)`, or nowhere when that is >= `parts`.
  /// Row order is preserved within every part.  Copies no record.
  template <typename SlotF>
  [[nodiscard]] std::vector<Rows> split(std::size_t parts,
                                        SlotF&& slot_of) const {
    std::vector<std::vector<std::uint32_t>> kept(parts);
    for_each_indexed([&](std::uint32_t at, const T& row) {
      const std::size_t slot = slot_of(row);
      if (slot < parts) kept[slot].push_back(at);
    });
    std::vector<Rows> out;
    out.reserve(parts);
    for (auto& indices : kept) out.push_back(Rows(base_, std::move(indices)));
    return out;
  }

  /// The rows as an owned vector (copies every row; trusted side only).
  [[nodiscard]] std::vector<T> to_vector() const {
    return std::vector<T>(begin(), end());
  }

 private:
  Rows(std::shared_ptr<const std::vector<T>> base,
       std::vector<std::uint32_t> selection)
      : base_(std::move(base)),
        selection_(std::move(selection)),
        selected_(true) {}

  /// Calls f(base index, row) for every row, hoisting the selection
  /// test out of the loop.
  template <typename F>
  void for_each_indexed(F&& f) const {
    if (!base_) return;
    const std::vector<T>& base = *base_;
    if (selected_) {
      for (const std::uint32_t at : selection_) f(at, base[at]);
    } else {
      const std::size_t n = base.size();
      for (std::size_t at = 0; at < n; ++at) {
        f(static_cast<std::uint32_t>(at), base[at]);
      }
    }
  }

  [[nodiscard]] const T* base_data() const {
    return base_ ? base_->data() : nullptr;
  }
  [[nodiscard]] const std::uint32_t* selection_data() const {
    return selected_ ? selection_.data() : nullptr;
  }

  std::shared_ptr<const std::vector<T>> base_;
  std::vector<std::uint32_t> selection_;
  bool selected_ = false;
};

/// A typed plan node: a lazily-computed, memoized batch row buffer.
/// Materialization is thread-safe (std::call_once), so executor workers
/// may race to force a shared node and exactly one compute runs.
template <typename T>
class Node final : public NodeBase {
 public:
  /// Eager source node (protected datasets, partition parts).
  Node(NodeId id, std::string op, Rows<T> rows)
      : NodeBase(id, std::move(op), 1.0), rows_(std::move(rows)) {
    std::call_once(once_, [] {});
    mark_materialized();
  }

  /// Derived node: `compute` runs once on first demand.  `input_size` is
  /// only consulted for the trace span, after compute (when the parents
  /// are guaranteed materialized).
  Node(NodeId id, std::string op, double op_stability,
       std::function<Rows<T>()> compute,
       std::function<std::size_t()> input_size,
       std::vector<std::weak_ptr<const NodeBase>> inputs)
      : NodeBase(id, std::move(op), op_stability, std::move(inputs)),
        compute_(std::move(compute)),
        input_size_(std::move(input_size)),
        traced_(obs::diagnostics_armed()) {}

  /// The node's rows, computing them on first call.  When the forcing
  /// thread has an active trace and the pipeline was built with diagnostics
  /// armed (core/obs/diagnostics.hpp), the
  /// materialization records an operator span — nested under whatever
  /// span forced it, exactly like the pre-plan engine.
  ///
  /// Fault containment (docs/robustness.md): the compute — which runs
  /// analyst-supplied predicates/selectors — executes inside
  /// contain_analyst, so a throwing UDF surfaces as a sanitized
  /// AnalystCodeError naming only this operator and node id.  An active
  /// QueryGuard is checkpointed before the compute and charged with the
  /// produced row count after it; a throwing checkpoint leaves the
  /// once-flag unset, so an aborted node can be re-forced later.
  const Rows<T>& rows() {
    std::call_once(once_, [this] {
      guard_checkpoint(op().c_str(), id());
      // Materialization checkpoint: the operator's wall time feeds the
      // per-kind op.wall_ms.<kind> latency histogram whether or not a
      // trace is recording (one observe per node, never per record).
      const auto op_t0 = std::chrono::steady_clock::now();
      if (traced_ && active_trace() != nullptr) {
        TraceScope scope(op());
        scope.set_stability(op_stability());
        rows_ = contained_compute();
        scope.set_rows(static_cast<std::int64_t>(input_size_()),
                       static_cast<std::int64_t>(rows_.size()));
      } else {
        rows_ = contained_compute();
      }
      builtin_metrics::observe_op_wall_ms(
          op(), std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - op_t0)
                    .count());
      guard_charge_rows(rows_.size(), op().c_str(), id());
      compute_ = nullptr;  // release captured parents once materialized
      input_size_ = nullptr;
      mark_materialized();
    });
    return rows_;
  }

 private:
  /// Runs the deferred compute inside the analyst-exception containment
  /// boundary, with the plan.materialize failpoint armed for chaos tests
  /// (an injected throw is indistinguishable from a throwing UDF).
  [[nodiscard]] Rows<T> contained_compute() {
    return contain_analyst(op().c_str(), id(), [this] {
      failpoint::hit("plan.materialize", op());
      return compute_();
    });
  }

  std::once_flag once_;
  std::function<Rows<T>()> compute_;
  std::function<std::size_t()> input_size_;
  bool traced_ = false;
  Rows<T> rows_;
};

}  // namespace dpnet::core::plan
