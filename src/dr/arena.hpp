// World-owned per-peer working-set arena (the flyweight peer substrate).
//
// Protocol peers used to carry their bulky per-peer protocol working sets
// (heard-from books, deferred-request queues, interval coverage maps) as
// member fields, so every peer object was a self-contained heavyweight. At
// k >= 2^16 that layout is hostile twice over: the per-peer containers
// fragment the heap into k independent allocations, and crash-recovery
// worlds rebuilding a peer re-allocate the whole set from scratch.
//
// The arena flips this into a struct-of-arrays layout: the World owns one
// typed column per protocol working set, each column a single contiguous
// vector of per-peer rows indexed by PeerId. Peers become flyweights over
// the shared columns — they hold a cached row pointer and nothing else.
// Row storage is stable for the lifetime of the World (columns allocate
// all k rows up front and never resize), so cached row pointers survive
// everything except the owning World's destruction.
//
// Crash-recovery contract: World::do_restart() calls reset_peer(id) BEFORE
// building the fresh incarnation, so a revived peer always starts from
// default-constructed rows (the dead incarnation's working set does not
// leak across incarnations).
//
// Accounting: each column reports modeled bytes (row array capacity plus a
// caller-supplied per-row deep-size function); World::sample_mem() folds
// the arena total into the dr.peer.state pool next to the slimmed-down
// Peer::memory_bytes() values.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/mem.hpp"
#include "sim/types.hpp"

namespace asyncdr::dr {

/// Type-erased base of one arena column.
class ColumnBase {
 public:
  explicit ColumnBase(std::string name) : name_(std::move(name)) {}
  virtual ~ColumnBase() = default;

  ColumnBase(const ColumnBase&) = delete;
  ColumnBase& operator=(const ColumnBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Resets one peer's row to its default-constructed state (fresh
  /// incarnation after a crash-recovery restart).
  virtual void reset_row(sim::PeerId id) = 0;

  /// Modeled bytes of the column: row array + per-row deep sizes.
  [[nodiscard]] virtual std::uint64_t memory_bytes() const = 0;

 private:
  std::string name_;
};

/// One typed column: a contiguous vector of per-peer rows. Constructed at
/// full size k and never resized, so `&row(id)` stays valid for the
/// column's lifetime.
template <typename Row>
class ArenaColumn final : public ColumnBase {
 public:
  /// Deep per-row heap bytes (beyond sizeof(Row), which the row array
  /// already covers). Same modeling conventions as Peer::memory_bytes().
  using RowBytesFn = std::uint64_t (*)(const Row&);

  ArenaColumn(std::string name, std::size_t k, RowBytesFn row_bytes)
      : ColumnBase(std::move(name)), rows_(k), row_bytes_(row_bytes) {
    ASYNCDR_EXPECTS(row_bytes != nullptr);
  }

  [[nodiscard]] Row& row(sim::PeerId id) {
    ASYNCDR_EXPECTS(id < rows_.size());
    return rows_[id];
  }
  [[nodiscard]] const Row& row(sim::PeerId id) const {
    ASYNCDR_EXPECTS(id < rows_.size());
    return rows_[id];
  }

  void reset_row(sim::PeerId id) override {
    ASYNCDR_EXPECTS(id < rows_.size());
    rows_[id] = Row{};
  }

  [[nodiscard]] std::uint64_t memory_bytes() const override {
    std::uint64_t total =
        obs::modeled_alloc_bytes(rows_.capacity() * sizeof(Row));
    for (const Row& r : rows_) total += row_bytes_(r);
    return total;
  }

 private:
  std::vector<Row> rows_;
  RowBytesFn row_bytes_;
};

/// The arena itself: a small registry of named typed columns, one World
/// each, plus named world-wide objects. Protocols create both lazily on
/// first access.
class PeerArena {
 public:
  explicit PeerArena(std::size_t k) : k_(k) {}

  [[nodiscard]] std::size_t size() const { return k_; }

  /// Finds or creates the column `name` of row type Row. The row-bytes
  /// function is bound at creation; later calls must agree on the type
  /// (same name + different Row is a wiring bug and throws).
  template <typename Row>
  ArenaColumn<Row>& column(const std::string& name,
                           typename ArenaColumn<Row>::RowBytesFn row_bytes) {
    for (const auto& col : columns_) {
      if (col->name() != name) continue;
      auto* typed = dynamic_cast<ArenaColumn<Row>*>(col.get());
      ASYNCDR_EXPECTS_MSG(typed != nullptr,
                          "arena column reused with a different row type");
      return *typed;
    }
    columns_.push_back(
        std::make_unique<ArenaColumn<Row>>(name, k_, row_bytes));
    return static_cast<ArenaColumn<Row>&>(*columns_.back());
  }

  /// Finds or creates the world-wide object `name` of type T, built by
  /// make() on first use. It is for state derived from the world's config
  /// alone, such as crash_multi's owner layout, that every peer reads: no
  /// restart resets it, and no mem pool charges it. Same name + different T
  /// throws, as for columns.
  template <typename T, typename Make>
  T& shared(const std::string& name, Make&& make) {
    for (const auto& obj : shared_) {
      if (obj->name != name) continue;
      auto* typed = dynamic_cast<SharedObject<T>*>(obj.get());
      ASYNCDR_EXPECTS_MSG(typed != nullptr,
                          "arena object reused with a different type");
      return typed->value;
    }
    shared_.push_back(std::make_unique<SharedObject<T>>(name, make()));
    return static_cast<SharedObject<T>&>(*shared_.back()).value;
  }

  /// Default-constructs every column's row for `id` — the crash-recovery
  /// hook that keeps a dead incarnation's working set from leaking into
  /// the fresh one.
  void reset_peer(sim::PeerId id) {
    for (const auto& col : columns_) col->reset_row(id);
  }

  /// Modeled bytes across all columns (charged to dr.peer.state).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    std::uint64_t total = 0;
    for (const auto& col : columns_) total += col->memory_bytes();
    return total;
  }

  /// Modeled bytes of one named column; 0 if it does not exist. Test and
  /// diagnostics introspection.
  [[nodiscard]] std::uint64_t column_bytes(const std::string& name) const {
    for (const auto& col : columns_) {
      if (col->name() == name) return col->memory_bytes();
    }
    return 0;
  }

  /// Registered column names, in creation order (deterministic: creation
  /// follows peer construction order).
  [[nodiscard]] std::vector<std::string> column_names() const {
    std::vector<std::string> names;
    names.reserve(columns_.size());
    for (const auto& col : columns_) names.push_back(col->name());
    return names;
  }

 private:
  struct SharedBase {
    explicit SharedBase(std::string n) : name(std::move(n)) {}
    virtual ~SharedBase() = default;
    std::string name;
  };
  template <typename T>
  struct SharedObject final : SharedBase {
    SharedObject(std::string n, T v)
        : SharedBase(std::move(n)), value(std::move(v)) {}
    T value;
  };

  std::size_t k_;
  std::vector<std::unique_ptr<ColumnBase>> columns_;
  std::vector<std::unique_ptr<SharedBase>> shared_;
};

}  // namespace asyncdr::dr
