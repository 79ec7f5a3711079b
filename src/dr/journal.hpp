// Crash-recovery write-ahead journal. A world running with recovery enabled
// gives every peer an append-only log of the intervals it has downloaded
// (with their bit values) plus protocol phase checkpoints. The backing
// store is plain in-memory bytes owned by the world — deterministic, no
// wall clock, no ambient filesystem — and it survives a peer crash, which
// is the whole point: a revived peer replays its log and resumes querying
// only the bits it never persisted.
//
// Records are CRC-framed so a torn or truncated tail is *detected and
// discarded*, never trusted: replay stops at the first record whose frame
// or checksum does not verify, so the recovered interval set is always a
// prefix of what was durably committed (the no-over-claim invariant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/interval_set.hpp"
#include "obs/mem.hpp"
#include "sim/types.hpp"

namespace asyncdr::dr {

/// Sentinel crash points inside the journal write path. Chaos injectors
/// hook these to kill a peer *mid-write* and check that recovery never
/// trusts the resulting torn tail.
enum class CrashPoint {
  kAppendStart,  ///< before any byte of a bits record is written
  kMidRecord,    ///< header + partial payload written, no CRC (torn tail)
  kAppendCommit, ///< the full record (including CRC) is durable
  kCheckpoint,   ///< before a checkpoint record is written
};

[[nodiscard]] const char* to_string(CrashPoint point);

/// Invoked at each sentinel; returning true means "this peer was just
/// killed here" — the append aborts (leaving whatever bytes were already
/// written) and reports failure to the caller.
using CrashPointHook = std::function<bool(sim::PeerId, CrashPoint)>;

/// Result of replaying one peer's log.
struct JournalReplay {
  /// The CRC-verified claimed download set.
  IntervalSet intervals;
  /// Recovered bit values (size n); positions outside `intervals` are 0.
  BitVec bits;
  /// Checkpoints in append order: (name, value).
  std::vector<std::pair<std::string, std::uint64_t>> checkpoints;
  /// Complete records replayed.
  std::size_t records = 0;
  /// True iff a trailing partial/corrupt record was discarded.
  bool torn = false;
  /// Bytes discarded past the last verified record.
  std::size_t discarded_bytes = 0;
};

/// What a revived peer gets handed instead of on_start(): the replayed
/// journal plus how many times it has been restarted.
struct RecoveryState {
  JournalReplay journal;
  std::size_t restart_count = 0;
};

/// Per-peer append-only byte logs, owned by the world so they outlive peer
/// incarnations. The corruption helpers exist for the chaos layer
/// (journal-loss injectors); protocol code never calls them.
class JournalStore {
 public:
  explicit JournalStore(std::size_t k);

  [[nodiscard]] std::size_t peers() const { return logs_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& log(sim::PeerId id) const;
  [[nodiscard]] std::size_t bytes(sim::PeerId id) const;

  /// Drops the last `count` bytes of a log (simulated partial loss).
  void truncate_tail(sim::PeerId id, std::size_t count);
  /// Flips one bit; `bit_index` is taken modulo the log's bit length
  /// (no-op on an empty log), so injectors need not know the exact size.
  void flip_bit(sim::PeerId id, std::size_t bit_index);
  /// Wipes the log entirely (total journal loss -> cold restart).
  void clear(sim::PeerId id);

  /// Installs the crash-point hook consulted on every append.
  void set_crash_point_hook(CrashPointHook hook) { hook_ = std::move(hook); }

  /// Wires the `dr.journal` accounting pool: per-log byte capacities plus
  /// the log-of-logs shell, settled after every mutating operation.
  void set_mem_pool(obs::MemPool* pool);

 private:
  friend class Journal;

  /// True iff the hook says the peer was killed at this point.
  [[nodiscard]] bool killed_at(sim::PeerId id, CrashPoint point) const;

  /// Reconciles one log's modeled capacity bytes with the pool.
  void settle(sim::PeerId id);

  std::vector<std::vector<std::uint8_t>> logs_;
  CrashPointHook hook_;
  obs::MemPool* mem_pool_ = nullptr;  ///< dr.journal (nullable)
  std::vector<std::uint64_t> recorded_;  ///< last settled bytes per log
  std::uint64_t base_recorded_ = 0;      ///< logs_ shell bytes
};

/// Lightweight per-peer write handle over a JournalStore.
class Journal {
 public:
  Journal(JournalStore& store, sim::PeerId id);

  /// Appends one record claiming bits [lo, lo + values.size()) with the
  /// given values. Returns false iff a crash-point sentinel killed the
  /// peer mid-append — the caller must stop immediately (it is crashed).
  bool append_bits(std::size_t lo, const BitVec& values);
  /// The same for the slice values[from, from + count): one record claiming
  /// bits [lo, lo + count), packed from the slice's words.
  bool append_bits(std::size_t lo, const BitVec& values, std::size_t from,
                   std::size_t count);

  /// Appends a protocol phase checkpoint. Same return convention.
  bool checkpoint(const std::string& name, std::uint64_t value);

  /// Replays a log against an n-bit input. Walks records in order and
  /// stops at the first framing or CRC failure; everything after is
  /// reported as a discarded torn tail. Never throws on corrupt input.
  [[nodiscard]] static JournalReplay replay(
      const std::vector<std::uint8_t>& log, std::size_t n);

  /// CRC-32 (reflected, polynomial 0xEDB88320) over a byte range.
  [[nodiscard]] static std::uint32_t crc32(const std::uint8_t* data,
                                           std::size_t len);

 private:
  JournalStore& store_;
  sim::PeerId id_;
};

}  // namespace asyncdr::dr
