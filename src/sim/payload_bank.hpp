// Interned, refcounted store of in-flight payload bodies. Two jobs:
//
//  * Interning: protocol senders construct duplicate payload bodies per
//    stage (k peers each building an identical FULL rescue array). For
//    payload types that opt in via Payload::content_hash(), the bank maps a
//    freshly built body onto the live canonical object of the same content,
//    so a k-wide broadcast wave keeps ONE body alive instead of k — the
//    difference between O(n) and O(n*k) payload bytes per stage.
//
//  * Copy accounting: every scheduled delivery copy holds one reference on
//    its payload's bank entry; the modeled body bytes are charged to the
//    sim.msg.payloads pool when the first reference appears and credited
//    when the last one settles. References are tracked even with no pool
//    wired, so `live_refs() == Network::total_in_flight()` is a continuous
//    invariant the network audits at teardown (end-of-run leak detection).
//
// A live body's record (in-flight refs, charged bytes, content hash) lives
// on the body itself (Payload::BankRecord), so charge and credit touch only
// the body and intern returns a body already live here without a lookup.
// The bank keeps its live bodies in a list, which holds them alive and lets
// it clear their records when it goes, and the interned ones in an
// open-addressed table keyed by content hash, for intern's lookup. A body
// belongs to one bank while it has copies in flight: every other bank
// refuses it, so no world writes a record another world reads.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/mem.hpp"
#include "sim/message.hpp"

namespace asyncdr::sim {

/// Owned by Network; all traffic funnels through intern/charge/credit.
class PayloadBank {
 public:
  PayloadBank() = default;
  /// Live bodies' records point at their bank, so it stays where it is.
  PayloadBank(const PayloadBank&) = delete;
  PayloadBank& operator=(const PayloadBank&) = delete;
  /// Clears the records of the bodies still live here (a run cut off mid
  /// flight), so they can go to another bank later.
  ~PayloadBank();

  /// Returns the live canonical payload of the same content, or `payload`
  /// itself when none exists (or the type opted out of interning). Only
  /// payloads with at least one in-flight copy can be returned: the bank
  /// never resurrects settled bodies. A body live in another bank is
  /// refused (invariant violation).
  [[nodiscard]] PayloadPtr intern(PayloadPtr payload);

  /// Adds `copies` in-flight references to `payload`, recording it (and
  /// charging the modeled body bytes to the pool) on first reference.
  /// Callers must intern() first — charging a non-canonical duplicate would
  /// register a second live body of the same content.
  void charge(const PayloadPtr& payload, std::uint64_t copies);

  /// Settles `copies` references; the last one releases the body bytes and
  /// drops the body. The payload must have been charged here.
  void credit(const Payload* payload, std::uint64_t copies);

  /// Wires (or re-wires) the accounting pool; live bodies move their
  /// charged bytes from the old pool to the new one.
  void set_pool(obs::MemPool* pool);

  /// Distinct payload bodies with in-flight copies.
  [[nodiscard]] std::uint64_t live_payloads() const { return live_.size(); }
  /// Total in-flight copies across all bodies — the network's
  /// total_in_flight() twin.
  [[nodiscard]] std::uint64_t live_refs() const { return live_refs_; }
  /// Times intern() returned an existing body instead of the argument.
  [[nodiscard]] std::uint64_t interned_payloads() const { return interned_hits_; }
  /// Bytes currently charged for live bodies.
  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }

 private:
  /// Home slot of content hash `hash` in the table (hashes have bit 0 set).
  [[nodiscard]] std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash >> 1) & (table_.size() - 1);
  }
  /// Registers a newly live interned body, refusing a second live body of
  /// the same content.
  void table_insert(const Payload* body);
  /// Unregisters a settled interned body.
  void table_erase(const Payload* body);

  obs::MemPool* pool_ = nullptr;  ///< sim.msg.payloads (nullable)
  std::uint64_t live_refs_ = 0;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t interned_hits_ = 0;
  /// Bodies with copies in flight, each at its record's slot; keeps them
  /// alive. Order is arbitrary and never observed.
  std::vector<PayloadPtr> live_;
  /// Linear-probing table of the live interned bodies (size a power of two,
  /// at most half full; null = empty). At most one live body per content
  /// class (see charge()).
  std::vector<const Payload*> table_;
  std::size_t table_used_ = 0;
};

}  // namespace asyncdr::sim
