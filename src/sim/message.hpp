// Messages and payloads. Every protocol defines its own payload structs
// deriving from Payload; size_bits() drives both message-complexity
// accounting (a payload of s bits counts as ceil(s / B) unit messages) and
// link transmission time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>

#include "sim/types.hpp"

namespace asyncdr::sim {

class PayloadBank;

/// Base class of all peer-to-peer message contents.
///
/// Payloads are immutable once sent and shared between all recipients of a
/// broadcast, so they are handled through shared_ptr<const Payload>.
class Payload {
 public:
  virtual ~Payload();

  /// Size of the payload in bits, as the paper accounts it (the data bits;
  /// headers such as phase/stage numbers contribute O(log) bits and are
  /// included by each payload type explicitly).
  [[nodiscard]] virtual std::size_t size_bits() const = 0;

  /// Human-readable payload kind for traces and error messages.
  [[nodiscard]] virtual std::string type_name() const = 0;

  // ---- Content identity (payload interning, see sim::PayloadBank) ----
  //
  // Protocol senders often construct byte-identical bodies independently
  // (k peers each building the same FULL rescue array). A payload type may
  // opt into interning by returning a nonzero content hash and a structural
  // equality; the bank then keeps ONE live body per content class. Types
  // that keep the defaults are never interned (every object is itself).

  /// Nonzero content hash over everything on the wire; 0 opts out of
  /// interning. Implementations must guarantee hash equality for
  /// content_equals() payloads (mix fields via payload_hash_mix and force
  /// the result nonzero with `| 1`).
  [[nodiscard]] virtual std::uint64_t content_hash() const { return 0; }

  /// Structural equality with another payload (same dynamic type and same
  /// wire content). Only consulted for hash-equal candidates. The default
  /// is object identity, matching the opt-out content_hash.
  [[nodiscard]] virtual bool content_equals(const Payload& other) const {
    return this == &other;
  }

 private:
  friend class PayloadBank;

  /// A PayloadBank's record of this body while it has copies in flight
  /// there (see sim/payload_bank.hpp). It is bookkeeping, not content: a
  /// copy of a payload is a new body, live nowhere, so copying leaves the
  /// record behind.
  struct BankRecord {
    BankRecord() = default;
    BankRecord(const BankRecord&) {}
    BankRecord& operator=(const BankRecord&) { return *this; }
    /// Back to live nowhere.
    void clear() {
      bank = nullptr;
      refs = bytes = hash = 0;
      slot = 0;
    }

    const PayloadBank* bank = nullptr;  ///< the bank it is live in, or null
    std::uint64_t refs = 0;    ///< scheduled, unsettled delivery copies
    std::uint64_t bytes = 0;   ///< modeled body bytes charged to the pool
    std::uint64_t hash = 0;    ///< content hash; 0 = not interned
    std::size_t slot = 0;      ///< index in the bank's live list
  };
  mutable BankRecord bank_record_;
};

/// SplitMix64-style combiner for building Payload::content_hash values
/// field by field. Not cryptographic — collisions only cost an extra
/// content_equals call.
constexpr std::uint64_t payload_hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

using PayloadPtr = std::shared_ptr<const Payload>;

/// A payload in flight between two peers.
struct Message {
  PeerId from = kNoPeer;
  PeerId to = kNoPeer;
  PayloadPtr payload;
  Time sent_at = 0;
  std::uint64_t id = 0;  // unique per network, in send order
};

/// Downcasts a delivered payload to the protocol's concrete type; returns
/// nullptr if the payload is of another type (e.g. garbage injected by a
/// Byzantine peer using a different payload class). A `final` T has no
/// subclasses, so its test is one typeid comparison; a handler's chain of
/// attempts then costs no dynamic_cast hierarchy walk per miss. Other
/// types keep dynamic_cast, which also matches their subclasses.
template <typename T>
const T* payload_as(const Payload& p) {
  static_assert(std::is_base_of_v<Payload, T>);
  if constexpr (std::is_final_v<T>) {
    return typeid(p) == typeid(T) ? static_cast<const T*>(&p) : nullptr;
  } else {
    return dynamic_cast<const T*>(&p);
  }
}

}  // namespace asyncdr::sim
