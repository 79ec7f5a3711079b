#include "sim/payload_bank.hpp"

#include "common/check.hpp"

namespace asyncdr::sim {

PayloadPtr PayloadBank::intern(PayloadPtr payload) {
  const std::uint64_t hash = payload->content_hash();
  if (hash == 0) return payload;  // type opted out of interning
  // Hash-bucket scan: at most ONE live entry per content class exists
  // (charge() registers canonical bodies only, and every charge is preceded
  // by an intern), so the visit order over the bucket cannot change which
  // body is returned.
  const auto [first, last] = by_hash_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second == payload.get()) return payload;  // already canonical
    if (it->second->content_equals(*payload)) {
      ++interned_hits_;
      return entries_.find(it->second)->second.keep;
    }
  }
  return payload;
}

void PayloadBank::charge(const PayloadPtr& payload, std::uint64_t copies) {
  ASYNCDR_EXPECTS(payload != nullptr);
  if (copies == 0) return;
  auto [it, inserted] = entries_.try_emplace(payload.get());
  Entry& entry = it->second;
  if (inserted) {
    entry.keep = payload;
    entry.hash = payload->content_hash();
    // Modeled body bytes: the data bits rounded to bytes plus a fixed
    // 48-byte object/control-block overhead (vtable + shared_ptr control
    // block). One charge per distinct body, however wide the fan-out.
    entry.bytes = obs::modeled_alloc_bytes(
        48 + (static_cast<std::uint64_t>(payload->size_bits()) + 7) / 8);
    live_bytes_ += entry.bytes;
    if (pool_ != nullptr) pool_->add(entry.bytes);
    if (entry.hash != 0) {
      // The intern-before-charge contract makes this body the unique live
      // representative of its content class; registering a duplicate would
      // make intern() outcomes depend on hash-bucket order.
      bool unique_content = true;
      const auto [first, last] = by_hash_.equal_range(entry.hash);
      for (auto h = first; h != last; ++h) {
        if (h->second->content_equals(*payload)) unique_content = false;
      }
      ASYNCDR_INVARIANT_MSG(
          unique_content,
          "payload charged without interning: duplicate live content");
      by_hash_.emplace(entry.hash, payload.get());
    }
  }
  entry.refs += copies;
  live_refs_ += copies;
}

void PayloadBank::credit(const Payload* payload, std::uint64_t copies) {
  if (copies == 0) return;
  const auto it = entries_.find(payload);
  ASYNCDR_INVARIANT_MSG(it != entries_.end(),
                        "payload credited but never charged");
  Entry& entry = it->second;
  ASYNCDR_INVARIANT_MSG(entry.refs >= copies,
                        "payload credited more copies than charged");
  entry.refs -= copies;
  live_refs_ -= copies;
  if (entry.refs > 0) return;
  live_bytes_ -= entry.bytes;
  if (pool_ != nullptr) pool_->sub(entry.bytes);
  if (entry.hash != 0) {
    const auto [first, last] = by_hash_.equal_range(entry.hash);
    for (auto h = first; h != last; ++h) {
      if (h->second == payload) {
        by_hash_.erase(h);
        break;
      }
    }
  }
  entries_.erase(it);
}

void PayloadBank::set_pool(obs::MemPool* pool) {
  if (pool == pool_) return;
  // Move the live footprint between pools so the charged bytes always sit
  // on exactly one pool. add/sub are commutative, so the (unordered) entry
  // visit order cannot leak into any accounting output.
  if (pool_ != nullptr) pool_->sub(live_bytes_);
  pool_ = pool;
  if (pool_ != nullptr) pool_->add(live_bytes_);
}

}  // namespace asyncdr::sim
