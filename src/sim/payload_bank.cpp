#include "sim/payload_bank.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace asyncdr::sim {

PayloadBank::~PayloadBank() {
  for (const PayloadPtr& body : live_) body->bank_record_.clear();
}

PayloadPtr PayloadBank::intern(PayloadPtr payload) {
  const Payload::BankRecord& record = payload->bank_record_;
  if (record.bank == this) return payload;  // live here: already canonical
  ASYNCDR_INVARIANT_MSG(record.bank == nullptr,
                        "payload body is live in another bank");
  if (table_used_ == 0) return payload;  // no interned body is live
  const std::uint64_t hash = payload->content_hash();
  if (hash == 0) return payload;  // type opted out of interning
  // At most ONE live body per content class exists (charge() registers
  // canonical bodies only, and every charge is preceded by an intern), so
  // the probe order cannot change which body is returned.
  for (std::size_t i = home(hash); table_[i] != nullptr;
       i = (i + 1) & (table_.size() - 1)) {
    const Payload* body = table_[i];
    if (body->bank_record_.hash == hash && body->content_equals(*payload)) {
      ++interned_hits_;
      return live_[body->bank_record_.slot];
    }
  }
  return payload;
}

void PayloadBank::charge(const PayloadPtr& payload, std::uint64_t copies) {
  ASYNCDR_EXPECTS(payload != nullptr);
  if (copies == 0) return;
  Payload::BankRecord& record = payload->bank_record_;
  if (record.bank != this) {
    ASYNCDR_INVARIANT_MSG(record.bank == nullptr,
                          "payload body is live in another bank");
    record.bank = this;
    record.hash = payload->content_hash();
    // Modeled body bytes: the data bits rounded to bytes plus a fixed
    // 48-byte object/control-block overhead (vtable + shared_ptr control
    // block). One charge per distinct body, however wide the fan-out.
    record.bytes = obs::modeled_alloc_bytes(
        48 + (static_cast<std::uint64_t>(payload->size_bits()) + 7) / 8);
    record.slot = live_.size();
    live_.push_back(payload);
    live_bytes_ += record.bytes;
    if (pool_ != nullptr) pool_->add(record.bytes);
    if (record.hash != 0) table_insert(payload.get());
  }
  record.refs += copies;
  live_refs_ += copies;
}

void PayloadBank::credit(const Payload* payload, std::uint64_t copies) {
  if (copies == 0) return;
  Payload::BankRecord& record = payload->bank_record_;
  ASYNCDR_INVARIANT_MSG(record.bank == this,
                        "payload credited but never charged");
  ASYNCDR_INVARIANT_MSG(record.refs >= copies,
                        "payload credited more copies than charged");
  record.refs -= copies;
  live_refs_ -= copies;
  if (record.refs > 0) return;
  live_bytes_ -= record.bytes;
  if (pool_ != nullptr) pool_->sub(record.bytes);
  if (record.hash != 0) table_erase(payload);
  // Swap-remove from the live list; the body may die with its last entry,
  // so its record is cleared first.
  const std::size_t slot = record.slot;
  record.clear();
  if (slot + 1 != live_.size()) {
    live_[slot] = std::move(live_.back());
    live_[slot]->bank_record_.slot = slot;
  }
  live_.pop_back();
}

void PayloadBank::table_insert(const Payload* body) {
  if (2 * (table_used_ + 1) > table_.size()) {
    std::vector<const Payload*> old(std::max<std::size_t>(16, 2 * table_.size()),
                                    nullptr);
    old.swap(table_);
    for (const Payload* p : old) {
      if (p == nullptr) continue;
      std::size_t i = home(p->bank_record_.hash);
      while (table_[i] != nullptr) i = (i + 1) & (table_.size() - 1);
      table_[i] = p;
    }
  }
  // The intern-before-charge contract makes this body the unique live
  // representative of its content class; registering a duplicate would
  // make intern() outcomes depend on probe order. Every body of the same
  // hash lies between its home slot and the first empty one.
  const std::uint64_t hash = body->bank_record_.hash;
  std::size_t i = home(hash);
  for (; table_[i] != nullptr; i = (i + 1) & (table_.size() - 1)) {
    ASYNCDR_INVARIANT_MSG(
        table_[i]->bank_record_.hash != hash ||
            !table_[i]->content_equals(*body),
        "payload charged without interning: duplicate live content");
  }
  table_[i] = body;
  ++table_used_;
}

void PayloadBank::table_erase(const Payload* body) {
  const std::size_t mask = table_.size() - 1;
  std::size_t hole = home(body->bank_record_.hash);
  while (table_[hole] != body) {
    ASYNCDR_INVARIANT(table_[hole] != nullptr);
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move later members of the probe run into the
  // hole whenever the hole lies on their way from their home slot, so
  // every lookup still reaches its body before an empty slot.
  for (std::size_t i = (hole + 1) & mask; table_[i] != nullptr;
       i = (i + 1) & mask) {
    const std::size_t want = home(table_[i]->bank_record_.hash);
    if (((i - want) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
  }
  table_[hole] = nullptr;
  --table_used_;
}

void PayloadBank::set_pool(obs::MemPool* pool) {
  if (pool == pool_) return;
  // Move the live footprint between pools so the charged bytes always sit
  // on exactly one pool.
  if (pool_ != nullptr) pool_->sub(live_bytes_);
  pool_ = pool;
  if (pool_ != nullptr) pool_->add(live_bytes_);
}

}  // namespace asyncdr::sim
