#include "dr/journal.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace asyncdr::dr {

namespace {

// Record framing: | kind:1 | payload_len:4 LE | payload | crc:4 LE |
// with the CRC computed over kind + payload_len + payload. The frame is
// self-delimiting, so replay can walk a log byte-exactly and stop at the
// first frame that fails to verify.
constexpr std::uint8_t kKindBits = 0xB1;
constexpr std::uint8_t kKindCheckpoint = 0xC9;
constexpr std::size_t kHeaderBytes = 5;   // kind + payload_len
constexpr std::size_t kCrcBytes = 4;
// A bits record's payload: | lo:8 LE | count:8 LE | values | with value i
// in bit i % 8 of byte i / 8 (so byte b holds bits [8b, 8b + 8), and eight
// bytes read little-endian hold one 64-bit word).
constexpr std::size_t kBitsFieldBytes = 16;
constexpr std::size_t kBitsPrefixBytes = kHeaderBytes + kBitsFieldBytes;

/// Writes the `bytes` low bytes of v at p, little-endian.
void store_le(std::uint8_t* p, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Reads `bytes` (<= 8) little-endian bytes at p.
std::uint64_t load_le(const std::uint8_t* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

/// Writes bytes [first, last) of the packed values of bits [from, from +
/// count) of `values` to dst, one 64-bit load per eight bytes; bits past
/// `count` in the last byte are zero.
void pack_bytes(std::uint8_t* dst, const BitVec& values, std::size_t from,
                std::size_t count, std::size_t first, std::size_t last) {
  while (first < last) {
    const std::size_t bit = 8 * first;  // < count
    std::uint64_t word = values.load_bits(from + bit);
    if (count - bit < 64) word &= (std::uint64_t{1} << (count - bit)) - 1;
    const std::size_t end = std::min(last, first + 8);
    for (; first < end; ++first, word >>= 8) {
      *dst++ = static_cast<std::uint8_t>(word);
    }
  }
}

/// Appends the `bytes` low bytes of v, little-endian.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t v,
            std::size_t bytes) {
  out.resize(out.size() + bytes);
  store_le(out.data() + out.size() - bytes, v, bytes);
}

/// Frame for one record, CRC included.
std::vector<std::uint8_t> frame(std::uint8_t kind,
                                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size() + kCrcBytes);
  out.push_back(kind);
  put_le(out, payload.size(), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  put_le(out, Journal::crc32(out.data(), out.size()), 4);
  return out;
}

}  // namespace

const char* to_string(CrashPoint point) {
  switch (point) {
    case CrashPoint::kAppendStart: return "append-start";
    case CrashPoint::kMidRecord: return "mid-record";
    case CrashPoint::kAppendCommit: return "append-commit";
    case CrashPoint::kCheckpoint: return "checkpoint";
  }
  return "?";
}

JournalStore::JournalStore(std::size_t k) : logs_(k), recorded_(k, 0) {}

void JournalStore::set_mem_pool(obs::MemPool* pool) {
  mem_pool_ = pool;
  base_recorded_ = 0;
  std::fill(recorded_.begin(), recorded_.end(), 0);
  obs::settle_component(
      mem_pool_, base_recorded_,
      obs::modeled_alloc_bytes(logs_.capacity() *
                               sizeof(std::vector<std::uint8_t>)));
  for (sim::PeerId id = 0; id < logs_.size(); ++id) settle(id);
}

void JournalStore::settle(sim::PeerId id) {
  if (mem_pool_ == nullptr) return;
  obs::settle_component(mem_pool_, recorded_[id],
                        obs::modeled_alloc_bytes(logs_[id].capacity()));
}

const std::vector<std::uint8_t>& JournalStore::log(sim::PeerId id) const {
  ASYNCDR_EXPECTS(id < logs_.size());
  return logs_[id];
}

std::size_t JournalStore::bytes(sim::PeerId id) const {
  return log(id).size();
}

void JournalStore::truncate_tail(sim::PeerId id, std::size_t count) {
  ASYNCDR_EXPECTS(id < logs_.size());
  std::vector<std::uint8_t>& log = logs_[id];
  log.resize(log.size() - std::min(count, log.size()));
  settle(id);
}

void JournalStore::flip_bit(sim::PeerId id, std::size_t bit_index) {
  ASYNCDR_EXPECTS(id < logs_.size());
  std::vector<std::uint8_t>& log = logs_[id];
  if (log.empty()) return;
  const std::size_t bit = bit_index % (log.size() * 8);
  log[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

void JournalStore::clear(sim::PeerId id) {
  ASYNCDR_EXPECTS(id < logs_.size());
  logs_[id].clear();
  settle(id);
}

bool JournalStore::killed_at(sim::PeerId id, CrashPoint point) const {
  return hook_ && hook_(id, point);
}

Journal::Journal(JournalStore& store, sim::PeerId id)
    : store_(store), id_(id) {
  ASYNCDR_EXPECTS(id < store.peers());
}

bool Journal::append_bits(std::size_t lo, const BitVec& values) {
  return append_bits(lo, values, 0, values.size());
}

bool Journal::append_bits(std::size_t lo, const BitVec& values,
                          std::size_t from, std::size_t count) {
  ASYNCDR_EXPECTS(count <= values.size() && from <= values.size() - count);
  if (store_.killed_at(id_, CrashPoint::kAppendStart)) return false;

  // The record is written straight into the log: the fixed prefix (frame
  // header, lo, count), then the values packed from their words, then the
  // CRC over everything before it.
  std::array<std::uint8_t, kBitsPrefixBytes> prefix{};
  const std::size_t data = (count + 7) / 8;
  const std::size_t payload = kBitsFieldBytes + data;
  prefix[0] = kKindBits;
  store_le(&prefix[1], payload, 4);
  store_le(&prefix[kHeaderBytes], lo, 8);
  store_le(&prefix[kHeaderBytes + 8], count, 8);
  std::vector<std::uint8_t>& log = store_.logs_[id_];
  const std::size_t start = log.size();
  // Writes record bytes [first, last), which the log already holds room for.
  const auto write = [&](std::size_t first, std::size_t last) {
    std::uint8_t* rec = log.data() + start;
    for (; first < last && first < kBitsPrefixBytes; ++first) {
      rec[first] = prefix[first];
    }
    if (first < last) {
      pack_bytes(rec + first, values, from, count, first - kBitsPrefixBytes,
                 last - kBitsPrefixBytes);
    }
  };

  // A mid-record kill must leave a *genuinely* torn tail: header plus part
  // of the payload, no CRC. Write in two halves with the sentinel between;
  // the log grows by each half in turn, as two appends would grow it.
  const std::size_t half = kHeaderBytes + payload / 2;
  const std::size_t body = kHeaderBytes + payload;
  log.resize(start + half);
  write(0, half);
  if (store_.killed_at(id_, CrashPoint::kMidRecord)) {
    store_.settle(id_);  // the torn tail still occupies journal bytes
    return false;
  }
  log.resize(start + body + kCrcBytes);
  write(half, body);
  store_le(log.data() + start + body, crc32(log.data() + start, body), 4);
  store_.settle(id_);
  return !store_.killed_at(id_, CrashPoint::kAppendCommit);
}

bool Journal::checkpoint(const std::string& name, std::uint64_t value) {
  ASYNCDR_EXPECTS_MSG(name.size() <= 0xffff, "checkpoint name too long");
  if (store_.killed_at(id_, CrashPoint::kCheckpoint)) return false;
  std::vector<std::uint8_t> payload;
  payload.reserve(10 + name.size());
  put_le(payload, value, 8);
  put_le(payload, name.size(), 2);
  payload.insert(payload.end(), name.begin(), name.end());
  const std::vector<std::uint8_t> rec = frame(kKindCheckpoint, payload);
  std::vector<std::uint8_t>& log = store_.logs_[id_];
  log.insert(log.end(), rec.begin(), rec.end());
  store_.settle(id_);
  return true;
}

JournalReplay Journal::replay(const std::vector<std::uint8_t>& log,
                              std::size_t n) {
  JournalReplay out;
  out.bits = BitVec(n);
  std::size_t pos = 0;
  while (pos < log.size()) {
    const std::size_t start = pos;
    const auto torn = [&] {
      out.torn = true;
      out.discarded_bytes = log.size() - start;
      return out;
    };
    if (log.size() - pos < kHeaderBytes + kCrcBytes) return torn();
    const std::uint8_t kind = log[pos];
    const std::size_t len = load_le(&log[pos + 1], 4);
    if (kind != kKindBits && kind != kKindCheckpoint) return torn();
    if (log.size() - pos < kHeaderBytes + len + kCrcBytes) return torn();
    const auto stored = load_le(&log[pos + kHeaderBytes + len], 4);
    if (crc32(&log[pos], kHeaderBytes + len) != stored) return torn();

    const std::uint8_t* payload = &log[pos + kHeaderBytes];
    if (kind == kKindBits) {
      if (len < kBitsFieldBytes) return torn();
      const std::uint64_t lo = load_le(payload, 8);
      const std::uint64_t count = load_le(payload + 8, 8);
      // Bounds are part of the trust decision: a record claiming bits the
      // input does not have is corruption, not data.
      if (count > n || lo > n - count) return torn();
      if (len != kBitsFieldBytes + (count + 7) / 8) return torn();
      // Decoded a word (eight payload bytes) at a time; padding bits past
      // `count` in the last byte are ignored.
      const std::uint8_t* data = payload + kBitsFieldBytes;
      for (std::uint64_t at = 0; at < count; at += 64) {
        const std::uint64_t bits = std::min<std::uint64_t>(64, count - at);
        out.bits.store(static_cast<std::size_t>(lo + at),
                       load_le(data + at / 8, (bits + 7) / 8),
                       static_cast<std::size_t>(bits));
      }
      if (count > 0) {
        out.intervals.insert(static_cast<std::size_t>(lo),
                             static_cast<std::size_t>(lo + count));
      }
    } else {
      if (len < 10) return torn();
      const std::uint64_t value = load_le(payload, 8);
      const std::size_t name_len = payload[8] | (std::size_t{payload[9]} << 8);
      if (len != 10 + name_len) return torn();
      out.checkpoints.emplace_back(
          std::string(reinterpret_cast<const char*>(payload + 10), name_len),
          value);
    }
    ++out.records;
    pos += kHeaderBytes + len + kCrcBytes;
  }
  return out;
}

std::uint32_t Journal::crc32(const std::uint8_t* data, std::size_t len) {
  // Slicing-by-8: tables[0] is the byte-wise table, and tables[j][b] is the
  // CRC register after byte b followed by j zero bytes, so eight bytes fold
  // into the register with eight lookups and no serial chain between them.
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t j = 1; j < t.size(); ++j) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const auto lo = static_cast<std::uint32_t>(load_le(data, 4)) ^ crc;
    const auto hi = static_cast<std::uint32_t>(load_le(data + 4, 4));
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = tables[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace asyncdr::dr
