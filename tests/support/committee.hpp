// Reference membership of the round-robin committee assignment, spelt out
// from its definition (committee of bit j: the c consecutive peer IDs from
// (j*c) mod k), for tests to check the assignment's fast paths against.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "protocols/committee.hpp"

namespace asyncdr::support {

/// True iff peer p sits on bit `bit`'s committee.
inline bool is_member(const proto::CommitteeAssignment& a, sim::PeerId p,
                      std::size_t bit) {
  const std::size_t k = a.k();
  ASYNCDR_EXPECTS(p < k && bit < a.n());
  return ((p + k - (bit * a.committee_size()) % k) % k) <
         a.committee_size();
}

/// The committee of a bit, in position order.
inline std::vector<sim::PeerId> members_of(const proto::CommitteeAssignment& a,
                                           std::size_t bit) {
  ASYNCDR_EXPECTS(bit < a.n());
  const std::size_t c = a.committee_size();
  std::vector<sim::PeerId> members;
  members.reserve(c);
  for (std::size_t i = 0; i < c; ++i) members.push_back((bit * c + i) % a.k());
  return members;
}

}  // namespace asyncdr::support
