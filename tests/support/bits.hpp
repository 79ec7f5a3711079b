// Test-side BitVec construction: bit strings spelt as '0'/'1' text.
#pragma once

#include <string>

#include "common/bitvec.hpp"
#include "common/check.hpp"

namespace asyncdr::support {

/// The BitVec whose bit i is character i of `bits` ('0' or '1').
inline BitVec from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ASYNCDR_EXPECTS_MSG(bits[i] == '0' || bits[i] == '1',
                        "from_string expects only '0'/'1'");
    v.set(i, bits[i] == '1');
  }
  return v;
}

}  // namespace asyncdr::support
