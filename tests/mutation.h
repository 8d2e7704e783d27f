// Seeded corruption of a valid input, shared by the seeded-mutation tests of
// the parsers that read external bytes (test_fleet's manifest reader,
// test_net's REQ_SWEEP decoder).
//
// `records` are the consecutive pieces a valid input is made of — a
// manifest's lines, a request's fields — and the input is their
// concatenation.  Mutation i takes shape i % 4: flip 1-3 random bits,
// overwrite one byte with NUL, a separator or a random byte, truncate
// anywhere, or splice one record (dropped, duplicated or moved).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.h"

namespace pp::mutation {

inline std::string mutated(const std::vector<std::string>& records, int i, rng& gen) {
  std::string bytes;
  for (const std::string& r : records) bytes += r;
  switch (i % 4) {
    case 0: {  // flip 1-3 random bits
      const std::uint64_t flips = 1 + gen.uniform_below(3);
      for (std::uint64_t k = 0; k < flips; ++k) {
        const std::uint64_t bit = gen.uniform_below(bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    }
    case 1: {  // overwrite one byte with NUL, a separator or a random byte
      const char picks[] = {'\0', '\n', '=', '\r',
                            static_cast<char>(gen.uniform_below(256))};
      bytes[gen.uniform_below(bytes.size())] = picks[gen.uniform_below(5)];
      break;
    }
    case 2:  // truncate anywhere, including mid-record
      bytes.resize(gen.uniform_below(bytes.size() + 1));
      break;
    default: {  // splice: one random record, dropped, duplicated or moved
      std::vector<std::string> spliced = records;
      const std::size_t from = gen.uniform_below(spliced.size());
      const std::size_t to = gen.uniform_below(spliced.size() + 1);
      const std::string record = spliced[from];
      switch (gen.uniform_below(3)) {
        case 0:
          spliced.erase(spliced.begin() + static_cast<std::ptrdiff_t>(from));
          break;
        case 1:
          spliced.insert(spliced.begin() + static_cast<std::ptrdiff_t>(to), record);
          break;
        default:
          spliced.erase(spliced.begin() + static_cast<std::ptrdiff_t>(from));
          spliced.insert(spliced.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(to, spliced.size())),
                         record);
      }
      bytes.clear();
      for (const std::string& r : spliced) bytes += r;
    }
  }
  return bytes;
}

}  // namespace pp::mutation
