#include "common/hash.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace fabric {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return Mix64(h);
}

uint64_t HashInt64(int64_t value) {
  return Mix64(static_cast<uint64_t>(value));
}

uint64_t HashDouble(double value) {
  // Normalize -0.0 to +0.0 and every NaN to one NaN, so values equal
  // under SQL `=` (storage::CompareNumbers) hash equally.
  if (value == 0.0) value = 0.0;
  if (std::isnan(value)) value = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix64(bits);
}

uint64_t HashBool(bool value) { return Mix64(value ? 1u : 0u); }

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // boost::hash_combine widened to 64 bits.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

}  // namespace fabric
