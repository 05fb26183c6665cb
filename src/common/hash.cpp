#include "common/hash.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HYKV_CRC32C_SSE42 1
#endif

namespace hykv {
namespace {

inline std::uint64_t read_u64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint32_t read_u32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr std::uint64_t kXxPrime1 = 11400714785074694791ULL;
constexpr std::uint64_t kXxPrime2 = 14029467366897019727ULL;
constexpr std::uint64_t kXxPrime3 = 1609587929392839161ULL;
constexpr std::uint64_t kXxPrime4 = 9650029242287828579ULL;
constexpr std::uint64_t kXxPrime5 = 2870177450012600261ULL;

inline std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) noexcept {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  acc *= kXxPrime1;
  return acc;
}

inline std::uint64_t xx_merge_round(std::uint64_t acc, std::uint64_t val) noexcept {
  acc ^= xx_round(0, val);
  acc = acc * kXxPrime1 + kXxPrime4;
  return acc;
}

// CRC32-C lookup table generated at static-init time.
struct Crc32cTable {
  std::array<std::uint32_t, 256> entries{};
  Crc32cTable() noexcept {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& crc_table() noexcept {
  static const Crc32cTable table;
  return table;
}

}  // namespace

std::uint32_t jenkins_oaat(std::string_view data) noexcept {
  std::uint32_t hash = 0;
  for (const char c : data) {
    hash += static_cast<unsigned char>(c);
    hash += hash << 10;
    hash ^= hash >> 6;
  }
  hash += hash << 3;
  hash ^= hash >> 11;
  hash += hash << 15;
  return hash;
}

std::uint64_t xxh64(const void* data, std::size_t len, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h;

  if (len >= 32) {
    std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = seed + kXxPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = xx_round(v1, read_u64(p));
      v2 = xx_round(v2, read_u64(p + 8));
      v3 = xx_round(v3, read_u64(p + 16));
      v4 = xx_round(v4, read_u64(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge_round(h, v1);
    h = xx_merge_round(h, v2);
    h = xx_merge_round(h, v3);
    h = xx_merge_round(h, v4);
  } else {
    h = seed + kXxPrime5;
  }

  h += static_cast<std::uint64_t>(len);
  while (p + 8 <= end) {
    h ^= xx_round(0, read_u64(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(read_u32(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) noexcept {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

namespace detail {

std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  const auto& table = crc_table().entries;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef HYKV_CRC32C_SSE42
// SSE4.2's CRC32 instruction computes the same reflected Castagnoli CRC as
// the table loop, eight bytes per instruction. Compiled for SSE4.2 on its own
// so the rest of the build needs no ISA flags; crc32c() calls it only after
// the CPU reports the extension.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hardware(
    const void* data, std::size_t len, std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    crc = _mm_crc32_u64(crc, read_u64(p));
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++p, --len) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}

bool crc32c_hardware_available() noexcept {
  static const bool available = __builtin_cpu_supports("sse4.2") != 0;
  return available;
}
#else
std::uint32_t crc32c_hardware(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept {
  return crc32c_portable(data, len, seed);
}

bool crc32c_hardware_available() noexcept { return false; }
#endif

}  // namespace detail

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  return detail::crc32c_hardware_available()
             ? detail::crc32c_hardware(data, len, seed)
             : detail::crc32c_portable(data, len, seed);
}

}  // namespace hykv
