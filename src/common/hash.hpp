// Hash functions used across hykv.
//
// - jenkins_oaat: memcached's classic one-at-a-time key hash; used by the
//   server hash table and the client's server-selection ring so that our
//   key->server mapping matches libmemcached's default behaviour class.
// - xxh64: fast 64-bit hash for checksums, dedup and test fixtures.
// - fnv1a64: simple/seedable; used where incremental hashing is handy.
// - crc32c: item payload integrity checks on the SSD path; the SSE4.2 CRC32
//   instruction where the CPU has it, a table loop otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hykv {

/// Bob Jenkins' one-at-a-time hash (memcached's default "jenkins" hash).
std::uint32_t jenkins_oaat(std::string_view data) noexcept;

/// xxHash64 over a byte range.
std::uint64_t xxh64(const void* data, std::size_t len, std::uint64_t seed = 0) noexcept;
inline std::uint64_t xxh64(std::string_view data, std::uint64_t seed = 0) noexcept {
  return xxh64(data.data(), data.size(), seed);
}

/// FNV-1a 64-bit.
std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed = 14695981039346656037ULL) noexcept;

/// CRC32-C (Castagnoli). Uses the SSE4.2 CRC32 instruction when the CPU
/// supports it (checked once at run time) and a byte-wise table loop
/// otherwise; both give the same result for every input.
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0) noexcept;
inline std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) noexcept {
  return crc32c(data.data(), data.size(), seed);
}

namespace detail {
// The two crc32c paths, exposed so tests can check that they agree.
// crc32c_hardware may only be called when crc32c_hardware_available().
std::uint32_t crc32c_portable(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept;
std::uint32_t crc32c_hardware(const void* data, std::size_t len,
                              std::uint32_t seed) noexcept;
bool crc32c_hardware_available() noexcept;
}  // namespace detail

/// 64-bit finalizer (splitmix64) for integer keys; good avalanche.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace hykv
