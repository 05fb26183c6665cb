#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace hykv {
namespace {

TEST(Crc32cTest, KnownVector) {
  // Canonical CRC32-C check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(crc32c(""), 0u); }

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) appendix B.4 test vectors, 32 bytes each, through the
  // dispatched crc32c and through the portable loop.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  std::iota(ascending.begin(), ascending.end(), '\0');  // 0x00 .. 0x1F
  const std::string descending(ascending.rbegin(), ascending.rend());
  const auto portable = [](const std::string& s) {
    return detail::crc32c_portable(s.data(), s.size(), 0);
  };
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc32c(descending), 0x113FDB5Cu);
  EXPECT_EQ(portable(zeros), 0x8A9136AAu);
  EXPECT_EQ(portable(ones), 0x62A8AB43u);
  EXPECT_EQ(portable(ascending), 0x46DD794Eu);
  EXPECT_EQ(portable(descending), 0x113FDB5Cu);
}

TEST(Crc32cTest, SeedChaining) {
  const std::string data = "hello world";
  EXPECT_EQ(crc32c(data, 1), crc32c(data, 1));
  EXPECT_NE(crc32c(data, 1), crc32c(data, 2));
  // Passing one range's CRC as the seed of the next continues the CRC:
  // crc32c(b, crc32c(a)) == crc32c(a + b), at every split point.
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::string_view a = std::string_view(data).substr(0, split);
    const std::string_view b = std::string_view(data).substr(split);
    EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(data)) << split;
  }
}

TEST(Crc32cTest, HardwareMatchesPortable) {
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "CPU has no CRC32C instruction";
  }
  // Every length 0..1100 at every start offset 0..7 (unaligned 8-byte loads
  // and every tail length), over random bytes and several seeds.
  constexpr std::size_t kMaxLen = 1100;
  Rng rng(42);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.next());
  for (const std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0xE3069283u}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(detail::crc32c_hardware(p, len, seed),
                  detail::crc32c_portable(p, len, seed))
            << "seed " << seed << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(JenkinsTest, DeterministicAndSpread) {
  EXPECT_EQ(jenkins_oaat("key-1"), jenkins_oaat("key-1"));
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(jenkins_oaat("key-" + std::to_string(i)));
  }
  // No catastrophic collisions over a small key set.
  EXPECT_GE(seen.size(), 999u);
}

TEST(Xxh64Test, SeedAndLengthSensitivity) {
  const std::string data(100, 'x');
  EXPECT_NE(xxh64(data, 0), xxh64(data, 1));
  EXPECT_NE(xxh64(data.substr(0, 99), 0), xxh64(data, 0));
  EXPECT_EQ(xxh64(data, 7), xxh64(data.data(), data.size(), 7));
}

TEST(Xxh64Test, AllInputPathsCovered) {
  // Exercise <4, <8, <32 and >=32 byte paths.
  for (const std::size_t len : {0u, 3u, 7u, 15u, 31u, 32u, 33u, 100u, 1000u}) {
    const std::string a(len, 'a');
    std::string b = a;
    if (len > 0) b[len / 2] = 'b';
    EXPECT_EQ(xxh64(a), xxh64(a)) << len;
    if (len > 0) {
      EXPECT_NE(xxh64(a), xxh64(b)) << len;
    }
  }
}

TEST(Mix64Test, InjectiveOnSample) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Fnv1aTest, MatchesReferenceBehaviour) {
  // FNV-1a of empty input with the standard offset basis is the basis.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

}  // namespace
}  // namespace hykv
