#include "oracle.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t body_seed(std::uint64_t key, std::uint64_t version) noexcept {
  return splitmix64(key * 0xD1B54A32D192ED03ULL ^ splitmix64(version));
}

/// Word `i` of the body, as stored little-endian from byte 16 on.
std::uint64_t body_word(std::uint64_t seed, std::size_t i) noexcept {
  return splitmix64(seed + i);
}

std::uint64_t load_u64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::string_view to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kWrongLength: return "wrong_length";
    case Verdict::kWrongKey: return "wrong_key";
    case Verdict::kTorn: return "torn";
    case Verdict::kStale: return "stale";
    case Verdict::kFuture: return "future";
  }
  return "?";
}

ValueCodec::ValueCodec(std::size_t value_bytes)
    : bytes_(std::max(value_bytes, kHeaderBytes)) {}

void ValueCodec::fill(std::span<char> out, std::uint64_t key,
                      std::uint64_t version) const {
  std::memcpy(out.data(), &key, sizeof key);
  std::memcpy(out.data() + 8, &version, sizeof version);
  const std::uint64_t seed = body_seed(key, version);
  std::size_t i = 0;
  std::size_t pos = kHeaderBytes;
  for (; pos + 8 <= bytes_; pos += 8, ++i) {
    const std::uint64_t w = body_word(seed, i);
    std::memcpy(out.data() + pos, &w, sizeof w);
  }
  if (pos < bytes_) {
    const std::uint64_t w = body_word(seed, i);
    std::memcpy(out.data() + pos, &w, bytes_ - pos);
  }
}

Verdict ValueCodec::decode(std::span<const char> bytes, std::uint64_t key,
                           std::uint64_t& version) const {
  if (bytes.size() != bytes_) return Verdict::kWrongLength;
  if (load_u64(bytes.data()) != key) return Verdict::kWrongKey;
  const std::uint64_t claimed = load_u64(bytes.data() + 8);
  const std::uint64_t seed = body_seed(key, claimed);
  std::size_t i = 0;
  std::size_t pos = kHeaderBytes;
  for (; pos + 8 <= bytes_; pos += 8, ++i) {
    if (load_u64(bytes.data() + pos) != body_word(seed, i)) return Verdict::kTorn;
  }
  if (pos < bytes_) {
    const std::uint64_t w = body_word(seed, i);
    if (std::memcmp(bytes.data() + pos, &w, bytes_ - pos) != 0) {
      return Verdict::kTorn;
    }
  }
  version = claimed;
  return Verdict::kOk;
}

History::History(std::uint64_t keys) : keys_(keys) {
  for (auto& state : keys_) state.live.push_back(Write{0, 0, 0});
}

std::uint64_t History::begin_set(std::uint64_t key) {
  KeyState& state = keys_[key];
  const std::uint64_t version = state.next_version++;
  state.live.push_back(Write{version, ++tick_, kPending});
  return version;
}

void History::end_set(std::uint64_t key, std::uint64_t version) {
  KeyState& state = keys_[key];
  const std::uint64_t now = ++tick_;
  std::uint64_t issued = 0;
  for (auto& w : state.live) {
    if (w.version == version) {
      w.acked = now;
      issued = w.issued;
    }
  }
  // This write overwrites every write acknowledged before it was issued.
  std::erase_if(state.live, [issued](const Write& w) {
    return w.acked != kPending && w.acked < issued;
  });
}

void History::begin_get(std::uint64_t key, GetTicket& ticket) {
  const KeyState& state = keys_[key];
  ++tick_;
  ticket.key = key;
  ticket.issued_upto = state.next_version;
  ticket.legal.clear();
  for (const auto& w : state.live) ticket.legal.push_back(w.version);
}

Verdict History::end_get(const GetTicket& ticket, std::span<const char> bytes,
                         const ValueCodec& codec) {
  ++tick_;
  std::uint64_t version = 0;
  const Verdict shape = codec.decode(bytes, ticket.key, version);
  if (shape != Verdict::kOk) return shape;
  if (std::ranges::find(ticket.legal, version) != ticket.legal.end()) {
    return Verdict::kOk;
  }
  if (version >= keys_[ticket.key].next_version) return Verdict::kFuture;
  // Issued while the GET was outstanding: overlaps it, so either order holds.
  if (version >= ticket.issued_upto) return Verdict::kOk;
  return Verdict::kStale;
}

std::vector<std::string> check_totals(const Totals& t) {
  std::vector<std::string> bad;
  const auto expect_eq = [&bad](const char* what, std::uint64_t a,
                                std::uint64_t b) {
    if (a != b) {
      bad.push_back(std::string(what) + ": " + std::to_string(a) +
                    " != " + std::to_string(b));
    }
  };
  expect_eq("bench gets == server gets", t.bench_gets, t.server_gets);
  expect_eq("bench gets == store ram_hits+ssd_hits", t.bench_gets, t.store_hits);
  expect_eq("bench gets == optimistic_hits+locked_fallbacks", t.bench_gets,
            t.store_read_paths);
  expect_eq("bench sets == server sets", t.bench_sets, t.server_sets);
  expect_eq("bench sets == store sets", t.bench_sets, t.store_sets);
  expect_eq("server requests == ops_sum", t.server_requests, t.server_ops_sum);
  expect_eq("get misses == 0", t.get_misses, 0);
  expect_eq("dropped_evictions == 0", t.dropped_evictions, 0);
  expect_eq("device written_bytes == store flushed_bytes", t.device_written,
            t.flushed_bytes);
  if (t.window != 0 && t.phase_s > 0 &&
      t.latency_sum_s > static_cast<double>(t.window) * t.phase_s * (1 + 1e-9)) {
    bad.push_back("closed loop: throughput x mean latency " +
                  std::to_string(t.latency_sum_s / t.phase_s) + " > window " +
                  std::to_string(t.window));
  }
  return bad;
}

}  // namespace perfbench
