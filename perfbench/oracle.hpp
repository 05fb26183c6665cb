// Versioned-value oracle for the end-to-end benchmark.
//
// Every SET writes a value stamped with (key, version) whose remaining bytes
// come from a generator keyed by both, so any value read back names the
// write it claims to be and can be re-derived byte for byte. History tracks,
// per key, which writes a GET may legally return: the register is
// linearizable when a GET returns a write that was issued before the GET
// completed and that had not been overwritten before the GET was issued --
// overwritten meaning some later write was issued after it completed and was
// itself acknowledged before the GET was issued. Writes that overlap each
// other stay legal in either order.
//
// Time is a logical tick advanced on every issue and every observed
// completion by the (single) thread that owns the History.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Verdict : std::uint8_t {
  kOk = 0,
  kWrongLength,  ///< Value length differs from what was written.
  kWrongKey,     ///< Bytes written for another key.
  kTorn,         ///< Header names a write whose bytes do not match it.
  kStale,        ///< A write already overwritten when the GET was issued.
  kFuture,       ///< A version never issued (or issued after the GET ended).
};

[[nodiscard]] std::string_view to_string(Verdict verdict) noexcept;

/// Value bytes for (key, version): an 8-byte key index, an 8-byte version,
/// then pseudo-random words seeded by both.
class ValueCodec {
 public:
  static constexpr std::size_t kHeaderBytes = 16;

  explicit ValueCodec(std::size_t value_bytes);

  [[nodiscard]] std::size_t value_bytes() const noexcept { return bytes_; }
  void fill(std::span<char> out, std::uint64_t key, std::uint64_t version) const;
  /// Checks length, key and that the body matches the header's version;
  /// on kOk stores that version in `version`.
  [[nodiscard]] Verdict decode(std::span<const char> bytes, std::uint64_t key,
                               std::uint64_t& version) const;

 private:
  std::size_t bytes_;
};

class History {
 public:
  /// Every key starts preloaded at version 0 (acknowledged at tick 0).
  explicit History(std::uint64_t keys);

  /// Registers a SET issue and returns the version it must write.
  std::uint64_t begin_set(std::uint64_t key);
  /// Records the SET's acknowledgement.
  void end_set(std::uint64_t key, std::uint64_t version);

  /// What a GET may return, captured when it is issued. Reuse one ticket per
  /// in-flight slot so its vector keeps its capacity.
  struct GetTicket {
    std::uint64_t key = 0;
    std::uint64_t issued_upto = 0;      ///< Versions >= this came later.
    std::vector<std::uint64_t> legal;   ///< Not overwritten at issue.
  };
  void begin_get(std::uint64_t key, GetTicket& ticket);
  /// Judges the bytes a GET returned against the ticket and the codec.
  [[nodiscard]] Verdict end_get(const GetTicket& ticket,
                                std::span<const char> bytes,
                                const ValueCodec& codec);

 private:
  static constexpr std::uint64_t kPending = ~std::uint64_t{0};
  struct Write {
    std::uint64_t version;
    std::uint64_t issued;
    std::uint64_t acked;  ///< kPending until acknowledged.
  };
  struct KeyState {
    std::uint64_t next_version = 1;
    std::vector<Write> live;  ///< Writes not yet overwritten.
  };

  std::uint64_t tick_ = 0;
  std::vector<KeyState> keys_;
};

/// Independent totals over the timed phase that must agree.
struct Totals {
  std::uint64_t bench_gets = 0;
  std::uint64_t bench_sets = 0;
  std::uint64_t get_misses = 0;        ///< GETs answered kNotFound.
  std::uint64_t server_requests = 0;
  std::uint64_t server_ops_sum = 0;
  std::uint64_t server_gets = 0;
  std::uint64_t server_sets = 0;
  std::uint64_t store_hits = 0;        ///< ram_hits + ssd_hits.
  std::uint64_t store_read_paths = 0;  ///< optimistic_hits + locked_fallbacks.
  std::uint64_t store_sets = 0;
  std::uint64_t dropped_evictions = 0;
  std::uint64_t flushed_bytes = 0;     ///< Store's count of bytes flushed.
  std::uint64_t device_written = 0;    ///< Device's count, after a sync.
  /// Closed-loop bound (window workloads): sum of op latencies over the
  /// phase's wall time may not exceed the window. window 0 skips the check.
  double latency_sum_s = 0;
  double phase_s = 0;
  std::uint64_t window = 0;
};

/// One line per violated property; empty when every total agrees.
[[nodiscard]] std::vector<std::string> check_totals(const Totals& totals);

}  // namespace perfbench
