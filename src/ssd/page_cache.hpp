// Simulated OS page cache with asynchronous write-back.
//
// The cached-I/O and mmap-I/O engines route through this component: writes
// pay only host-side costs (copy / page-touch) and become *dirty* bytes that
// a background flusher later writes to the device, exactly like Linux
// write-back. Writers throttle when dirty bytes exceed a high watermark
// (Linux dirty_ratio behaviour) so sustained overload still observes device
// speed -- this is what bounds the cached-I/O advantage in Fig. 4 / Fig. 7c.
// The watermark check runs after the write's own bytes are counted, under the
// same lock, and a throttled writer resumes once dirty bytes fall to the low
// watermark. So a write larger than dirty_high_watermark always blocks, while
// smaller writes pile up past it only while write-back lags behind them.
//
// Residency granularity is the extent. The hybrid slab manager always writes
// whole extents (one per flushed slab or item run), so per-extent residency
// is exact for every access pattern hykv generates. Partial writes are
// supported for data correctness but only toggle residency when they cover
// the full extent.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/profiles.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "ssd/device.hpp"

namespace hykv::ssd {

struct PageCacheConfig {
  std::size_t dirty_high_watermark = std::size_t{32} << 20;
  std::size_t dirty_low_watermark = std::size_t{16} << 20;
  std::size_t memory_limit = std::size_t{192} << 20;  ///< Clean+dirty resident bytes.
  HostIoProfile host{};
};

struct PageCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writeback_bytes = 0;
  std::uint64_t throttled_ns = 0;  ///< Writer time spent blocked on dirty limit.
  std::uint64_t evictions = 0;
  std::uint64_t punched_bytes = 0;  ///< Page bytes released by punch().
};

class PageCache {
 public:
  PageCache(SsdDevice& device, PageCacheConfig config);
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// write(2)-style cached write: syscall overhead + copy cost, dirty bytes
  /// queued for write-back, throttles above the high watermark.
  StatusCode write(ExtentId id, std::size_t offset, std::span<const char> data)
      EXCLUDES(mu_);

  /// Cached read: residency hit costs host copy; miss pays a device read and
  /// populates the cache.
  StatusCode read(ExtentId id, std::size_t offset, std::span<char> out)
      EXCLUDES(mu_);

  /// mmap-style store: no syscall, per-page touch cost + copy; dirty pages
  /// enter the same write-back pipeline.
  StatusCode mmap_write(ExtentId id, std::size_t offset,
                        std::span<const char> data) EXCLUDES(mu_);

  /// mmap-style load: resident -> copy cost; non-resident -> major fault
  /// (device read) + populate.
  StatusCode mmap_read(ExtentId id, std::size_t offset, std::span<char> out)
      EXCLUDES(mu_);

  /// Hole punch: one syscall; releases the whole pages inside
  /// [offset, offset + len) from the extent's resident charge. Safe on an
  /// extent the cache has never seen (nothing to release).
  void punch(ExtentId id, std::size_t offset, std::size_t len) EXCLUDES(mu_);

  /// Drops cache state for a freed extent (dirty data is discarded -- caller
  /// owns the decision, mirroring unlink() of a dirty file).
  void invalidate(ExtentId id) EXCLUDES(mu_);

  /// fsync equivalent: blocks until no dirty bytes remain.
  void sync() EXCLUDES(mu_);

  [[nodiscard]] bool resident(ExtentId id) const EXCLUDES(mu_);
  [[nodiscard]] std::size_t dirty_bytes() const EXCLUDES(mu_);
  /// Bytes charged against memory_limit by resident extents.
  [[nodiscard]] std::size_t resident_bytes() const EXCLUDES(mu_);
  [[nodiscard]] PageCacheStats stats() const EXCLUDES(mu_);
  [[nodiscard]] const PageCacheConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::size_t size = 0;
    std::size_t dirty = 0;       ///< Bytes awaiting write-back.
    bool resident = false;
    bool mmap_mapped = false;    ///< First mmap touch already charged.
    std::list<ExtentId>::iterator lru_pos;
    bool in_lru = false;
    std::vector<bool> punched;   ///< Per page; empty until the first punch.
    std::size_t punched_bytes = 0;

    /// What a resident extent costs against memory_limit.
    [[nodiscard]] std::size_t charge() const noexcept { return size - punched_bytes; }
  };

  void flusher_main() EXCLUDES(mu_);
  void charge_write_path(std::size_t offset, std::span<const char> data,
                         ExtentId id, bool via_mmap) EXCLUDES(mu_);
  void make_room_locked(std::size_t need) REQUIRES(mu_);
  void touch_lru_locked(ExtentId id, Entry& entry) REQUIRES(mu_);
  /// Shared tail of write()/mmap_write(): re-populates punched pages the
  /// write covers, claims residency, queues the dirty bytes and throttles.
  void commit_write_locked(ExtentId id, Entry& entry, std::size_t offset,
                           std::size_t len) REQUIRES(mu_);
  /// Zeroes the bytes of `out` (read at `offset`) that fall on punched pages.
  void zero_punched_locked(const Entry& entry, std::size_t offset,
                           std::span<char> out) const REQUIRES(mu_);

  SsdDevice& device_;
  PageCacheConfig config_;

  mutable Mutex mu_;
  CondVar dirty_cv_;    ///< Signals the flusher.
  CondVar clean_cv_;    ///< Signals throttled writers / sync.
  std::unordered_map<ExtentId, Entry> entries_ GUARDED_BY(mu_);
  std::list<ExtentId> dirty_fifo_ GUARDED_BY(mu_);  ///< Write-back order.
  std::list<ExtentId> lru_ GUARDED_BY(mu_);  ///< Clean eviction order (front = MRU).
  std::size_t dirty_bytes_ GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ GUARDED_BY(mu_) = 0;
  PageCacheStats stats_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread flusher_;
};

}  // namespace hykv::ssd
