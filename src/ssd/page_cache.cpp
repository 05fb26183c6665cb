#include "ssd/page_cache.hpp"

#include <algorithm>

#include "common/sim_time.hpp"

namespace hykv::ssd {

PageCache::PageCache(SsdDevice& device, PageCacheConfig config)
    : device_(device), config_(config), flusher_([this] { flusher_main(); }) {}

PageCache::~PageCache() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  dirty_cv_.notify_all();
  clean_cv_.notify_all();
  flusher_.join();
}

void PageCache::touch_lru_locked(ExtentId id, Entry& entry) {
  if (entry.in_lru) lru_.erase(entry.lru_pos);
  lru_.push_front(id);
  entry.lru_pos = lru_.begin();
  entry.in_lru = true;
}

void PageCache::make_room_locked(std::size_t need) {
  while (resident_bytes_ + need > config_.memory_limit && !lru_.empty()) {
    // Evict from the LRU tail, skipping dirty entries (not evictable until
    // written back). If everything cached is dirty we simply exceed the
    // limit transiently -- the throttle bounds how far.
    auto it = std::prev(lru_.end());
    bool evicted = false;
    while (true) {
      Entry& victim = entries_.at(*it);
      if (victim.dirty == 0) {
        victim.resident = false;
        victim.in_lru = false;
        resident_bytes_ -= victim.charge();
        ++stats_.evictions;
        lru_.erase(it);
        evicted = true;
        break;
      }
      if (it == lru_.begin()) break;
      --it;
    }
    if (!evicted) break;
  }
}

void PageCache::charge_write_path(std::size_t offset, std::span<const char> data,
                                  ExtentId id, bool via_mmap) {
  const auto& host = config_.host;
  sim::Nanos cost = host.copy_time(data.size());
  bool first_map = false;
  if (via_mmap) {
    {
      const MutexLock lock(mu_);
      auto it = entries_.find(id);
      first_map = (it == entries_.end() || !it->second.mmap_mapped);
    }
    cost += host.page_touch * static_cast<std::int64_t>(host.pages(data.size()));
    if (first_map) cost += host.mmap_setup;
  } else {
    cost += host.syscall_overhead;
  }
  (void)offset;
  sim::advance(cost);
}

void PageCache::commit_write_locked(ExtentId id, Entry& entry,
                                    std::size_t offset, std::size_t len) {
  if (entry.punched_bytes > 0) {
    // Storing into a hole allocates its pages again, partial pages included.
    const std::size_t page = config_.host.page_bytes;
    const std::size_t last =
        std::min(entry.punched.size(), (offset + len + page - 1) / page);
    for (std::size_t i = offset / page; i < last; ++i) {
      if (!entry.punched[i]) continue;
      entry.punched[i] = false;
      entry.punched_bytes -= page;
      if (entry.resident) resident_bytes_ += page;
    }
  }
  if (offset == 0 && len == entry.size && !entry.resident) {
    entry.resident = true;
    resident_bytes_ += entry.charge();
  }
  if (entry.resident) touch_lru_locked(id, entry);
  const bool was_clean = entry.dirty == 0;
  entry.dirty += len;
  dirty_bytes_ += len;
  if (was_clean) dirty_fifo_.push_back(id);
  make_room_locked(0);
  dirty_cv_.notify_one();

  if (dirty_bytes_ > config_.dirty_high_watermark) {
    const auto start = sim::now();
    clean_cv_.wait(mu_, [&]() REQUIRES(mu_) {
      return stop_ || dirty_bytes_ <= config_.dirty_low_watermark;
    });
    stats_.throttled_ns +=
        static_cast<std::uint64_t>((sim::now() - start).count());
  }
}

void PageCache::zero_punched_locked(const Entry& entry, std::size_t offset,
                                    std::span<char> out) const {
  if (entry.punched_bytes == 0) return;
  const std::size_t page = config_.host.page_bytes;
  const std::size_t end = offset + out.size();
  const std::size_t last =
      std::min(entry.punched.size(), (end + page - 1) / page);
  for (std::size_t i = offset / page; i < last; ++i) {
    if (!entry.punched[i]) continue;
    const std::size_t from = std::max(offset, i * page);
    const std::size_t to = std::min(end, (i + 1) * page);
    std::fill(out.begin() + static_cast<std::ptrdiff_t>(from - offset),
              out.begin() + static_cast<std::ptrdiff_t>(to - offset), '\0');
  }
}

StatusCode PageCache::write(ExtentId id, std::size_t offset,
                            std::span<const char> data) {
  charge_write_path(offset, data, id, /*via_mmap=*/false);
  // Transient device errors surface to the writer (EIO from write(2) once
  // the kernel knows the device is erroring) -- the hook that lets the
  // hybrid manager's flush path observe SSD outages through this engine.
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return fault;
  const StatusCode code = device_.write_raw(id, offset, data);
  if (!ok(code)) return code;

  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  commit_write_locked(id, entry, offset, data.size());
  return StatusCode::kOk;
}

StatusCode PageCache::mmap_write(ExtentId id, std::size_t offset,
                                 std::span<const char> data) {
  charge_write_path(offset, data, id, /*via_mmap=*/true);
  // A store into a failing mapping raises SIGBUS in reality; modelled as a
  // clean kIoError so flush_batch can react (degraded mode).
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return fault;
  const StatusCode code = device_.write_raw(id, offset, data);
  if (!ok(code)) return code;

  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  entry.mmap_mapped = true;
  commit_write_locked(id, entry, offset, data.size());
  return StatusCode::kOk;
}

StatusCode PageCache::read(ExtentId id, std::size_t offset, std::span<char> out) {
  bool hit;
  bool holes;
  {
    const MutexLock lock(mu_);
    auto it = entries_.find(id);
    hit = it != entries_.end() && it->second.resident;
    holes = it != entries_.end() && it->second.punched_bytes > 0;
    if (hit) {
      touch_lru_locked(id, it->second);
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
  }
  if (hit) {
    sim::advance(config_.host.syscall_overhead + config_.host.copy_time(out.size()));
    const StatusCode code = device_.read_raw(id, offset, out);
    if (holes && ok(code)) {
      const MutexLock lock(mu_);
      if (auto it = entries_.find(id); it != entries_.end()) {
        zero_punched_locked(it->second, offset, out);
      }
    }
    return code;
  }
  sim::advance(config_.host.syscall_overhead);
  // Cache miss: a real device read -- transient errors apply (hits above are
  // served from RAM and cannot fail).
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return fault;
  device_.occupy_read(out.size());
  const StatusCode code = device_.read_raw(id, offset, out);
  if (!ok(code)) return code;
  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  zero_punched_locked(entry, offset, out);
  if (offset == 0 && out.size() == entry.size && !entry.resident) {
    entry.resident = true;
    resident_bytes_ += entry.charge();
    touch_lru_locked(id, entry);
    make_room_locked(0);
  }
  return StatusCode::kOk;
}

StatusCode PageCache::mmap_read(ExtentId id, std::size_t offset,
                                std::span<char> out) {
  bool hit;
  bool first_map;
  {
    const MutexLock lock(mu_);
    auto it = entries_.find(id);
    hit = it != entries_.end() && it->second.resident;
    first_map = it == entries_.end() || !it->second.mmap_mapped;
    if (hit) {
      touch_lru_locked(id, it->second);
      ++stats_.hits;
    } else {
      ++stats_.misses;
    }
  }
  if (hit) {
    sim::advance(config_.host.copy_time(out.size()) +
                 (first_map ? config_.host.mmap_setup : sim::Nanos{0}));
    const StatusCode code = device_.read_raw(id, offset, out);
    const MutexLock relock(mu_);
    if (auto it = entries_.find(id); it != entries_.end()) {
      it->second.mmap_mapped = true;
      if (ok(code)) zero_punched_locked(it->second, offset, out);
    }
    return code;
  }
  // Major fault: device read for the touched pages.
  if (first_map) sim::advance(config_.host.mmap_setup);
  if (const StatusCode fault = device_.check_fault(); !ok(fault)) return fault;
  device_.occupy_read(out.size());
  const StatusCode code = device_.read_raw(id, offset, out);
  if (!ok(code)) return code;
  const MutexLock lock(mu_);
  Entry& entry = entries_[id];
  entry.size = device_.extent_size(id);
  entry.mmap_mapped = true;
  zero_punched_locked(entry, offset, out);
  if (offset == 0 && out.size() == entry.size && !entry.resident) {
    entry.resident = true;
    resident_bytes_ += entry.charge();
    touch_lru_locked(id, entry);
    make_room_locked(0);
  }
  return StatusCode::kOk;
}

void PageCache::invalidate(ExtentId id) {
  const MutexLock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.dirty > 0) {
    dirty_bytes_ -= entry.dirty;
    dirty_fifo_.remove(id);
    clean_cv_.notify_all();
  }
  if (entry.resident) {
    resident_bytes_ -= entry.charge();
    if (entry.in_lru) lru_.erase(entry.lru_pos);
  }
  entries_.erase(it);
}

void PageCache::punch(ExtentId id, std::size_t offset, std::size_t len) {
  sim::advance(config_.host.syscall_overhead);
  const MutexLock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  // Whole pages only: the range rounds inward, and the extent's partial last
  // page is never released.
  const std::size_t page = config_.host.page_bytes;
  const std::size_t first = (offset + page - 1) / page;
  const std::size_t last = std::min(offset + len, entry.size) / page;
  if (first >= last) return;
  if (entry.punched.empty()) entry.punched.resize(entry.size / page);
  for (std::size_t i = first; i < last; ++i) {
    if (entry.punched[i]) continue;
    entry.punched[i] = true;
    entry.punched_bytes += page;
    stats_.punched_bytes += page;
    if (entry.resident) resident_bytes_ -= page;
  }
}

void PageCache::sync() {
  const MutexLock lock(mu_);
  clean_cv_.wait(mu_, [&]() REQUIRES(mu_) { return stop_ || dirty_bytes_ == 0; });
}

bool PageCache::resident(ExtentId id) const {
  const MutexLock lock(mu_);
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.resident;
}

std::size_t PageCache::dirty_bytes() const {
  const MutexLock lock(mu_);
  return dirty_bytes_;
}

std::size_t PageCache::resident_bytes() const {
  const MutexLock lock(mu_);
  return resident_bytes_;
}

PageCacheStats PageCache::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

void PageCache::flusher_main() {
  // Direct lock()/unlock() instead of a scoped lock: the loop drops mu_ for
  // the duration of each device write so writers keep making progress into
  // the cache while write-back proceeds. The analysis tracks the capability
  // through the explicit calls and checks it is re-held at the back edge.
  mu_.lock();
  while (true) {
    dirty_cv_.wait(mu_, [&]() REQUIRES(mu_) { return stop_ || !dirty_fifo_.empty(); });
    if (dirty_fifo_.empty()) {
      if (stop_) {
        mu_.unlock();
        return;
      }
      continue;
    }
    const ExtentId id = dirty_fifo_.front();
    dirty_fifo_.pop_front();
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // invalidated while queued
    const std::size_t amount = it->second.dirty;
    it->second.dirty = 0;  // re-dirtying after this point re-queues the id
    mu_.unlock();

    // Pay device write latency outside the lock.
    device_.occupy_write(amount);

    mu_.lock();
    dirty_bytes_ -= std::min(dirty_bytes_, amount);
    stats_.writeback_bytes += amount;
    clean_cv_.notify_all();
  }
}

}  // namespace hykv::ssd
