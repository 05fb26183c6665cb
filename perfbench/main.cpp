// perfbench: one end-to-end workload against a core::TestBed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spawn-ns NS] [--out DIR] [--load-threads T]
//
// The load is closed-loop: each load thread holds one client::Client and
// either keeps a fixed window of non-blocking requests outstanding (waiting
// in Client::wait on the oldest when the window is full) or issues blocking
// calls one at a time. Keys, values and the GET/SET mix come from --seed;
// every value read is checked by the versioned-value oracle (oracle.hpp) and
// the program's own totals are checked against the benchmark's counts.
//
// The timed phase is cut into 1-second sub-windows. The end-to-end figures
// come from the faster half of them, so a burst of host CPU steal that slows
// a few sub-windows does not move the result.
//
// The last line of stdout is the result JSON. With --trace 0 it carries the
// end-to-end metrics, with --trace 1 the per-layer ones; the traced run also
// writes the benchmark's spans and the server's sampled op traces to
// DIR/<workload>.trace.json.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "common/metrics.hpp"
#include "common/sim_time.hpp"
#include "core/design.hpp"
#include "core/testbed.hpp"
#include "net/fabric.hpp"
#include "oracle.hpp"
#include "store/item.hpp"
#include "store/slab.hpp"

namespace {

using namespace hykv;
using Clock = std::chrono::steady_clock;
using perfbench::History;
using perfbench::ValueCodec;
using perfbench::Verdict;

constexpr std::size_t kCacheRam = std::size_t{64} << 20;  // TestBedConfig default
constexpr std::size_t kKeyBytes = 20;                     // "key-%016x"
constexpr unsigned kServerTraceShift = 6;                 // 1 in 64 ops

struct Workload {
  const char* name;
  core::Design design;
  double data_ratio;          ///< Stored footprint / cache RAM.
  std::size_t value_bytes;
  bool zipf;                  ///< Zipf 0.99 (scrambled), else uniform.
  double read_fraction;
  std::size_t window;         ///< Outstanding non-blocking ops; 0 = blocking.
  /// Ops of the untimed warm-up, and of the traced run's fixed prefix whose
  /// program counters are printed.
  std::uint64_t prefix_ops;
};

constexpr Workload kWorkloads[] = {
    {"ram_nonb_read95", core::Design::kHRdmaOptNonbI, 0.5, 1024, true, 0.95, 16,
     60000},
    {"ssd_nonb_update50", core::Design::kHRdmaOptNonbI, 1.5, 32768, false, 0.5,
     16, 6000},
    {"ssd_block_read90", core::Design::kHRdmaOptBlock, 1.5, 32768, false, 0.9, 0,
     6000},
};

/// bench::keys_for_ratio: keys whose slab footprint is `ratio` x cache RAM.
std::uint64_t keys_for_ratio(double ratio, std::size_t value_bytes) {
  const store::SlabAllocator::Config slab_cfg;
  const std::size_t footprint = store::slab_item_footprint(
      slab_cfg, store::item_total_size(kKeyBytes, value_bytes));
  return static_cast<std::uint64_t>(ratio * 0.98 * static_cast<double>(kCacheRam) /
                                    static_cast<double>(footprint));
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d < 0 ? 0 : static_cast<std::uint64_t>(d);
}

// ---- Seeded input generation (independent of the program's own RNGs) ----

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// YCSB scrambled Zipfian (Gray et al.) or uniform key indices over [0, n).
class KeyPicker {
 public:
  KeyPicker(std::uint64_t n, bool zipf, double theta) : n_(n), zipf_(zipf) {
    if (!zipf_) return;
    theta_ = theta;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  std::uint64_t next(Rng& rng) const {
    if (!zipf_) return rng.below(n_);
    const double u = rng.unit();
    const double uz = u * zetan_;
    std::uint64_t rank = 0;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    // Scramble so hot ranks spread over the key space (YCSB fnv hash).
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (int i = 0; i < 8; ++i) {
      h ^= (rank >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
    return h % n_;
  }

 private:
  std::uint64_t n_;
  bool zipf_;
  double theta_ = 0;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// ---- Measurement ----

/// Log-linear latency histogram with 1024 sub-buckets per power of two
/// (<= 0.1% bucket width) and fixed memory, so the benchmark's own footprint
/// does not grow with throughput. Percentiles interpolate inside a bucket.
class FineHistogram {
 public:
  FineHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++n_;
    sum_ns_ += static_cast<double>(ns);
  }
  void merge(const FineHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ns_ += o.sum_ns_;
  }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean_us() const {
    return n_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(n_) / 1e3;
  }
  [[nodiscard]] double percentile_us(double p) const {
    if (n_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(n_);
    double seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= rank) {
        const auto [low, width] = bounds(i);
        return (low + width * (rank - seen) / c) / 1e3;
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 32 * kSub;  // up to 2^41 ns

  static std::size_t index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int msb = 63 - std::countl_zero(ns);
    const int shift = msb - kSubBits;
    const std::size_t major = static_cast<std::size_t>(shift) + 1;
    const std::size_t sub = static_cast<std::size_t>(ns >> shift) - kSub;
    return std::min(major * kSub + sub, kBuckets - 1);
  }
  static std::pair<double, double> bounds(std::size_t i) {
    if (i < kSub) return {static_cast<double>(i), 1.0};
    const std::size_t major = i / kSub;
    const std::size_t sub = i % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(major) - 1);
    return {static_cast<double>(kSub + sub) * width, width};
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
  double sum_ns_ = 0;
};

/// The timed phase's per-sub-window GET and SET latencies and completions.
struct Windows {
  Clock::time_point start;
  std::vector<FineHistogram> get, set;
  std::vector<std::uint64_t> done;

  void begin(Clock::time_point t, std::size_t count) {
    start = t;
    get.assign(count, FineHistogram{});
    set.assign(count, FineHistogram{});
    done.assign(count, 0);
  }
  void record(Clock::time_point completed, std::uint64_t latency_ns, bool is_get) {
    if (get.empty() || completed < start) return;
    const auto w = static_cast<std::size_t>(ns_between(start, completed) / 1'000'000'000ULL);
    if (w >= done.size()) return;  // drained after the phase ended
    (is_get ? get : set)[w].record(latency_ns);
    ++done[w];
  }
  void merge(const Windows& o) {
    for (std::size_t w = 0; w < done.size(); ++w) {
      get[w].merge(o.get[w]);
      set[w].merge(o.set[w]);
      done[w] += o.done[w];
    }
  }
};

/// Benchmark-side span: one client call (or setup phase) of one op.
struct BenchSpan {
  std::uint64_t seq;
  const char* name;
  std::uint64_t start_ns;  ///< Since process origin.
  std::uint64_t dur_ns;
};

class SpanLog {
 public:
  static constexpr std::size_t kKeep = std::size_t{1} << 16;
  explicit SpanLog(Clock::time_point origin) : origin_(origin) { spans_.reserve(kKeep); }
  void add(std::uint64_t seq, const char* name, Clock::time_point a, Clock::time_point b) {
    if (spans_.size() < kKeep) spans_.push_back({seq, name, ns_between(origin_, a), ns_between(a, b)});
  }
  [[nodiscard]] const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<BenchSpan> spans_;
};

// ---- One load thread ----

struct LoadStats {
  std::uint64_t gets = 0, sets = 0;
  std::uint64_t misses = 0, errors = 0;
  std::map<std::string, std::uint64_t> bad_verdicts;
  double latency_sum_s = 0;
  FineHistogram all;                         ///< Every timed op.
  std::uint64_t issue_calls = 0, issue_ns = 0, wait_ns = 0;  // traced only
};

class LoadThread {
 public:
  LoadThread(core::TestBed& bed, const Workload& wl,
             const std::vector<std::string>& keys, std::uint64_t seed,
             unsigned index, unsigned threads, const KeyPicker& picker,
             Clock::time_point origin)
      : wl_(wl), keys_(keys), picker_(picker), rng_(seed * 0x9E3779B97F4A7C15ULL + index + 1),
        index_(index), threads_(threads), codec_(wl.value_bytes),
        history_(keys.size()), spans_(origin),
        slots_(std::max<std::size_t>(wl.window, 1)) {
    client_ = bed.make_client("perfbench-" + std::to_string(index));
    for (auto& s : slots_) s.buf.assign(codec_.value_bytes(), 0);
  }

  [[nodiscard]] client::Client& client() { return *client_; }
  [[nodiscard]] LoadStats& stats() { return stats_; }
  [[nodiscard]] Windows& windows() { return windows_; }
  [[nodiscard]] const SpanLog& spans() const { return spans_; }

  /// Runs exactly `ops` operations and drains. Nothing is recorded except
  /// oracle verdicts and failures.
  void run_count(std::uint64_t ops) {
    recording_ = false;
    for (std::uint64_t i = 0; i < ops; ++i) step();
    drain();
  }

  /// The timed phase: issues until `end`, then drains; records everything.
  void run_timed(Clock::time_point start, Clock::time_point end,
                 std::size_t windows, bool trace) {
    recording_ = true;
    trace_ = trace;
    windows_.begin(start, windows);
    while (Clock::now() < end) step();
    drain();
    recording_ = false;
    trace_ = false;
  }

  void drain() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[(head_ + i) % slots_.size()];
      if (s.busy) complete(s);
    }
  }

 private:
  struct Slot {
    client::Request req;
    std::vector<char> buf;  ///< SET value or GET destination.
    History::GetTicket ticket;
    std::uint64_t key = 0, version = 0, seq = 0;
    bool is_get = false, busy = false, recorded = false;
    Clock::time_point issued_at{};
  };

  std::uint64_t next_key() {
    for (;;) {
      const std::uint64_t k = picker_.next(rng_);
      if (k % threads_ == index_) return k;
    }
  }

  void step() {
    Slot& s = slots_[head_];
    if (s.busy) complete(s);
    issue(s);
    head_ = (head_ + 1) % slots_.size();
  }

  void issue(Slot& s) {
    s.key = next_key();
    s.is_get = rng_.unit() < wl_.read_fraction;
    s.seq = seq_++;
    s.recorded = recording_;
    const std::string_view key = keys_[s.key];
    if (s.is_get) {
      history_.begin_get(s.key, s.ticket);
    } else {
      s.version = history_.begin_set(s.key);
      codec_.fill(s.buf, s.key, s.version);
    }
    if (wl_.window == 0) {
      blocking(s, key);
      return;
    }
    const auto t0 = Clock::now();
    const StatusCode code =
        s.is_get ? client_->iget(key, s.buf, s.req)
                 : client_->iset(key, s.buf, 0, 0, s.req);
    s.issued_at = t0;
    if (trace_) note_issue(s, s.is_get ? "iget" : "iset", t0, Clock::now());
    if (!ok(code)) {
      fail_status(s, code);
      return;
    }
    s.busy = true;
  }

  void blocking(Slot& s, std::string_view key) {
    const auto t0 = Clock::now();
    const StatusCode code =
        s.is_get ? client_->get(key, get_out_) : client_->set(key, s.buf);
    const auto t1 = Clock::now();
    if (trace_) note_issue(s, s.is_get ? "get" : "set", t0, t1);
    s.issued_at = t0;
    finish(s, code, get_out_, t1);
  }

  void complete(Slot& s) {
    const auto t0 = Clock::now();
    client_->wait(s.req);
    const auto t1 = Clock::now();
    if (trace_) {
      stats_.wait_ns += ns_between(t0, t1);
      spans_.add(s.seq, "wait", t0, t1);
    }
    s.busy = false;
    finish(s, s.req.status(),
           std::span<const char>(s.buf.data(), std::min(s.req.value_length(), s.buf.size())),
           t1);
  }

  void finish(Slot& s, StatusCode code, std::span<const char> value,
              Clock::time_point done) {
    if (s.is_get) {
      if (code == StatusCode::kOk) {
        const Verdict v = history_.end_get(s.ticket, value, codec_);
        if (v != Verdict::kOk) ++stats_.bad_verdicts[std::string(perfbench::to_string(v))];
      } else {
        fail_status(s, code);
      }
    } else if (ok(code)) {
      history_.end_set(s.key, s.version);
    } else {
      fail_status(s, code);  // the write stays pending: either outcome legal
    }
    if (!s.recorded) return;
    const std::uint64_t lat = ns_between(s.issued_at, done);
    ++(s.is_get ? stats_.gets : stats_.sets);
    stats_.latency_sum_s += static_cast<double>(lat) / 1e9;
    stats_.all.record(lat);
    windows_.record(done, lat, s.is_get);
  }

  void fail_status(Slot& s, StatusCode code) {
    if (s.is_get && code == StatusCode::kNotFound) {
      ++stats_.misses;
    } else {
      ++stats_.errors;
      std::fprintf(stderr, "perfbench: %s %s -> %.*s\n", s.is_get ? "get" : "set",
                   keys_[s.key].c_str(), static_cast<int>(status_name(code).size()),
                   status_name(code).data());
    }
  }

  void note_issue(const Slot& s, const char* name, Clock::time_point a,
                  Clock::time_point b) {
    ++stats_.issue_calls;
    stats_.issue_ns += ns_between(a, b);
    spans_.add(s.seq, name, a, b);
  }

  const Workload& wl_;
  const std::vector<std::string>& keys_;
  const KeyPicker& picker_;
  Rng rng_;
  unsigned index_, threads_;
  ValueCodec codec_;
  History history_;
  SpanLog spans_;
  std::unique_ptr<client::Client> client_;
  std::vector<Slot> slots_;
  std::size_t head_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<char> get_out_;
  bool recording_ = false, trace_ = false;
  LoadStats stats_;
  Windows windows_;
};

// ---- Program-side snapshots ----

struct Snapshot {
  store::ManagerStats store;
  ssd::DeviceStats device;
  net::EndpointStats net;  ///< Summed over the load threads' endpoints.
  double cpu_s = 0, sys_s = 0;
};

Snapshot snapshot(core::TestBed& bed, std::vector<std::unique_ptr<LoadThread>>& loads) {
  Snapshot s;
  s.store = bed.store_stats();
  s.device = bed.device_stats();
  for (auto& l : loads) {
    const auto ep = bed.fabric().endpoint(l->client().endpoint_id())->stats();
    s.net.sends += ep.sends;
    s.net.sent_bytes += ep.sent_bytes;
    s.net.registrations += ep.registrations;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  s.sys_s = secs(ru.ru_stime);
  s.cpu_s = secs(ru.ru_utime) + s.sys_s;
  return s;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

template <typename F>
void run_all(std::vector<std::unique_ptr<LoadThread>>& loads, F&& body) {
  std::vector<std::thread> threads;
  for (auto& l : loads) threads.emplace_back([&body, &l] { body(*l); });
  for (auto& t : threads) t.join();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::optional<std::int64_t> spawn_ns;
  std::string out = ".";
  unsigned load_threads = 1;
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--spawn-ns") a.spawn_ns = std::strtoll(v, nullptr, 10);
    else if (k == "--out") a.out = v;
    else if (k == "--load-threads") a.load_threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    else return std::nullopt;
  }
  // Sub-window histograms cost 256 KiB per second of run; keep runs short.
  if (a.seconds == 0 || a.seconds > 120 || a.load_threads == 0 || a.load_threads > 8) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto main_entry = Clock::now();
  const auto args = parse(argc, argv);
  const Workload* wl = nullptr;
  if (args) {
    for (const auto& w : kWorkloads) {
      if (args->workload == w.name) wl = &w;
    }
  }
  if (wl == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {ram_nonb_read95|ssd_nonb_update50|"
                 "ssd_block_read90} --seed N --seconds S --trace 0|1 "
                 "[--spawn-ns NS] [--out DIR] [--load-threads T]\n");
    return 2;
  }
  // Set-up is timed from the process's start when the launcher passes it.
  const Clock::time_point origin =
      args->spawn_ns ? Clock::time_point(std::chrono::nanoseconds(*args->spawn_ns))
                     : main_entry;
  sim::init_precise_timing();

  const std::uint64_t key_count = keys_for_ratio(wl->data_ratio, wl->value_bytes);
  std::vector<std::string> keys(key_count);
  for (std::uint64_t i = 0; i < key_count; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "key-%016llx", static_cast<unsigned long long>(i));
    keys[i] = buf;
  }
  const KeyPicker picker(key_count, wl->zipf, 0.99);

  // ---- Set-up: TestBed construction + preload + sync_storage() ----
  SpanLog phase_spans(origin);
  core::TestBedConfig cfg;
  cfg.design = wl->design;
  if (args->trace) cfg.server_trace_sample_shift = kServerTraceShift;
  const auto t_bed0 = Clock::now();
  core::TestBed bed(cfg);
  const auto t_bed1 = Clock::now();
  {
    // Preload every key at version 0 with a window of non-blocking SETs.
    auto loader = bed.make_client("preload");
    const ValueCodec codec(wl->value_bytes);
    constexpr std::size_t kPreloadWindow = 16;
    std::vector<client::Request> reqs(kPreloadWindow);
    std::vector<std::vector<char>> values(kPreloadWindow,
                                          std::vector<char>(codec.value_bytes()));
    const auto settle = [&](std::uint64_t i) {
      client::Request& req = reqs[i % kPreloadWindow];
      loader->wait(req);
      if (ok(req.status())) return true;
      std::fprintf(stderr, "perfbench: preload set %llu -> %.*s\n",
                   static_cast<unsigned long long>(i),
                   static_cast<int>(status_name(req.status()).size()),
                   status_name(req.status()).data());
      return false;
    };
    for (std::uint64_t i = 0; i < key_count + kPreloadWindow; ++i) {
      if (i >= kPreloadWindow && !settle(i - kPreloadWindow)) return 1;
      if (i >= key_count) continue;
      auto& value = values[i % kPreloadWindow];
      codec.fill(value, i, 0);
      if (!ok(loader->iset(keys[i], value, 0, 0, reqs[i % kPreloadWindow]))) return 1;
    }
  }
  const auto t_pre1 = Clock::now();
  bed.sync_storage();
  const auto t_setup_end = Clock::now();
  phase_spans.add(0, "setup.testbed", t_bed0, t_bed1);
  phase_spans.add(0, "setup.preload", t_bed1, t_pre1);
  phase_spans.add(0, "setup.sync", t_pre1, t_setup_end);

  std::vector<std::unique_ptr<LoadThread>> loads;
  for (unsigned t = 0; t < args->load_threads; ++t) {
    loads.push_back(std::make_unique<LoadThread>(bed, *wl, keys, args->seed, t,
                                                 args->load_threads, picker, origin));
  }
  const std::uint64_t per_thread_warmup = wl->prefix_ops / args->load_threads;
  const auto t_warm0 = Clock::now();
  run_all(loads, [&](LoadThread& l) { l.run_count(per_thread_warmup); });
  phase_spans.add(0, "warmup", t_warm0, Clock::now());

  // Traced run: a fixed prefix of operations whose program counters repeat
  // exactly for a given seed (one load thread), printed as counts.
  std::vector<Metric> counts;
  if (args->trace) {
    bed.sync_storage();
    bed.reset_metrics();
    const Snapshot c0 = snapshot(bed, loads);
    const auto t_c0 = Clock::now();
    run_all(loads, [&](LoadThread& l) { l.run_count(wl->prefix_ops / args->load_threads); });
    bed.sync_storage();
    phase_spans.add(0, "count_prefix", t_c0, Clock::now());
    const Snapshot c1 = snapshot(bed, loads);
    const auto delta = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
    counts = {
        {"count.prefix_ops", static_cast<double>(wl->prefix_ops), "count"},
        {"count.flushes", delta(c0.store.flushes, c1.store.flushes), "count"},
        {"count.ssd_hits", delta(c0.store.ssd_hits, c1.store.ssd_hits), "count"},
        {"count.promotions", delta(c0.store.promotions, c1.store.promotions), "count"},
        {"count.device_write_bytes", static_cast<double>(c1.device.written_bytes), "bytes"},
        {"count.device_read_bytes", static_cast<double>(c1.device.read_bytes), "bytes"},
    };
  }

  // ---- Timed phase ----
  bed.sync_storage();
  bed.reset_metrics();
  const Snapshot s0 = snapshot(bed, loads);
  std::vector<std::uint64_t> flush_marks{s0.store.flushes};
  const auto t_start = Clock::now();
  const auto t_end = t_start + std::chrono::seconds(args->seconds);
  std::thread flush_sampler([&] {
    // Store flush count at every sub-window boundary, to show that periodic
    // flushes land inside every sub-window the figures are pooled from.
    for (unsigned w = 1; w <= args->seconds; ++w) {
      std::this_thread::sleep_until(t_start + std::chrono::seconds(w));
      flush_marks.push_back(bed.store_stats().flushes);
    }
  });
  run_all(loads, [&](LoadThread& l) { l.run_timed(t_start, t_end, args->seconds, args->trace); });
  const auto t_drained = Clock::now();
  flush_sampler.join();
  const Snapshot s1 = snapshot(bed, loads);
  bed.sync_storage();
  const store::ManagerStats store_end = bed.store_stats();
  const ssd::DeviceStats device_end = bed.device_stats();
  phase_spans.add(0, "timed", t_start, t_drained);
  const double peak_rss = peak_rss_mib();

  // ---- Merge the load threads ----
  LoadStats total;
  Windows win;
  win.begin(t_start, args->seconds);
  std::uint64_t failed = 0;
  for (auto& l : loads) {
    const LoadStats& s = l->stats();
    total.gets += s.gets;
    total.sets += s.sets;
    total.misses += s.misses;
    total.errors += s.errors;
    total.latency_sum_s += s.latency_sum_s;
    total.all.merge(s.all);
    total.issue_calls += s.issue_calls;
    total.issue_ns += s.issue_ns;
    total.wait_ns += s.wait_ns;
    for (const auto& [k, n] : s.bad_verdicts) total.bad_verdicts[k] += n;
    win.merge(l->windows());
  }
  const std::uint64_t ops = total.gets + total.sets;

  // ---- Checks ----
  bool correct = true;
  for (const auto& [kind, n] : total.bad_verdicts) {
    std::fprintf(stderr, "perfbench: oracle: %llu GETs %s\n",
                 static_cast<unsigned long long>(n), kind.c_str());
    failed += n;
    correct = false;
  }
  failed += total.misses + total.errors;
  const server::ServerCounters sc = bed.server(0).counters();
  perfbench::Totals tot;
  tot.bench_gets = total.gets;
  tot.bench_sets = total.sets;
  tot.get_misses = total.misses;
  tot.server_requests = sc.requests;
  tot.server_ops_sum = sc.ops_sum();
  tot.server_gets = sc.gets;
  tot.server_sets = sc.sets;
  tot.store_hits = (store_end.ram_hits + store_end.ssd_hits) - (s0.store.ram_hits + s0.store.ssd_hits);
  tot.store_read_paths = (store_end.optimistic_hits + store_end.locked_fallbacks) -
                         (s0.store.optimistic_hits + s0.store.locked_fallbacks);
  tot.store_sets = store_end.sets - s0.store.sets;
  tot.dropped_evictions = store_end.dropped_evictions;
  tot.flushed_bytes = store_end.flushed_bytes - s0.store.flushed_bytes;
  tot.device_written = device_end.written_bytes;
  tot.latency_sum_s = total.latency_sum_s;
  tot.phase_s = seconds_between(t_start, t_drained);
  tot.window = wl->window * args->load_threads;
  for (const auto& v : perfbench::check_totals(tot)) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
    ++failed;
    correct = false;
  }

  // ---- End-to-end metrics over the calmer half of the sub-windows ----
  // Sub-windows are ranked by completed ops and the faster half is kept:
  // host CPU steal only ever slows a sub-window, so that half is the part of
  // the run the host disturbed least. Throughput is the kept half's rate; a
  // latency percentile is the median over the kept sub-windows of that
  // sub-window's percentile, so one stall inside a kept sub-window moves one
  // value of the median, not the tail of a pooled sample.
  std::vector<std::size_t> order(win.done.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return win.done[a] > win.done[b]; });
  order.resize(std::max<std::size_t>(1, order.size() / 2));
  std::uint64_t calm_done = 0, calm_gets = 0, calm_sets = 0;
  for (const std::size_t w : order) {
    calm_done += win.done[w];
    calm_gets += win.get[w].count();
    calm_sets += win.set[w].count();
  }
  const auto calm_percentile = [&](const std::vector<FineHistogram>& hists, double p) {
    std::vector<double> v;
    for (const std::size_t w : order) v.push_back(hists[w].percentile_us(p));
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
  };
  std::vector<double> kops;
  for (const std::uint64_t d : win.done) kops.push_back(static_cast<double>(d) / 1e3);
  std::uint64_t min_flushes = ~0ULL;
  for (std::size_t w = 1; w < flush_marks.size(); ++w) {
    min_flushes = std::min(min_flushes, flush_marks[w] - flush_marks[w - 1]);
  }
  const double throughput =
      static_cast<double>(calm_done) / static_cast<double>(order.size()) / 1e3;
  const double setup_s = seconds_between(origin, t_setup_end);
  std::printf("workload %s: %llu keys x %zu B, design %s, %s, read %.0f%%, window %zu, "
              "seed %llu, load threads %u\n",
              wl->name, static_cast<unsigned long long>(key_count), wl->value_bytes,
              std::string(core::to_string(wl->design)).c_str(), wl->zipf ? "zipf 0.99" : "uniform",
              wl->read_fraction * 100, wl->window, static_cast<unsigned long long>(args->seed),
              args->load_threads);
  std::printf("timed %.2f s: %llu GETs, %llu SETs (mean %.1f kops/s); calm half: %zu "
              "sub-windows, %llu GET and %llu SET samples; fewest flushes in a sub-window %llu\n",
              tot.phase_s, static_cast<unsigned long long>(total.gets),
              static_cast<unsigned long long>(total.sets),
              static_cast<double>(ops) / tot.phase_s / 1e3, order.size(),
              static_cast<unsigned long long>(calm_gets),
              static_cast<unsigned long long>(calm_sets),
              static_cast<unsigned long long>(min_flushes == ~0ULL ? 0 : min_flushes));

  std::printf("sub-window kops/s:");
  for (const double k : kops) std::printf(" %.4g", k);
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args->trace) {
    metrics = {
        {"throughput_kops", throughput, "kops/s"},
        {"get_p50_us", calm_percentile(win.get, 50), "us"},
        {"get_p99_us", calm_percentile(win.get, 99), "us"},
        {"set_p50_us", calm_percentile(win.set, 50), "us"},
        {"set_p99_us", calm_percentile(win.set, 99), "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
  } else {
    const auto* rec = bed.server(0).latency();
    const auto span = [rec](metrics::Span s) { return rec->span_histogram(s); };
    const auto fabric = span(metrics::Span::kFabricTransfer);
    const auto admission = span(metrics::Span::kAdmissionWait);
    LatencyHistogram server_ops = rec->op_histogram(metrics::Op::kGet);
    server_ops.merge(rec->op_histogram(metrics::Op::kSet));
    const auto flush = span(metrics::Span::kSsdFlush);
    const double dops = static_cast<double>(ops);
    const double set_bytes = static_cast<double>(total.sets * wl->value_bytes);
    const double ssd_hits = static_cast<double>(store_end.ssd_hits - s0.store.ssd_hits);
    const double ram_hits = static_cast<double>(store_end.ram_hits - s0.store.ram_hits);
    double batch_fill_sum = 0;
    for (auto& l : loads) batch_fill_sum += l->client().counters().batch_fill();
    metrics = {
        {"traced_throughput_kops", throughput, "kops/s"},
        {"client.issue_us", ratio(static_cast<double>(total.issue_ns) / 1e3,
                                  static_cast<double>(total.issue_calls)), "us"},
        {"client.wait_us", ratio(static_cast<double>(total.wait_ns) / 1e3, dops), "us"},
        {"client.batch_fill", batch_fill_sum / static_cast<double>(loads.size()), "ops/frame"},
        {"proc.cpu_us_per_op", ratio((s1.cpu_s - s0.cpu_s) * 1e6, dops), "us"},
        {"proc.sys_us_per_op", ratio((s1.sys_s - s0.sys_s) * 1e6, dops), "us"},
        {"net.frames_per_op", ratio(static_cast<double>(s1.net.sends - s0.net.sends), dops), "frames"},
        {"net.bytes_per_op", ratio(static_cast<double>(s1.net.sent_bytes - s0.net.sent_bytes), dops), "bytes"},
        {"net.fabric_transfer_mean_us", fabric.mean_us(), "us"},
        {"net.fabric_transfer_p99_us", fabric.p99_us(), "us"},
        {"net.cold_registrations", static_cast<double>(s1.net.registrations - s0.net.registrations), "count"},
        {"server.admission_wait_mean_us", admission.mean_us(), "us"},
        {"server.admission_wait_p99_us", admission.p99_us(), "us"},
        {"server.store_phase_mean_us", span(metrics::Span::kStorePhase).mean_us(), "us"},
        {"server.response_mean_us", span(metrics::Span::kResponse).mean_us(), "us"},
        {"server.get_mean_us", rec->op_histogram(metrics::Op::kGet).mean_us(), "us"},
        {"server.set_mean_us", rec->op_histogram(metrics::Op::kSet).mean_us(), "us"},
        {"store.optimistic_read_mean_us", span(metrics::Span::kOptimisticRead).mean_us(), "us"},
        {"store.locked_read_mean_us", span(metrics::Span::kLockedRead).mean_us(), "us"},
        {"store.optimistic_hit_ratio",
         ratio(static_cast<double>(store_end.optimistic_hits - s0.store.optimistic_hits),
               static_cast<double>(total.gets)), "ratio"},
        {"store.ram_hit_ratio", ratio(ram_hits, ram_hits + ssd_hits), "ratio"},
        {"store.promotions_per_ssd_hit",
         ratio(static_cast<double>(store_end.promotions - s0.store.promotions), ssd_hits), "ratio"},
        {"store.ssd_flush_mean_us", flush.mean_us(), "us"},
        {"store.ssd_flush_p99_us", flush.p99_us(), "us"},
        {"store.flushes_per_kop",
         ratio(static_cast<double>(store_end.flushes - s0.store.flushes) * 1e3, dops), "count"},
        {"store.flushed_bytes_per_set_byte", ratio(static_cast<double>(tot.flushed_bytes), set_bytes), "ratio"},
        {"store.min_flushes_per_window", min_flushes == ~0ULL ? 0.0 : static_cast<double>(min_flushes), "count"},
        {"store.ssd_bytes_per_dataset_byte",
         ratio(static_cast<double>(store_end.ssd_live_bytes),
               static_cast<double>(key_count * wl->value_bytes)), "ratio"},
        {"ssd.write_bytes_per_set_byte", ratio(static_cast<double>(device_end.written_bytes), set_bytes), "ratio"},
        {"ssd.busy_ms_per_kop", ratio(static_cast<double>(device_end.busy_ns) / 1e6 * 1e3, dops), "ms"},
        {"ssd.read_bytes_per_ssd_hit", ratio(static_cast<double>(device_end.read_bytes), ssd_hits), "bytes"},
        {"setup.testbed_s", seconds_between(t_bed0, t_bed1), "s"},
        {"setup.preload_s", seconds_between(t_bed1, t_pre1), "s"},
        {"setup.sync_s", seconds_between(t_pre1, t_setup_end), "s"},
        {"unattributed_us", total.all.mean_us() - fabric.mean_us() - server_ops.mean_us(), "us"},
        {"samples.get", static_cast<double>(total.gets), "count"},
        {"samples.set", static_cast<double>(total.sets), "count"},
    };
    metrics.insert(metrics.end(), counts.begin(), counts.end());

    // Spans out: the benchmark's own (setup phases and every client call of
    // the first ops, tagged with the op's sequence number) and the server's
    // sampled op traces.
    const std::string path = args->out + "/" + wl->name + ".trace.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"bench_spans\": [", wl->name,
                   static_cast<unsigned long long>(args->seed));
      bool first = true;
      const auto dump = [&](const SpanLog& log, unsigned thread) {
        for (const auto& s : log.spans()) {
          std::fprintf(f, "%s\n{\"thread\": %u, \"seq\": %llu, \"name\": \"%s\", \"start_ns\": %llu, \"dur_ns\": %llu}",
                       first ? "" : ",", thread, static_cast<unsigned long long>(s.seq), s.name,
                       static_cast<unsigned long long>(s.start_ns),
                       static_cast<unsigned long long>(s.dur_ns));
          first = false;
        }
      };
      dump(phase_spans, 0);
      for (unsigned t = 0; t < loads.size(); ++t) dump(loads[t]->spans(), t);
      std::fprintf(f, "],\n\"server_traces\": %s}\n", bed.server(0).tracer()->to_json().c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }

  std::printf("%s\n", json_result(correct, std::max<std::uint64_t>(ops, 1),
                                  std::min(failed, std::max<std::uint64_t>(ops, 1)),
                                  metrics).c_str());
  std::fflush(stdout);
  return 0;
}
