// Self-test of the benchmark's oracle: legal histories must pass and each
// deliberately wrong one (stale version, torn value, another key's bytes,
// a version never written, a truncated value, a count off by one) must be
// flagged. Exits 0 only when every case is judged as expected.
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace {

using perfbench::History;
using perfbench::ValueCodec;
using perfbench::Verdict;

int g_failures = 0;

void expect(const char* name, Verdict got, Verdict want) {
  const bool pass = got == want;
  if (!pass) ++g_failures;
  std::printf("%-44s %-12s (expected %s) %s\n", name,
              std::string(perfbench::to_string(got)).c_str(),
              std::string(perfbench::to_string(want)).c_str(),
              pass ? "PASS" : "FAIL");
}

std::vector<char> value_of(const ValueCodec& codec, std::uint64_t key,
                           std::uint64_t version) {
  std::vector<char> v(codec.value_bytes());
  codec.fill(v, key, version);
  return v;
}

void histories() {
  const ValueCodec codec(1024);
  History h(4);
  History::GetTicket t;

  h.begin_get(0, t);
  expect("preloaded value", h.end_get(t, value_of(codec, 0, 0), codec),
         Verdict::kOk);

  // SET v1 acknowledged, then a GET returning v0 is stale.
  const auto v1 = h.begin_set(0);
  h.end_set(0, v1);
  h.begin_get(0, t);
  expect("stale version after ack", h.end_get(t, value_of(codec, 0, 0), codec),
         Verdict::kStale);
  h.begin_get(0, t);
  expect("latest acknowledged version", h.end_get(t, value_of(codec, 0, v1), codec),
         Verdict::kOk);

  // A SET in flight at GET issue: old and new values are both legal.
  const auto v2 = h.begin_set(0);
  h.begin_get(0, t);
  expect("in-flight write, old value", h.end_get(t, value_of(codec, 0, v1), codec),
         Verdict::kOk);
  h.begin_get(0, t);
  expect("in-flight write, new value", h.end_get(t, value_of(codec, 0, v2), codec),
         Verdict::kOk);
  h.end_set(0, v2);

  // Two overlapping SETs acknowledged: either may be the final value ...
  const auto v3 = h.begin_set(0);
  const auto v4 = h.begin_set(0);
  h.end_set(0, v4);
  h.end_set(0, v3);
  h.begin_get(0, t);
  expect("overlapping writes, earlier wins", h.end_get(t, value_of(codec, 0, v3), codec),
         Verdict::kOk);
  // ... until a later SET issued after both is acknowledged.
  const auto v5 = h.begin_set(0);
  h.end_set(0, v5);
  h.begin_get(0, t);
  expect("overwritten overlapping write", h.end_get(t, value_of(codec, 0, v4), codec),
         Verdict::kStale);

  // A SET issued while the GET is outstanding may be returned.
  h.begin_get(0, t);
  const auto v6 = h.begin_set(0);
  expect("write issued during the GET", h.end_get(t, value_of(codec, 0, v6), codec),
         Verdict::kOk);
  h.end_set(0, v6);

  h.begin_get(0, t);
  expect("version never written", h.end_get(t, value_of(codec, 0, v6 + 1), codec),
         Verdict::kFuture);

  auto torn = value_of(codec, 0, v6);
  torn[512] = static_cast<char>(torn[512] ^ 0x40);
  h.begin_get(0, t);
  expect("torn value (one byte flipped)", h.end_get(t, torn, codec), Verdict::kTorn);

  auto spliced = value_of(codec, 0, v6);
  const auto older = value_of(codec, 0, v5);
  std::copy(older.begin() + 512, older.end(), spliced.begin() + 512);
  h.begin_get(0, t);
  expect("torn value (halves of two writes)", h.end_get(t, spliced, codec),
         Verdict::kTorn);

  h.begin_get(0, t);
  expect("another key's bytes", h.end_get(t, value_of(codec, 1, 0), codec),
         Verdict::kWrongKey);

  auto truncated = value_of(codec, 0, v6);
  truncated.resize(1000);
  h.begin_get(0, t);
  expect("truncated value", h.end_get(t, truncated, codec), Verdict::kWrongLength);
}

void totals() {
  perfbench::Totals good;
  good.bench_gets = good.server_gets = good.store_hits = good.store_read_paths = 95;
  good.bench_sets = good.server_sets = good.store_sets = 5;
  good.server_requests = good.server_ops_sum = 100;
  good.flushed_bytes = good.device_written = 1 << 20;
  good.window = 16;
  good.phase_s = 1.0;
  good.latency_sum_s = 15.9;
  const auto clean = perfbench::check_totals(good);
  std::printf("%-44s %zu violations (expected 0) %s\n", "consistent totals",
              clean.size(), clean.empty() ? "PASS" : "FAIL");
  if (!clean.empty()) ++g_failures;

  struct Case {
    const char* name;
    void (*mutate)(perfbench::Totals&);
  };
  const Case cases[] = {
      {"server gets off by one", [](perfbench::Totals& t) { ++t.server_gets; }},
      {"store hits off by one", [](perfbench::Totals& t) { --t.store_hits; }},
      {"read paths off by one", [](perfbench::Totals& t) { ++t.store_read_paths; }},
      {"store sets off by one", [](perfbench::Totals& t) { ++t.store_sets; }},
      {"requests != ops_sum", [](perfbench::Totals& t) { ++t.server_ops_sum; }},
      {"a GET missed", [](perfbench::Totals& t) { t.get_misses = 1; }},
      {"an eviction dropped", [](perfbench::Totals& t) { t.dropped_evictions = 1; }},
      {"device bytes off by one", [](perfbench::Totals& t) { --t.device_written; }},
      {"more in flight than the window", [](perfbench::Totals& t) { t.latency_sum_s = 16.1; }},
  };
  for (const auto& c : cases) {
    perfbench::Totals bad = good;
    c.mutate(bad);
    const auto found = perfbench::check_totals(bad);
    const bool pass = found.size() == 1;
    if (!pass) ++g_failures;
    std::printf("%-44s %zu violations (expected 1) %s\n", c.name, found.size(),
                pass ? "PASS" : "FAIL");
  }
}

}  // namespace

int main() {
  histories();
  totals();
  std::printf("oracle self-test: %s\n", g_failures == 0 ? "all cases judged as expected"
                                                         : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
