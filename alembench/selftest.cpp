// Self-tests of the benchmark harness (run: python3 alembench/run.py
// --selftest).  Each check prints one line; the exit code is the number of
// failed checks.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void percentile_selection() {
  // p99 needs 1000 samples (10 beyond it); p99.9 needs 10000.
  check(alembench::tail_quantile(999) == 0.9, "999 samples support p90, not p99");
  check(alembench::tail_quantile(1000) == 0.99, "1000 samples support p99");
  check(alembench::tail_quantile(9999) == 0.99, "9999 samples stop at p99");
  check(alembench::tail_quantile(10000) == 0.999, "10000 samples support p99.9");
  check(alembench::tail_quantile(50) == 0.5, "50 samples support only the median");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(alembench::quantile_sorted(v, 0.5) == 50.0, "nearest-rank median of 1..100");
  check(alembench::quantile_sorted(v, 0.99) == 99.0, "nearest-rank p99 of 1..100");
  check(alembench::quantile_sorted(v, 1.0) == 100.0, "p100 is the maximum");
}

void seeded_schedule() {
  auto pick = [](alembench::SplitMix& rng) { return rng.below(512); };
  auto a = alembench::fixed_rate_schedule(7, 250.0, 2.0, pick);
  auto b = alembench::fixed_rate_schedule(7, 250.0, 2.0, pick);
  auto c = alembench::fixed_rate_schedule(8, 250.0, 2.0, pick);
  bool same = a.size() == b.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].request == b[i].request;
    differs = differs || a[i].request != c[i].request;
  }
  check(a.size() == 500, "250/s over 2 s schedules 500 arrivals");
  check(same, "the same seed gives the same schedule");
  check(differs, "another seed draws other requests");
  check(a[1].due_ns == 4'000'000, "arrivals are 4 ms apart at 250/s");
}

void pool_mix() {
  // Evenly spread slots give Zipf(1) over 6 ranks its exact shares, H6 =
  // 2.45: 512/H6 = 209.0 reads of rank 0 down to 512/(6*H6) = 34.8 of rank 5.
  auto cdf = alembench::zipf_cdf(6, 1.0);
  std::vector<int> count(6);
  for (int r = 0; r < 512; ++r) ++count[alembench::zipf_rank(cdf, (r + 0.5) / 512.0)];
  check(count == std::vector<int>{209, 104, 70, 52, 42, 35},
        "a 512-slot pool holds the Zipf shares, rounded");
}

void validator() {
  alembench::Expected expected{{"vgg_fp32", {2, 0}}, {"vgg_int8", {2, 1}}};
  std::string why;
  std::string good = R"({"scenario":"v","model":"vgg_int8","predictions":[2,1],"x":1})";
  check(alembench::validate_predictions(good, expected, &why) == "vgg_int8",
        "a correct response names its variant");
  std::string tampered = R"({"model":"vgg_int8","predictions":[2,0]})";
  check(alembench::validate_predictions(tampered, expected, &why).empty(),
        "a tampered prediction is rejected");
  std::string short_list = R"({"model":"vgg_fp32","predictions":[2]})";
  check(alembench::validate_predictions(short_list, expected, &why).empty(),
        "a missing prediction is rejected");
  std::string unknown = R"({"model":"other","predictions":[2,0]})";
  check(alembench::validate_predictions(unknown, expected, &why).empty(),
        "an unexpected variant is rejected");
  check(alembench::validate_predictions("not json", expected, &why).empty(),
        "a malformed body is rejected");
}

openei::obs::SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name,
                             std::int64_t start, std::int64_t end) {
  openei::obs::SpanRecord s;
  s.id = id;
  s.parent_id = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void self_time() {
  openei::obs::TraceRecord trace;
  trace.spans = {span(1, 0, "root", 0, 100'000), span(2, 1, "a", 10'000, 30'000),
                 span(3, 1, "b", 25'000, 60'000), span(4, 3, "c", 30'000, 40'000)};
  auto self = alembench::self_times(trace);
  // root: 100 us minus the union of a and b (10..60 us) = 50 us.
  check(self[0].second == 50.0, "parent self time excludes the union of its children");
  check(self[1].second == 20.0, "a leaf's self time is its duration");
  check(self[2].second == 25.0, "b's self time excludes its child c");
  check(self[3].second == 10.0, "c is a leaf");
}

}  // namespace

int main() {
  percentile_selection();
  seeded_schedule();
  pool_mix();
  validator();
  self_time();
  std::printf("%d failed\n", failures);
  return failures;
}
