// Benchmark binary: sets one workload up several times, replays its plan
// against the last set-up, checks every response and the server's own
// counters, and prints one JSON line with the end-to-end metrics (and, in
// the traced build, the per-layer ones). perfbench/run.py drives it.
//
//   perfbench[_traced] --workload NAME --seed N --seconds S
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "bench/alloc_counter.h"
#include "perfbench/plan.h"
#include "src/common/clock.h"
#include "src/db/database.h"
#include "src/server/staged_server.h"
#include "src/server/transport.h"
#include "src/tpcw/handlers.h"
#include "src/tpcw/populate.h"

namespace perfbench {
namespace {

namespace ts = tempest::server;
using tempest::tpcw::Scale;

// Paper time runs 20x faster than wall time. The cheapest simulated stage
// cost, a static file's 3 paper-ms, is then 150 wall-us, some 30 times the
// static stage's real service (about 5 us on 4 cores with costs off).
constexpr double kPaperTimeScale = 0.05;

WorkloadSpec workload(const std::string& name) {
  WorkloadSpec spec;
  spec.scale = Scale::bench();
  if (name == "paper_ordering") {
    // At this rate the general pool's spare threads reach treserve now and
    // then, so Table 1 sends a share of the lengthy pages to the lengthy
    // pool. With 512 browsers each is busy about 3% of the time, so a
    // request seldom waits behind its browser's previous one.
    spec.ordering = true;
    spec.rate_rps = 1300.0;
    spec.browsers = 512;
  } else if (name == "paper_browsing") {
    spec.rate_rps = 1700.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return spec;
}

// The paper's setup: default pools and controller, MyISAM locking, simulated
// DB, render and static costs on. The ordering mix adds what a logged-in
// shopper uses: sessions, the response cache and the fragment cache.
ts::ServerConfig server_config(const WorkloadSpec& spec) {
  ts::ServerConfig config;
  config.db_latency = tempest::tpcw::latency_model_for(spec.scale);
  config.cache.enabled = spec.ordering;
  config.fragment_cache.enabled = spec.ordering;
  config.sessions.enabled = spec.ordering;
  return config;
}

// One fully set-up system under test.
struct Stack {
  std::unique_ptr<tempest::db::Database> db;
  std::shared_ptr<const ts::Application> app;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<ts::StagedServer> server;
  std::unique_ptr<TracedServer> traced;

  ts::WebServer& front() {
    return traced ? static_cast<ts::WebServer&>(*traced) : *server;
  }

  ~Stack() {
    if (server) server->shutdown();
  }
};

std::unique_ptr<Stack> set_up(const WorkloadSpec& spec, bool trace,
                              std::size_t requests) {
  auto stack = std::make_unique<Stack>();
  stack->db = std::make_unique<tempest::db::Database>();
  const auto pop = tempest::tpcw::populate_tpcw(*stack->db, spec.scale);
  auto app = tempest::tpcw::make_tpcw_application(
      tempest::tpcw::TpcwState::from_population(spec.scale, pop));
  if (trace) {
    stack->sink = std::make_unique<TraceSink>(requests);
    app = traced_application(*app, *stack->sink);
  }
  stack->app = app;
  stack->server = std::make_unique<ts::StagedServer>(server_config(spec),
                                                     stack->app, *stack->db);
  if (trace) {
    stack->traced = std::make_unique<TracedServer>(*stack->server, *stack->sink);
  }
  // One crawl of every page, as the paper experiments do, so the service
  // time tracker knows each page's class before load arrives.
  ts::InProcClient warmup(*stack->server);
  for (const std::string& path : tempest::tpcw::tpcw_page_paths()) {
    warmup.roundtrip("GET " + path +
                     "?c_id=1&i_id=1&subject=ARTS&type=title&term=river"
                     " HTTP/1.1\r\nHost: warmup\r\n\r\n");
  }
  if (stack->sink) {
    std::lock_guard lock(stack->sink->mu);
    stack->sink->handler_quick_s.clear();
    stack->sink->handler_lengthy_s.clear();
    stack->sink->statements = 0;
    stack->sink->handler_calls = 0;
  }
  return stack;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// The mean of the central tenth of the samples (ranks 45%..55%). It equals
// the median on smooth data; where the samples fall in separate clusters
// (the lengthy pages each have their own simulated cost) it moves smoothly
// with their proportions instead of jumping from one cluster to the next.
double central_p50(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t lo = n * 45 / 100;
  const std::size_t hi = std::max(lo + 1, (n * 55 + 99) / 100);
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// Tail percentiles are the median, over consecutive windows of
// kTailWindow samples in arrival order, of each window's q-quantile (the
// whole run's when it holds fewer than kMinWindows windows). The machine
// pauses for milliseconds now and then, delaying every request in flight; a
// pause lands in a few windows and leaves the median window alone, where it
// would move a whole-run tail percentile from one run to the next.
constexpr std::size_t kTailWindow = 500;
constexpr std::size_t kMinWindows = 10;

double windowed(const std::vector<double>& v, double q,
                std::size_t window = kTailWindow) {
  const std::size_t k = v.size() / window;
  if (k < kMinWindows) return percentile(v, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last = w + 1 == k ? v.end() : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(per_window);
}

double cpu_s(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double per(double x, std::uint64_t n) {
  return n == 0 ? 0.0 : x / static_cast<double>(n);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Paper seconds (the server's own clocks) to wall milliseconds.
double paper_ms(double paper_s) {
  return paper_s * tempest::TimeScale::get() * 1e3;
}

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
    add(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    add(key, quoted + "\"");
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

// The per-stage breakdown folded across request classes. Means are exact
// (sums and counts); p50 is the dominant class's and p99 the largest
// class's, both 1.6x bucket upper bounds as the server's histograms report.
struct StageFold {
  std::uint64_t count = 0;
  double wait_sum = 0, service_sum = 0;
  double wait_p50 = 0, service_p50 = 0, wait_p99 = 0, service_p99 = 0;
  std::uint64_t dominant = 0;
};

std::map<ts::Stage, StageFold> fold(const std::vector<ts::StageMetrics::Row>& rows) {
  std::map<ts::Stage, StageFold> out;
  for (const auto& row : rows) {
    StageFold& f = out[row.stage];
    f.count += row.queue_wait.count;
    f.wait_sum += row.queue_wait.mean * static_cast<double>(row.queue_wait.count);
    f.service_sum += row.service.mean * static_cast<double>(row.service.count);
    f.wait_p99 = std::max(f.wait_p99, row.queue_wait.p99);
    f.service_p99 = std::max(f.service_p99, row.service.p99);
    if (row.queue_wait.count > f.dominant) {
      f.dominant = row.queue_wait.count;
      f.wait_p50 = row.queue_wait.p50;
      f.service_p50 = row.service.p50;
    }
  }
  return out;
}

// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;

// A generator whose releases run this late at p99 no longer offers the
// planned load. Lateness below it is scheduling jitter, which latency (timed
// from release) does not include.
constexpr double kMaxLateP99Ms = 50.0;

int run(const std::string& name, std::uint64_t seed, double seconds) {
  const WorkloadSpec spec = workload(name);
  tempest::TimeScale::set(kPaperTimeScale);
  const bool trace = tempest::bench::alloc_counting_enabled();

  const Plan plan = make_plan(spec, seed, seconds);
  const std::size_t total = plan.requests.size();
  JsonObject checks;
  auto check = [&](const std::string& what, bool ok, const std::string& why) {
    checks.str(what, ok ? "ok" : why);
  };

  // The last set-up is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = set_up(spec, trace, total);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  ts::StagedServer& server = *stack->server;
  ts::ServerStats& stats = server.stats();
  const ts::StaticStore& store = stack->app->static_store;

  // Counters at the start of the measured window.
  const auto cache0 = stats.cache().snapshot();
  const auto frag0 = stats.fragments().snapshot();
  const auto sess0 = stats.sessions().snapshot();
  const auto plan0 = stack->db->plan_cache_stats();
  const auto pool0 = server.connection_pool().stats();
  const auto stages0 = fold(stats.stage_breakdown());
  const std::uint64_t served0 = stats.completed_total();
  const auto allocs0 = tempest::bench::alloc_counts();
  const double paper0 = tempest::paper_now();
  rusage ru0{};
  ::getrusage(RUSAGE_SELF, &ru0);

  std::vector<Record> records(total);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const double deadline_s = 2.0 * seconds + 30.0;
  const GeneratorStats gen = run_load(plan, spec.ordering, stack->front(),
                                      start, deadline_s, store, records);
  rusage ru1{};
  ::getrusage(RUSAGE_SELF, &ru1);
  const auto allocs1 = tempest::bench::alloc_counts();
  const double paper1 = tempest::paper_now();
  server.shutdown();

  // --- End-to-end ----------------------------------------------------------
  std::vector<double> all, quick, lengthy;
  // Throughput is counted over the schedule's window, first to last due
  // time: the rate at which responses came back while load was offered.
  const double window_s = plan.requests.back().due_s - plan.requests.front().due_s;
  std::uint64_t completed = 0, failed = 0, in_window = 0;
  double latency_max_ms = 0.0;
  std::string first_failure;
  for (std::size_t i = 0; i < total; ++i) {
    const Record& r = records[i];
    if (!r.ok) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = plan.requests[i].target + ": " +
                        (r.why.empty() ? "no response" : r.why);
      }
    }
    if (r.done_s < 0) continue;
    ++completed;
    if (r.done_s <= plan.requests.back().due_s) ++in_window;
    // From release, which is the due time plus the generator's own
    // lateness (reported as gen.late_p99_ms and bounded below): a wait
    // behind the browser's previous request is charged, the generator's is
    // not.
    const double ms = (r.done_s - r.released_s) * 1e3;
    latency_max_ms = std::max(latency_max_ms, ms);
    all.push_back(ms);
    if (plan.requests[i].cls == Cls::kQuick) quick.push_back(ms);
    if (plan.requests[i].cls == Cls::kLengthy) lengthy.push_back(ms);
  }
  check("responses_ok", failed == 0,
        std::to_string(failed) + " failed, first: " + first_failure);
  // Every response the generator counted is one the server counted, and
  // the other way round.
  const std::uint64_t served = stats.completed_total() - served0;
  check("server_counts_match", served == completed,
        "server completed " + std::to_string(served) + ", generator saw " +
            std::to_string(completed));

  const double gen_late_p99_ms = percentile(gen.late_s, 0.99) * 1e3;
  const double achieved_rps = static_cast<double>(in_window) / window_s;
  const double offered_rps = static_cast<double>(total) / window_s;
  std::string invalid;
  if (gen.timed_out) invalid = "responses still missing at the deadline";
  else if (gen_late_p99_ms > kMaxLateP99Ms) invalid = "the generator fell behind its schedule";
  else if (achieved_rps < 0.95 * offered_rps) invalid = "achieved rate missed the offered rate";

  const double server_cpu_s = cpu_s(ru1) - cpu_s(ru0) - gen.cpu_s;
  JsonObject e2e;
  e2e.num("setup_s", median(setup_times));
  e2e.num("latency_p50_ms", central_p50(all));
  e2e.num("latency_p95_ms", windowed(all, 0.95));
  e2e.num("quick_p50_ms", central_p50(quick));
  e2e.num("quick_p95_ms", windowed(quick, 0.95));
  e2e.num("lengthy_p50_ms", central_p50(lengthy));
  e2e.num("cpu_ms_per_req", per(server_cpu_s * 1e3, completed));
  e2e.num("rss_mb", static_cast<double>(ru1.ru_maxrss) / 1024.0);
  e2e.num("achieved_rps", achieved_rps);
  e2e.num("ok_frac", 1.0 - ratio(failed, total));
  e2e.num("error_frac", ratio(failed, total));

  // --- Server-side output checks ---------------------------------------------
  const auto sess1 = stats.sessions().snapshot();
  const auto faults = stats.faults().snapshot();
  check("sessions_validate",
        sess1.rejected == sess0.rejected && sess1.expired == sess0.expired,
        "session tokens rejected or expired");
  check("no_parse_errors", stats.transport().snapshot().parse_errors == 0,
        "transport parse errors");
  check("no_faults", faults == tempest::FaultCounters::Snapshot{},
        "fault counters moved");
  check("no_sheds", stats.shed_total() == 0, "requests shed");

  JsonObject rows;
  for (const std::string& table : stack->db->table_names()) {
    rows.num(table, static_cast<double>(stack->db->table(table).row_count()));
  }

  // --- Per-layer (traced build only) -----------------------------------------
  JsonObject layers;
  if (trace) {
    TraceSink& sink = *stack->sink;
    std::vector<double> residence, outside;
    std::size_t beyond = 0;
    double residence_sum = 0;
    for (std::size_t i = 0; i < total; ++i) {
      const std::int64_t ns = sink.residence_ns[i].load(std::memory_order_relaxed);
      const Record& r = records[i];
      if (ns < 0 || r.done_s < 0) continue;
      const double res_ms = static_cast<double>(ns) / 1e6;
      const double wire_ms = (r.done_s - r.sent_s) * 1e3;
      if (res_ms > wire_ms) ++beyond;
      residence.push_back(res_ms);
      residence_sum += res_ms;
      outside.push_back(wire_ms - res_ms);
    }
    check("residence_within_latency", beyond == 0 && residence.size() == completed,
          std::to_string(beyond) + " requests resided longer than their latency");
    layers.num("server.residence_p50_ms", percentile(residence, 0.50));
    layers.num("server.residence_p99_ms", percentile(residence, 0.99));
    layers.num("transport.outside_p50_ms", percentile(outside, 0.50));
    layers.num("transport.outside_p99_ms", percentile(outside, 0.99));

    const auto stages1 = fold(stats.stage_breakdown());
    double staged_ms = 0;
    std::uint64_t lengthy_pool_visits = 0;
    const std::pair<ts::Stage, const char*> kStages[] = {
        {ts::Stage::kHeader, "header"}, {ts::Stage::kStatic, "static"},
        {ts::Stage::kGeneral, "general"}, {ts::Stage::kLengthy, "lengthy"},
        {ts::Stage::kRender, "render"}};
    for (const auto& [stage, label] : kStages) {
      const StageFold f1 = stages1.count(stage) ? stages1.at(stage) : StageFold{};
      const StageFold f0 = stages0.count(stage) ? stages0.at(stage) : StageFold{};
      const std::uint64_t n = f1.count - f0.count;
      if (stage == ts::Stage::kLengthy) lengthy_pool_visits = n;
      const double wait = f1.wait_sum - f0.wait_sum;
      const double service = f1.service_sum - f0.service_sum;
      staged_ms += paper_ms(wait + service);
      const std::string p = std::string("stage.") + label + ".";
      layers.num(p + "wait_p50_ms", paper_ms(f1.wait_p50));
      layers.num(p + "wait_p99_ms", paper_ms(f1.wait_p99));
      layers.num(p + "wait_mean_ms", paper_ms(per(wait, n)));
      layers.num(p + "service_p50_ms", paper_ms(f1.service_p50));
      layers.num(p + "service_p99_ms", paper_ms(f1.service_p99));
      layers.num(p + "service_mean_ms", paper_ms(per(service, n)));
    }
    // Table 1 sends a lengthy page to the lengthy pool only while the
    // general pool's spare threads are down to treserve.
    layers.num("stage.lengthy.share", ratio(lengthy_pool_visits, lengthy.size()));
    // Stage stamps lie inside the residence window, so their sum cannot
    // exceed it beyond float error.
    check("stages_within_residence", staged_ms <= residence_sum * 1.001 + 1e-3,
          "summed stage time exceeds summed residence");

    {
      std::lock_guard lock(sink.mu);
      layers.num("handler.quick_p50_ms", percentile(sink.handler_quick_s, 0.5) * 1e3);
      layers.num("handler.lengthy_p50_ms",
                 percentile(sink.handler_lengthy_s, 0.5) * 1e3);
      layers.num("handler.lengthy_p99_ms",
                 percentile(sink.handler_lengthy_s, 0.99) * 1e3);
    }
    const std::uint64_t calls = sink.handler_calls.load();
    layers.num("db.statements_per_req",
               per(static_cast<double>(sink.statements.load()), calls));
    const auto pool1 = server.connection_pool().stats();
    const double waits =
        static_cast<double>(pool1.acquire_wait_paper_s.count() -
                            pool0.acquire_wait_paper_s.count());
    const double wait_sum =
        pool1.acquire_wait_paper_s.mean() *
            static_cast<double>(pool1.acquire_wait_paper_s.count()) -
        pool0.acquire_wait_paper_s.mean() *
            static_cast<double>(pool0.acquire_wait_paper_s.count());
    layers.num("db.acquire_wait_mean_ms", paper_ms(waits > 0 ? wait_sum / waits : 0));
    const double held = pool1.total_held_paper_s - pool0.total_held_paper_s;
    const double busy = pool1.total_busy_paper_s - pool0.total_busy_paper_s;
    layers.num("db.idle_while_held", held > 0 ? 1.0 - busy / held : 0.0);
    const auto plan1 = stack->db->plan_cache_stats();
    const std::uint64_t lookups = (plan1.hits - plan0.hits) +
                                  (plan1.misses - plan0.misses) +
                                  (plan1.rebinds - plan0.rebinds);
    layers.num("db.plan_cache_hit_rate", ratio(plan1.hits - plan0.hits, lookups));
    layers.num("db.order_line_rows_end",
               static_cast<double>(stack->db->table("order_line").row_count()));

    const auto cache1 = stats.cache().snapshot();
    const std::uint64_t cache_hits = cache1.hits_total() - cache0.hits_total();
    layers.num("response_cache.hit_rate",
               ratio(cache_hits, cache_hits + cache1.misses - cache0.misses));
    layers.num("response_cache.invalidations",
               static_cast<double>(cache1.invalidations - cache0.invalidations));
    const auto frag1 = stats.fragments().snapshot();
    const std::uint64_t frag_hits = frag1.hits_total() - frag0.hits_total();
    layers.num("fragment_cache.hit_rate",
               ratio(frag_hits, frag_hits + frag1.misses - frag0.misses));
    layers.num("fragment_cache.splices_per_req",
               ratio(frag1.splices - frag0.splices, completed));
    layers.num("fragment_cache.invalidations",
               static_cast<double>(frag1.invalidations - frag0.invalidations));
    layers.num("fragment_cache.stale_rejects",
               static_cast<double>(frag1.stale_rejects - frag0.stale_rejects));
    layers.num("session.validations_per_req",
               ratio(sess1.validated - sess0.validated, completed));

    double treserve_sum = 0, tspare_min = 0;
    std::size_t samples = 0;
    for (const auto& p : stats.treserve_series()) {
      if (p.t < paper0 || p.t > paper1) continue;
      treserve_sum += p.value;
      ++samples;
    }
    bool first = true;
    for (const auto& p : stats.tspare_series()) {
      if (p.t < paper0 || p.t > paper1) continue;
      tspare_min = first ? p.value : std::min(tspare_min, p.value);
      first = false;
    }
    layers.num("controller.treserve_mean", per(treserve_sum, samples));
    layers.num("controller.tspare_min", tspare_min);

    const auto allocs = allocs1 - allocs0;
    layers.num("process.allocs_per_req", ratio(allocs.count, completed));
    layers.num("process.alloc_bytes_per_req", ratio(allocs.bytes, completed));
    layers.num("process.vcsw_per_req",
               per(static_cast<double>(ru1.ru_nvcsw - ru0.ru_nvcsw - gen.vcsw),
                   completed));
    layers.num("process.ivcsw_per_req",
               per(static_cast<double>(ru1.ru_nivcsw - ru0.ru_nivcsw - gen.ivcsw),
                   completed));
    layers.num("gen.cpu_ms_per_req", per(gen.cpu_s * 1e3, completed));
    layers.num("gen.late_p99_ms", gen_late_p99_ms);
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(plan.digest));
  JsonObject out;
  out.str("workload", name);
  out.num("seed", static_cast<double>(seed));
  out.num("attempted", static_cast<double>(total));
  out.num("failed", static_cast<double>(failed));
  out.raw("checks", checks.text());
  out.str("invalid", invalid);
  out.num("gen_late_p99_ms", gen_late_p99_ms);
  out.num("latency_max_ms", latency_max_ms);
  out.str("plan_digest", digest);
  out.raw("rows", rows.text());
  out.raw("e2e", e2e.text());
  out.raw("layers", layers.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value, nullptr);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  try {
    return perfbench::run(workload, seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
