// Shared types of the benchmark binary: the request plan a workload replays,
// the per-request records the load generators fill in, the response checks,
// and the trace sink the tracing wrappers record into.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/app.h"
#include "src/server/transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Request classes as the benchmark sees them, from the page path alone:
// static = /img/*, lengthy = the four scanning pages, quick = everything else.
enum class Cls : std::uint8_t { kStatic = 0, kQuick, kLengthy };

Cls classify(std::string_view path);

// One scheduled request. `due_s` is the offset from the run's start at which
// the request is due; `browser` the emulated browser that carries it
// (ordering mix only).
struct PlannedRequest {
  double due_s = 0.0;
  std::uint32_t browser = 0;
  Cls cls = Cls::kQuick;
  std::string target;  // path + query
  std::string path;    // path only
};

struct Plan {
  std::vector<PlannedRequest> requests;
  std::uint64_t digest = 0;  // over due times, browsers and targets
};

// What the generator observed for one request. Offsets are seconds from the
// run's start instant.
struct Record {
  double released_s = -1.0;  // handed to its browser (due time + the
                             // generator's own lateness)
  double sent_s = -1.0;      // submitted to the server
  double done_s = -1.0;      // response complete
  bool ok = false;           // framed, 2xx, and body check passed
  std::string why;           // first failed check, empty when ok
};

// Checks one framed response. `head` is the header block including the final
// CRLF CRLF, `body` the entity. Returns the failed check, or empty.
std::string check_response(const PlannedRequest& req, std::string_view head,
                           std::string_view body,
                           const tempest::server::StaticStore& store);

// Value of header `name` in a raw header block (case-insensitive), or empty.
std::string_view header_value(std::string_view block, std::string_view name);

// Request id carried in the bench-added X-Bench-Id header, or -1.
long bench_id(std::string_view raw);

struct GeneratorStats {
  double cpu_s = 0.0;           // generator thread CPU (CLOCK_THREAD_CPUTIME_ID)
  long vcsw = 0;                // its voluntary context switches
  long ivcsw = 0;               // its involuntary context switches
  std::vector<double> late_s;   // per request: release time minus due time
  bool timed_out = false;       // hard deadline hit before every response
};

// Submits `plan` through `server.submit` from the calling thread, open loop:
// each request is released at its due time. With `ordered`, a released
// request waits until its browser's previous response is back and carries
// the browser's session cookie; otherwise it is submitted at once. A
// bench-owned ResponseWriter stamps completion and checks the payload. Fills
// `records` (indexed like plan.requests) and blocks until every response
// arrived or the deadline passed.
GeneratorStats run_load(const Plan& plan, bool ordered,
                        tempest::server::WebServer& server,
                        Clock::time_point start, double hard_deadline_s,
                        const tempest::server::StaticStore& store,
                        std::vector<Record>& records);

// --- Tracing (the --trace 1 run) ---------------------------------------------

// Everything the tracing wrappers record. Residence is written once per
// request by the pool thread that answers it and read after the server has
// shut down (its threads joined).
struct TraceSink {
  explicit TraceSink(std::size_t requests) : residence_ns(requests) {
    for (auto& r : residence_ns) r.store(-1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<std::int64_t>> residence_ns;

  std::mutex mu;  // guards the handler vectors
  std::vector<double> handler_quick_s;
  std::vector<double> handler_lengthy_s;
  std::atomic<std::uint64_t> statements{0};
  std::atomic<std::uint64_t> handler_calls{0};
};

// WebServer decorator: stamps submit, wraps the ResponseWriter to stamp the
// hand-back, and forwards to the real server.
class TracedServer : public tempest::server::WebServer {
 public:
  TracedServer(tempest::server::WebServer& inner, TraceSink& sink)
      : inner_(inner), sink_(sink) {}
  void submit(tempest::server::IncomingRequest request) override;
  void shutdown() override { inner_.shutdown(); }

 private:
  tempest::server::WebServer& inner_;
  TraceSink& sink_;
};

// A copy of `app` whose every route handler is wrapped to time the handler
// and count the statements it ran on its connection.
std::shared_ptr<const tempest::server::Application> traced_application(
    const tempest::server::Application& app, TraceSink& sink);

}  // namespace perfbench
