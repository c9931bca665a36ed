// The open-loop load generator. It runs on the calling thread, releases each
// request at its due time (a timer with 1 ns slack) and records how late the
// release ran. A request's latency is timed from its release, so a wait
// behind its browser's previous request is charged to it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <condition_variable>
#include <deque>
#include <utility>

#include "perfbench/perfbench.h"

namespace perfbench {

namespace ts = tempest::server;

namespace {

double thread_cpu_s() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

// Captures the generator thread's own CPU and context switches, so they can
// be taken out of the process totals.
class GeneratorAccounting {
 public:
  GeneratorAccounting() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    cpu0_ = thread_cpu_s();
    ::getrusage(RUSAGE_THREAD, &ru0_);
  }
  void finish(GeneratorStats& stats) const {
    stats.cpu_s = thread_cpu_s() - cpu0_;
    rusage ru{};
    ::getrusage(RUSAGE_THREAD, &ru);
    stats.vcsw = ru.ru_nvcsw - ru0_.ru_nvcsw;
    stats.ivcsw = ru.ru_nivcsw - ru0_.ru_nivcsw;
  }

 private:
  double cpu0_ = 0.0;
  rusage ru0_{};
};

Clock::time_point at(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

// Shared by the generator thread and the server's pool threads, which hand
// each response to complete(). Every outstanding writer co-owns it, so a
// response that arrives after the deadline still finds it alive.
class Load {
 public:
  Load(const Plan& plan, bool ordered, Clock::time_point start,
       const ts::StaticStore& store, std::vector<Record>& records)
      : plan_(plan),
        ordered_(ordered),
        start_(start),
        store_(store),
        records_(records) {
    std::size_t browsers = 1;
    for (const PlannedRequest& req : plan.requests) {
      browsers = std::max<std::size_t>(browsers, req.browser + 1);
    }
    browsers_.resize(browsers);
  }

  GeneratorStats run(const std::shared_ptr<Load>& self, ts::WebServer& server,
                     double hard_deadline_s);

  // Runs on a pool thread; each request's record is written by exactly one
  // call.
  void complete(std::size_t id, const ts::OutboundPayload& payload) {
    Record& r = records_[id];
    r.done_s = seconds_between(start_, Clock::now());
    if (payload.chunked()) {
      std::string body;
      for (const auto& chunk : payload.body_chunks) body.append(chunk.bytes);
      r.why = check_response(plan_.requests[id], payload.head, body, store_);
    } else {
      r.why = check_response(plan_.requests[id], payload.head, payload.body(),
                             store_);
    }
    r.ok = r.why.empty();
    const std::string_view set_cookie = header_value(payload.head, "Set-Cookie");
    std::lock_guard lock(mu_);
    ++done_;
    if (ordered_) {
      const std::uint32_t b = plan_.requests[id].browser;
      if (!set_cookie.empty()) {
        browsers_[b].cookie.assign(set_cookie.substr(0, set_cookie.find(';')));
      }
      freed_.push_back(b);
    }
    if (ordered_ || done_ == plan_.requests.size()) cv_.notify_one();
  }

 private:
  struct Browser {
    std::deque<std::size_t> queue;  // released, waiting for the one in flight
    bool busy = false;
    std::string cookie;  // "name=value" from its last login's Set-Cookie
  };

  double since_start() const { return seconds_between(start_, Clock::now()); }

  const Plan& plan_;
  const bool ordered_;
  const Clock::time_point start_;
  const ts::StaticStore& store_;
  std::vector<Record>& records_;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::vector<Browser> browsers_;
  std::vector<std::uint32_t> freed_;  // browsers whose response came back
  std::size_t done_ = 0;
};

class CollectingWriter : public ts::ResponseWriter {
 public:
  CollectingWriter(std::shared_ptr<Load> load, std::size_t id)
      : load_(std::move(load)), id_(id) {}
  void send(ts::OutboundPayload payload) override {
    load_->complete(id_, payload);
  }

 private:
  const std::shared_ptr<Load> load_;
  const std::size_t id_;
};

GeneratorStats Load::run(const std::shared_ptr<Load>& self,
                         ts::WebServer& server, double hard_deadline_s) {
  // The generator runs server code (the header-pool enqueue) in each submit,
  // at default priority, like the transport threads it stands in for.
  GeneratorAccounting accounting;
  GeneratorStats stats;
  const std::size_t total = plan_.requests.size();
  stats.late_s.reserve(total);
  std::size_t next = 0;
  std::vector<std::uint32_t> touched;
  std::vector<std::pair<std::size_t, std::string>> to_send;  // id, cookie
  std::string raw;

  std::unique_lock lock(mu_);
  while (done_ < total) {
    const double now = since_start();
    if (now > hard_deadline_s) {
      stats.timed_out = true;
      break;
    }
    for (const std::uint32_t b : freed_) {
      browsers_[b].busy = false;
      touched.push_back(b);
    }
    freed_.clear();
    for (; next < total && plan_.requests[next].due_s <= now; ++next) {
      const PlannedRequest& req = plan_.requests[next];
      stats.late_s.push_back(now - req.due_s);
      records_[next].released_s = now;
      if (ordered_) {
        browsers_[req.browser].queue.push_back(next);
        touched.push_back(req.browser);
      } else {
        to_send.emplace_back(next, std::string());
      }
    }
    for (const std::uint32_t b : touched) {
      Browser& browser = browsers_[b];
      if (browser.busy || browser.queue.empty()) continue;
      const std::size_t id = browser.queue.front();
      browser.queue.pop_front();
      browser.busy = true;
      // A login starts a new user session, as a fresh browser would.
      if (plan_.requests[id].path == "/login") browser.cookie.clear();
      to_send.emplace_back(id, browser.cookie);
    }
    touched.clear();
    if (!to_send.empty()) {
      lock.unlock();
      for (const auto& [id, cookie] : to_send) {
        raw.clear();
        // X-Bench-Id lets the traced server match its residence to the
        // request.
        raw.append("GET ").append(plan_.requests[id].target);
        raw.append(" HTTP/1.1\r\nHost: perfbench\r\nX-Bench-Id: ");
        raw.append(std::to_string(id)).append("\r\n");
        if (!cookie.empty()) raw.append("Cookie: ").append(cookie).append("\r\n");
        raw.append("\r\n");
        records_[id].sent_s = since_start();
        server.submit({raw, std::make_shared<CollectingWriter>(self, id),
                       tempest::WallClock::now()});
      }
      to_send.clear();
      lock.lock();
      continue;
    }
    const Clock::time_point wake =
        at(start_, next < total ? plan_.requests[next].due_s : hard_deadline_s);
    cv_.wait_until(lock, wake,
                   [&] { return !freed_.empty() || done_ == total; });
  }
  lock.unlock();
  // Records of late responses are left to the caller, which reads them only
  // after shutting the server down.
  accounting.finish(stats);
  return stats;
}

}  // namespace

GeneratorStats run_load(const Plan& plan, bool ordered, ts::WebServer& server,
                        Clock::time_point start, double hard_deadline_s,
                        const ts::StaticStore& store,
                        std::vector<Record>& records) {
  auto load = std::make_shared<Load>(plan, ordered, start, store, records);
  return load->run(load, server, hard_deadline_s);
}

}  // namespace perfbench
