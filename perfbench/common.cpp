#include <cctype>
#include <cstdlib>
#include <map>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/db/connection.h"

namespace perfbench {

namespace ts = tempest::server;

Cls classify(std::string_view path) {
  if (path.starts_with("/img/")) return Cls::kStatic;
  if (path == "/best_sellers" || path == "/new_products" ||
      path == "/execute_search" || path == "/admin_response") {
    return Cls::kLengthy;
  }
  return Cls::kQuick;
}

namespace {

// Text every rendering of the page's template contains, whatever its data.
std::string_view page_marker(std::string_view path) {
  static const std::map<std::string_view, std::string_view> kMarkers = {
      {"/home", "<title>TPC-W Home</title>"},
      {"/new_products", "<title>New Products: "},
      {"/best_sellers", "<title>Best Sellers: "},
      {"/product_detail", "value=\"Add to cart\""},
      {"/search_request", "<title>Search</title>"},
      {"/execute_search", "<title>Search results</title>"},
      {"/shopping_cart", "<title>Shopping Cart</title>"},
      {"/customer_registration", "<title>Customer Registration</title>"},
      {"/buy_request", "<title>Checkout</title>"},
      {"/buy_confirm", "<title>Order Confirmed</title>"},
      {"/order_inquiry", "<title>Order Inquiry</title>"},
      {"/order_display", "<title>Order Status</title>"},
      {"/admin_request", "<title>Admin: Edit Item</title>"},
      {"/admin_response", "<title>Admin: Item Updated</title>"},
      // A login that succeeded, not the sign-in form shown on a bad password.
      {"/login", "You are signed in as customer #"},
  };
  const auto it = kMarkers.find(path);
  return it == kMarkers.end() ? std::string_view{} : it->second;
}

}  // namespace

std::string_view header_value(std::string_view block, std::string_view name) {
  for (std::size_t pos = block.find("\r\n"); pos != std::string_view::npos;) {
    pos += 2;
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    if (line.size() > name.size() && line[name.size()] == ':') {
      bool match = true;
      for (std::size_t i = 0; i < name.size() && match; ++i) {
        match = std::tolower(static_cast<unsigned char>(line[i])) ==
                std::tolower(static_cast<unsigned char>(name[i]));
      }
      if (match) {
        std::string_view value = line.substr(name.size() + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        return value;
      }
    }
    if (eol >= block.size()) break;
    pos = eol;
  }
  return {};
}

long bench_id(std::string_view raw) {
  const std::string_view head = raw.substr(0, raw.find("\r\n\r\n"));
  const std::string_view id = header_value(head, "X-Bench-Id");
  if (id.empty()) return -1;
  return std::strtol(std::string(id).c_str(), nullptr, 10);
}

std::string check_response(const PlannedRequest& req, std::string_view head,
                           std::string_view body,
                           const ts::StaticStore& store) {
  if (!head.starts_with("HTTP/1.1 ") || !head.ends_with("\r\n\r\n")) {
    return "bad status line or header block";
  }
  const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
  if (status < 200 || status >= 300) return "status " + std::to_string(status);
  const std::string_view length = header_value(head, "Content-Length");
  if (length.empty() ||
      std::strtoull(std::string(length).c_str(), nullptr, 10) != body.size()) {
    return "Content-Length does not match the body";
  }
  if (req.cls == Cls::kStatic) {
    const ts::StaticStore::Entry* entry = store.find(req.path);
    if (entry == nullptr || entry->content->size() != body.size()) {
      return "static body length differs from the store entry";
    }
    return {};
  }
  const std::string_view marker = page_marker(req.path);
  if (marker.empty() || body.find(marker) == std::string_view::npos) {
    return "page marker missing for " + req.path;
  }
  if (req.path == "/login" && header_value(head, "Set-Cookie").empty()) {
    return "login issued no session cookie";
  }
  return {};
}

// --- Tracing wrappers ----------------------------------------------------------

namespace {

class TracedWriter : public ts::ResponseWriter {
 public:
  TracedWriter(std::shared_ptr<ts::ResponseWriter> inner, TraceSink& sink,
               long id, Clock::time_point submitted)
      : inner_(std::move(inner)), sink_(sink), id_(id), submitted_(submitted) {}

  void send(ts::OutboundPayload payload) override {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - submitted_)
                        .count();
    if (id_ >= 0 && static_cast<std::size_t>(id_) < sink_.residence_ns.size()) {
      sink_.residence_ns[static_cast<std::size_t>(id_)].store(
          ns, std::memory_order_relaxed);
    }
    inner_->send(std::move(payload));
  }

 private:
  std::shared_ptr<ts::ResponseWriter> inner_;
  TraceSink& sink_;
  const long id_;
  const Clock::time_point submitted_;
};

}  // namespace

void TracedServer::submit(ts::IncomingRequest request) {
  const Clock::time_point submitted = Clock::now();
  const long id = bench_id(request.raw);
  request.writer = std::make_shared<TracedWriter>(std::move(request.writer),
                                                  sink_, id, submitted);
  inner_.submit(std::move(request));
}

std::shared_ptr<const ts::Application> traced_application(
    const ts::Application& app, TraceSink& sink) {
  auto traced = std::make_shared<ts::Application>();
  traced->static_store = app.static_store;
  traced->templates = app.templates;
  for (const std::string& path : app.router.paths()) {
    const bool lengthy = classify(path) == Cls::kLengthy;
    ts::Handler inner = *app.router.find(path);
    ts::Handler wrapped = [inner = std::move(inner), &sink,
                           lengthy](ts::HandlerContext& ctx) {
      const std::uint64_t before =
          ctx.db != nullptr ? ctx.db->statements_executed() : 0;
      const Clock::time_point t0 = Clock::now();
      ts::HandlerResult result = inner(ctx);
      const double took = seconds_between(t0, Clock::now());
      if (ctx.db != nullptr) {
        sink.statements.fetch_add(ctx.db->statements_executed() - before,
                                  std::memory_order_relaxed);
      }
      sink.handler_calls.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(sink.mu);
      (lengthy ? sink.handler_lengthy_s : sink.handler_quick_s).push_back(took);
      return result;
    };
    if (const ts::CachePolicy* policy = app.router.cache_policy(path)) {
      traced->router.add(path, std::move(wrapped), *policy);
    } else {
      traced->router.add(path, std::move(wrapped));
    }
  }
  return traced;
}

}  // namespace perfbench
