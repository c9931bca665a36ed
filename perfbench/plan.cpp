#include "perfbench/plan.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"
#include "src/tpcw/mix.h"

namespace perfbench {

namespace {

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Requests per logged-in user session on the ordering mix.
constexpr std::size_t kSessionRequests = 50;

}  // namespace

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  const auto count = static_cast<std::size_t>(
      std::llround(std::max(1.0, spec.rate_rps * seconds)));
  Plan plan;
  plan.requests.reserve(count);

  // Targets in arrival order; a browsing interaction is its page followed by
  // the page's embedded images. Due times, paths and classes come after.
  tempest::Rng urls(seed * 0x9e3779b97f4a7c15ull + 1);
  const std::size_t browsers = std::max<std::size_t>(1, spec.browsers);
  std::size_t interaction = 0;
  auto add = [&](std::uint32_t browser, std::string target) {
    PlannedRequest req;
    req.browser = browser;
    req.target = std::move(target);
    plan.requests.push_back(std::move(req));
  };
  while (plan.requests.size() < count) {
    const std::size_t i = plan.requests.size();
    if (spec.ordering) {
      // Each browser's user session lasts kSessionRequests requests; then it
      // logs in afresh as the next customer, so carts and orders spread over
      // the population and no two browsers share a customer at once.
      const auto browser = static_cast<std::uint32_t>(i % browsers);
      const std::size_t on_browser = i / browsers;
      const std::size_t session = on_browser / kSessionRequests;
      const std::int64_t c_id =
          static_cast<std::int64_t>((session * browsers + browser) %
                                    static_cast<std::size_t>(
                                        spec.scale.customers)) +
          1;
      add(browser, on_browser % kSessionRequests == 0
                       ? tempest::tpcw::build_login_url(c_id)
                       : tempest::tpcw::build_url(
                             tempest::tpcw::sample_page(
                                 urls, tempest::tpcw::ordering_mix()),
                             urls, spec.scale, c_id));
      continue;
    }
    const std::string& page =
        tempest::tpcw::sample_page(urls, tempest::tpcw::browsing_mix());
    // Distinct customers for interactions close in time, so no two requests
    // in flight at once touch the same cart.
    const std::int64_t c_id =
        static_cast<std::int64_t>(interaction % static_cast<std::size_t>(
                                                    spec.scale.customers)) +
        1;
    ++interaction;
    add(0, tempest::tpcw::build_url(page, urls, spec.scale, c_id));
    for (std::string& img : tempest::tpcw::embedded_images(page, urls)) {
      if (plan.requests.size() == count) break;
      add(0, std::move(img));
    }
  }

  tempest::Rng arrivals(seed);
  double t = 0.0;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (PlannedRequest& req : plan.requests) {
    t += arrivals.exponential(1.0 / spec.rate_rps);
    req.due_s = t;
    req.path = req.target.substr(0, req.target.find('?'));
    req.cls = classify(req.path);
    const auto due_ns = static_cast<std::int64_t>(std::llround(t * 1e9));
    h = fnv(h, &due_ns, sizeof(due_ns));
    h = fnv(h, &req.browser, sizeof(req.browser));
    h = fnv(h, req.target.data(), req.target.size() + 1);
  }
  plan.digest = h;
  return plan;
}

}  // namespace perfbench
