// The two workloads and the deterministic request plans they replay.
#pragma once

#include <cstdint>

#include "perfbench/perfbench.h"
#include "src/tpcw/schema.h"

namespace perfbench {

struct WorkloadSpec {
  bool ordering = false;  // logged-in ordering mix, sessions and caches on;
                          // false = anonymous browsing mix with each page's
                          // embedded images, caches off
  double rate_rps = 0.0;  // open-loop Poisson arrivals per wall second
  // Emulated browsers of the ordering mix: each carries its own requests one
  // at a time, in plan order, under its session cookie. 0 = every request
  // is independent and submitted at its due time.
  std::size_t browsers = 0;
  tempest::tpcw::Scale scale;
};

// The plan for `spec` at `seed`: rate_rps * seconds requests with their due
// times, browsers and targets. The same arguments always give the same plan
// (and digest).
Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

}  // namespace perfbench
