#include "chaos/parallel.h"

#include <algorithm>

#include "common/executor.h"

namespace zenith::chaos {

// The pool machinery lives in common/executor.* (the model checker reuses
// it); these wrappers keep the chaos API.

std::size_t default_bench_threads() { return zenith::default_bench_threads(); }

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  zenith::parallel_for(n, threads, body);
}

ParallelRunner::ParallelRunner(std::size_t threads)
    : threads_(std::max<std::size_t>(1, threads)) {}

std::vector<CampaignResult> ParallelRunner::run_campaigns(
    const std::vector<CampaignConfig>& configs) const {
  std::vector<CampaignResult> results(configs.size());
  parallel_for(configs.size(), threads_, [&](std::size_t i) {
    ChaosCampaign campaign(configs[i]);
    results[i] = campaign.run();
  });
  return results;
}

}  // namespace zenith::chaos
