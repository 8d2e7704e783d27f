#include "analysis/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace pp {

election_summary summarize_election_results(
    const std::vector<election_result>& results) {
  election_summary summary;
  std::vector<double> steps;
  int stabilized = 0;
  for (const election_result& r : results) {
    if (r.stabilized) {
      ++stabilized;
      steps.push_back(static_cast<double>(r.steps));
    }
    summary.max_states_used =
        std::max(summary.max_states_used, static_cast<double>(r.distinct_states_used));
  }
  summary.stabilized_fraction =
      results.empty() ? 0.0 : static_cast<double>(stabilized) / static_cast<double>(results.size());
  if (!steps.empty()) summary.steps = summarize(steps);
  if (!results.empty()) summary.sample_leader = results.front().leader;
  return summary;
}

broadcast_summary measure_broadcast(const graph& g, const graph_family& family,
                                    int trials_per_source, int max_sources,
                                    rng seed_gen) {
  broadcast_summary s;
  s.measured = estimate_worst_case_broadcast_time(g, trials_per_source, max_sources,
                                                  seed_gen)
                   .value;
  s.shape = family.broadcast_shape(g);
  return s;
}

double bench_scale() {
  const char* raw = std::getenv("PP_BENCH_SCALE");
  if (raw == nullptr) return 1.0;
  const double v = std::atof(raw);
  return v > 0.0 ? v : 1.0;
}

}  // namespace pp
