#include "core/bounding.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/topk.h"

namespace subsel::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// `stop_at` value that asks min_utility for the whole sum: no comparison
/// with NaN holds.
constexpr double kFullSum = kNaN;

ThreadPool& pool_or_global(ThreadPool* pool) {
  return pool != nullptr ? *pool : global_thread_pool();
}

/// Every pass splits its points into 4 chunks per worker, for load balance.
std::size_t pass_chunks(const BoundingConfig& config) {
  return std::max<std::size_t>(1, pool_or_global(config.pool).size() * 4);
}

/// Runs body(chunk, v, edges_of_v) for every v in `ids`, in pass_chunks()
/// contiguous chunks on the pool. The ids of the first `prefetch_depth`
/// chunks go to GroundSet::prefetch first as async page-in hints (no-op for
/// resident sets): the hint tasks precede the pass chunks in the pool queue,
/// so an out-of-core backend does the pass's leading block I/O batched and in
/// file order.
template <typename Body>
void parallel_pass(const GroundSet& ground_set, std::span<const NodeId> ids,
                   const BoundingConfig& config, Body&& body) {
  if (ids.empty()) return;
  ThreadPool& workers = pool_or_global(config.pool);
  const std::size_t num_chunks = pass_chunks(config);
  const std::size_t chunk = (ids.size() + num_chunks - 1) / num_chunks;
  if (config.prefetch_depth > 0) {
    const std::size_t hint_end =
        std::min(ids.size(), chunk * std::min(config.prefetch_depth, num_chunks));
    ground_set.prefetch(ids.first(hint_end), &workers);
  }
  workers.parallel_for(num_chunks, [&](std::size_t c) {
    const std::size_t begin = std::min(ids.size(), c * chunk);
    const std::size_t end = std::min(ids.size(), begin + chunk);
    std::vector<graph::Edge> scratch;
    for (std::size_t i = begin; i < end; ++i) {
      body(c, ids[i], ground_set.neighbors_span(ids[i], scratch));
    }
  });
}

/// Umax(v) (Def. 4.2): u(v) minus the terms of v's selected neighbors, summed
/// in edge order.
double max_utility(double u, std::span<const graph::Edge> edges,
                   const SelectionState& state, double pair_scale) {
  double bound = u;
  for (const graph::Edge& e : edges) {
    if (state.is_selected(e.neighbor)) bound -= pair_scale * e.weight;
  }
  return bound;
}

/// Umin(v) (Def. 4.1), or Uexp(v) under sampling (Def. 4.5), summed in edge
/// order. Returns the partial sum as soon as it is <= stop_at: every term is
/// >= 0, so under round-to-nearest the rest of the sum cannot rise above it.
double min_utility(NodeId v, double u, std::span<const graph::Edge> edges,
                   const SelectionState& state, const BoundingConfig& config,
                   std::uint64_t round_salt, double stop_at) {
  const double pair_scale = config.objective.pair_scale();
  const bool sampling = config.sampling != BoundingSampling::kNone;

  // Weighted sampling normalizes by the mean similarity over the *live*
  // (non-discarded) neighborhood, which is what the distributed joins in
  // beam/ can observe — keeping both implementations bit-identical.
  double mean_weight = 0.0;
  if (config.sampling == BoundingSampling::kWeighted) {
    std::size_t live = 0;
    for (const graph::Edge& e : edges) {
      if (state.state(e.neighbor) != PointState::kDiscarded) {
        mean_weight += e.weight;
        ++live;
      }
    }
    if (live > 0) mean_weight /= static_cast<double>(live);
  }

  double bound = u;
  for (const graph::Edge& e : edges) {
    switch (state.state(e.neighbor)) {
      case PointState::kSelected:
        break;  // neighbors in S′ are always counted
      case PointState::kUnassigned:
        if (sampling && !detail::sample_neighbor(config, round_salt, v, e.neighbor,
                                                 e.weight, mean_weight)) {
          continue;
        }
        break;
      case PointState::kDiscarded:
        continue;  // removed from the ground set; affects neither bound
    }
    bound -= pair_scale * e.weight;
    if (bound <= stop_at) return bound;
  }
  return bound;
}

/// What one bounding run keeps across its passes.
struct PassCache {
  /// Umax of every unassigned point, bit-identical to a full recompute.
  std::vector<double> u_max;
  /// The copy a threshold is selected from; reused by every pass.
  std::vector<double> threshold_scratch;
};

/// The k-th largest of `values` over the unassigned points (U^k_max from
/// Umax, U^k_min from Umin), selected from one copy.
double unassigned_kth_largest(const SelectionState& state,
                              const std::vector<double>& values, std::size_t k,
                              std::vector<double>& scratch) {
  scratch.clear();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (state.is_unassigned(static_cast<NodeId>(i))) scratch.push_back(values[i]);
  }
  return kth_largest_in_place(scratch, k);
}

/// Fills the Umax cache with one full pass. That pass reads every edge, so it
/// also checks what the pruned Grow relies on: every term (β/α)·w is >= 0.
/// Throws std::invalid_argument from the calling thread otherwise.
PassCache fill_cache(const GroundSet& ground_set, const SelectionState& state,
                     const BoundingConfig& config) {
  config.objective.validate();  // rejects β < 0
  const std::size_t n = ground_set.num_points();
  const double pair_scale = config.objective.pair_scale();
  PassCache cache;
  cache.u_max.assign(n, kNaN);
  // Chunks cover ascending ids, so each chunk's first hit is its smallest.
  std::vector<std::size_t> first_negative(pass_chunks(config), n);
  parallel_pass(ground_set, state.unassigned_ids(), config,
                [&](std::size_t c, NodeId v, std::span<const graph::Edge> edges) {
                  cache.u_max[static_cast<std::size_t>(v)] =
                      max_utility(ground_set.utility(v), edges, state, pair_scale);
                  const bool negative =
                      std::any_of(edges.begin(), edges.end(),
                                  [](const graph::Edge& e) { return e.weight < 0.0f; });
                  if (negative && first_negative[c] == n) first_negative[c] = v;
                });
  const std::size_t negative =
      *std::min_element(first_negative.begin(), first_negative.end());
  if (negative < n) {
    throw std::invalid_argument("bounding: negative edge weight at point " +
                                std::to_string(negative));
  }
  return cache;
}

/// Grow (Alg. 3) on the cached Umax. Only points whose Umax is above U^k_max
/// can have Uexp above it, so only those are evaluated, each until its sum
/// falls to the threshold. Afterwards the Umax of the selected points'
/// unassigned neighbors is recomputed; no other Umax changed, because the
/// neighborhood relation is symmetric.
std::size_t grow_pass(const GroundSet& ground_set, SelectionState& state,
                      std::size_t& k_remaining, const BoundingConfig& config,
                      std::uint64_t round_salt, PassCache& cache) {
  if (k_remaining == 0) return 0;
  // Threshold = U^k_max, the k-th largest maximum utility (Alg. 3).
  const double threshold =
      unassigned_kth_largest(state, cache.u_max, k_remaining, cache.threshold_scratch);

  std::vector<NodeId> evaluated;
  for (std::size_t i = 0; i < cache.u_max.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (state.is_unassigned(v) && cache.u_max[i] > threshold) evaluated.push_back(v);
  }
  std::vector<std::vector<NodeId>> chunk_candidates(pass_chunks(config));
  parallel_pass(ground_set, evaluated, config,
                [&](std::size_t c, NodeId v, std::span<const graph::Edge> edges) {
                  if (min_utility(v, ground_set.utility(v), edges, state, config,
                                  round_salt, threshold) > threshold) {
                    chunk_candidates[c].push_back(v);
                  }
                });
  // Chunks are contiguous runs of ascending ids, so the candidates are too.
  std::vector<NodeId> candidates;
  for (const std::vector<NodeId>& part : chunk_candidates) {
    candidates.insert(candidates.end(), part.begin(), part.end());
  }
  // Approximate bounding can over-grow; keep a uniform subsample of the right
  // size (Sec. 4.2). Exact bounding never exceeds k (Lemma 4.3).
  if (candidates.size() > k_remaining) {
    Rng rng(hash_combine(config.seed, round_salt ^ 0x6772ULL));
    rng.shuffle(std::span<NodeId>(candidates));
    candidates.resize(k_remaining);
  }
  for (NodeId v : candidates) state.select(v);
  k_remaining -= candidates.size();

  std::vector<NodeId> dirty;
  std::vector<graph::Edge> scratch;
  for (NodeId v : candidates) {
    for (const graph::Edge& e : ground_set.neighbors_span(v, scratch)) {
      if (state.is_unassigned(e.neighbor)) dirty.push_back(e.neighbor);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const double pair_scale = config.objective.pair_scale();
  parallel_pass(ground_set, dirty, config,
                [&](std::size_t, NodeId v, std::span<const graph::Edge> edges) {
                  cache.u_max[static_cast<std::size_t>(v)] =
                      max_utility(ground_set.utility(v), edges, state, pair_scale);
                });
  return candidates.size();
}

/// Shrink (Alg. 4). U^k_min needs every Uexp, so this is a full pass. The Umax
/// it writes into the cache are the values already there: Shrink changes no
/// Umax, because discarded neighbors count in neither bound.
std::size_t shrink_pass(const GroundSet& ground_set, SelectionState& state,
                        std::size_t k_remaining, const BoundingConfig& config,
                        std::uint64_t round_salt, PassCache& cache) {
  std::vector<double> u_min;
  detail::compute_utility_bounds(ground_set, state, config, round_salt, u_min,
                                 cache.u_max);

  // Threshold = U^k_min, the k-th largest minimum utility (Alg. 4). With
  // k_remaining == 0 the threshold is +inf and every unassigned point is
  // discarded — the subset is already complete.
  const double threshold =
      unassigned_kth_largest(state, u_min, k_remaining, cache.threshold_scratch);

  std::size_t discarded = 0;
  for (std::size_t i = 0; i < cache.u_max.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (state.is_unassigned(v) && cache.u_max[i] < threshold) {
      state.discard(v);
      ++discarded;
    }
  }
  assert(state.num_unassigned() >= k_remaining);
  return discarded;
}

}  // namespace

namespace detail {

bool sample_neighbor(const BoundingConfig& config, std::uint64_t round_salt, NodeId v,
                     NodeId neighbor, float weight, double mean_weight) {
  double probability;
  switch (config.sampling) {
    case BoundingSampling::kNone:
      return true;
    case BoundingSampling::kUniform:
      probability = config.sample_fraction;
      break;
    case BoundingSampling::kWeighted:
      // Inclusion probability proportional to the edge similarity, normalized
      // by the neighborhood mean so the expected sampled count stays p·deg.
      probability = mean_weight > 0.0
                        ? config.sample_fraction * static_cast<double>(weight) /
                              mean_weight
                        : config.sample_fraction;
      probability = std::min(probability, 1.0);
      break;
    default:
      return true;
  }
  const std::uint64_t h = hash_combine(
      hash_combine(hash_combine(config.seed, round_salt),
                   static_cast<std::uint64_t>(v)),
      static_cast<std::uint64_t>(neighbor));
  return hash_to_unit(h) < probability;
}

void compute_utility_bounds(const GroundSet& ground_set, const SelectionState& state,
                            const BoundingConfig& config, std::uint64_t round_salt,
                            std::vector<double>& u_min, std::vector<double>& u_max) {
  const std::size_t n = ground_set.num_points();
  u_min.assign(n, kNaN);
  u_max.assign(n, kNaN);
  const double pair_scale = config.objective.pair_scale();
  parallel_pass(ground_set, state.unassigned_ids(), config,
                [&](std::size_t, NodeId v, std::span<const graph::Edge> edges) {
                  const double u = ground_set.utility(v);
                  const auto i = static_cast<std::size_t>(v);
                  u_min[i] = min_utility(v, u, edges, state, config, round_salt, kFullSum);
                  u_max[i] = max_utility(u, edges, state, pair_scale);
                });
}

}  // namespace detail

std::size_t grow_step(const GroundSet& ground_set, SelectionState& state,
                      std::size_t& k_remaining, const BoundingConfig& config,
                      std::uint64_t round_salt) {
  PassCache cache = fill_cache(ground_set, state, config);
  return grow_pass(ground_set, state, k_remaining, config, round_salt, cache);
}

std::size_t shrink_step(const GroundSet& ground_set, SelectionState& state,
                        std::size_t k_remaining, const BoundingConfig& config,
                        std::uint64_t round_salt) {
  PassCache cache;  // the pass fills it
  return shrink_pass(ground_set, state, k_remaining, config, round_salt, cache);
}

BoundingResult bound(const GroundSet& ground_set, std::size_t k,
                     const BoundingConfig& config) {
  const std::size_t n = ground_set.num_points();
  BoundingResult result;
  result.state = SelectionState(n);
  result.k_remaining = std::min(k, n);
  if (result.k_remaining == 0) return result;

  PassCache cache = fill_cache(ground_set, result.state, config);
  std::uint64_t salt = 0;
  std::size_t total_rounds = 0;
  bool first_pass = true;

  // When the surviving ground set is exactly as large as the open budget,
  // every remaining point must be selected (shrink only removes points that
  // are provably outside S*, so the survivors are the subset). The strict
  // inequality in Lemma 4.3 alone can never certify the k-th point (ties with
  // its own threshold), so without this rule bounding stalls one point short
  // on instances it has in fact solved, e.g. k == |V| or edge-free graphs.
  auto complete_if_tight = [&result]() {
    if (result.k_remaining == 0 ||
        result.state.num_unassigned() != result.k_remaining) {
      return false;
    }
    for (NodeId v : result.state.unassigned_ids()) result.state.select(v);
    result.k_remaining = 0;
    return true;
  };

  // Alternate shrink-to-convergence and grow-to-convergence (Alg. 5). The
  // fixed point is detected without redundant passes: when a whole grow loop
  // changes nothing, the state is identical to the one the preceding shrink
  // loop already certified; and when a later shrink loop changes nothing, the
  // preceding grow loop's final no-change pass still holds. This matches the
  // round counts reported in Table 2.
  // Deadline between passes: every grow/shrink decision is monotone and
  // individually sound, so stopping at any pass boundary leaves a valid
  // (merely less-tightened) state for the solver to finish from.
  auto out_of_time = [&result, &config]() {
    if (!config.deadline.expired()) return false;
    result.degraded = true;
    return true;
  };

  for (;;) {
    std::size_t shrink_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.shrink_rounds;
      const std::size_t changed =
          shrink_pass(ground_set, result.state, result.k_remaining, config, ++salt,
                      cache);
      shrink_changes += changed;
      if (changed == 0 || ++total_rounds >= config.max_rounds) break;
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (!first_pass && shrink_changes == 0) break;
    if (result.k_remaining == 0 || total_rounds >= config.max_rounds) break;

    std::size_t grow_changes = 0;
    for (;;) {
      if (out_of_time()) break;
      ++result.grow_rounds;
      const std::size_t changed =
          grow_pass(ground_set, result.state, result.k_remaining, config, ++salt,
                    cache);
      grow_changes += changed;
      if (changed == 0 || result.k_remaining == 0 ||
          ++total_rounds >= config.max_rounds) {
        break;
      }
    }
    if (complete_if_tight()) break;
    if (result.degraded) break;
    if (grow_changes == 0 || result.k_remaining == 0 ||
        total_rounds >= config.max_rounds) {
      break;
    }
    first_pass = false;
  }

  result.included = result.state.num_selected();
  result.excluded = result.state.num_discarded();
  return result;
}

}  // namespace subsel::core
