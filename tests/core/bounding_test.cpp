#include "core/bounding.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "../testing/property.h"
#include "../testing/test_instances.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/topk.h"
#include "core/greedy.h"

namespace subsel::core {
namespace {

using testing::Instance;
using testing::brute_force_optimum;
using testing::random_instance;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BoundingConfig exact_config(double alpha) {
  BoundingConfig config;
  config.objective = ObjectiveParams::from_alpha(alpha);
  config.sampling = BoundingSampling::kNone;
  return config;
}

TEST(UtilityBounds, MatchDefinitionsOnHandInstance) {
  // Path 0 - 1 - 2 (weights 0.5, 0.25), utilities 1, 2, 3; alpha=beta=0.5
  // so pair_scale = 1.
  std::vector<graph::NeighborList> lists(3);
  lists[0].edges = {{1, 0.5f}};
  lists[1].edges = {{2, 0.25f}};
  Instance instance;
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  instance.utilities = {1.0, 2.0, 3.0};
  const auto ground_set = instance.ground_set();

  BoundingConfig config = exact_config(0.5);
  SelectionState state(3);
  std::vector<double> u_min, u_max;
  detail::compute_utility_bounds(ground_set, state, config, 1, u_min, u_max);
  // No partial solution: Umax = u; Umin subtracts all neighbors.
  EXPECT_NEAR(u_min[0], 1.0 - 0.5, 1e-6);
  EXPECT_NEAR(u_min[1], 2.0 - 0.75, 1e-6);
  EXPECT_NEAR(u_min[2], 3.0 - 0.25, 1e-6);
  EXPECT_DOUBLE_EQ(u_max[0], 1.0);
  EXPECT_DOUBLE_EQ(u_max[1], 2.0);
  EXPECT_DOUBLE_EQ(u_max[2], 3.0);

  // Select 2, discard 0: point 1's Umin no longer counts 0's edge but still
  // counts 2's (selected neighbors always count); Umax now counts 2's edge.
  state.select(2);
  state.discard(0);
  detail::compute_utility_bounds(ground_set, state, config, 2, u_min, u_max);
  EXPECT_TRUE(std::isnan(u_min[0]));
  EXPECT_TRUE(std::isnan(u_max[2]));
  EXPECT_NEAR(u_min[1], 2.0 - 0.25, 1e-6);
  EXPECT_NEAR(u_max[1], 2.0 - 0.25, 1e-6);
}

TEST(UtilityBounds, UminNeverExceedsUmax) {
  const Instance instance = random_instance(60, 5, 81);
  const auto ground_set = instance.ground_set();
  const BoundingConfig config = exact_config(0.5);
  SelectionState state(60);
  state.select(3);
  state.select(17);
  state.discard(40);
  std::vector<double> u_min, u_max;
  detail::compute_utility_bounds(ground_set, state, config, 1, u_min, u_max);
  for (std::size_t i = 0; i < 60; ++i) {
    if (!state.is_unassigned(static_cast<NodeId>(i))) continue;
    EXPECT_LE(u_min[i], u_max[i] + 1e-12);
  }
}

TEST(ExactBounding, NeverMakesWrongDecisionsVsBruteForce) {
  // Lemmas 4.3/4.4: exact bounding only selects points of the optimal set and
  // only discards points outside it (when the optimum is unique).
  for (std::uint64_t seed : {101, 102, 103, 104, 105, 106}) {
    const Instance instance = random_instance(12, 3, seed);
    const auto ground_set = instance.ground_set();
    const std::size_t k = 4;
    BoundingConfig config = exact_config(0.9);
    const auto result = bound(ground_set, k, config);

    std::vector<NodeId> optimal;
    brute_force_optimum(ground_set, config.objective, k, &optimal);
    for (NodeId v = 0; v < 12; ++v) {
      const bool in_optimal = std::binary_search(optimal.begin(), optimal.end(), v);
      if (result.state.is_selected(v)) {
        EXPECT_TRUE(in_optimal) << "seed " << seed << " selected non-optimal " << v;
      }
      if (result.state.is_discarded(v)) {
        EXPECT_FALSE(in_optimal) << "seed " << seed << " discarded optimal " << v;
      }
    }
  }
}

TEST(ExactBounding, CompletesOnIsolatedPoints) {
  // Without edges Umin == Umax == u, so bounding solves the problem outright:
  // top-k by utility selected, rest discarded.
  Instance instance;
  instance.graph =
      graph::SimilarityGraph::from_lists(std::vector<graph::NeighborList>(6));
  instance.utilities = {0.1, 0.6, 0.3, 0.9, 0.2, 0.5};
  const auto ground_set = instance.ground_set();
  const auto result = bound(ground_set, 3, exact_config(0.9));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 3u);
  EXPECT_EQ(result.state.selected_ids(), (std::vector<NodeId>{1, 3, 5}));
}

TEST(ExactBounding, ZeroBudgetIsImmediatelyComplete) {
  const Instance instance = random_instance(10, 2, 111);
  const auto ground_set = instance.ground_set();
  const auto result = bound(ground_set, 0, exact_config(0.9));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 0u);
  EXPECT_EQ(result.excluded, 0u);
}

TEST(ExactBounding, BudgetEqualToGroundSetSelectsEverything) {
  const Instance instance = random_instance(10, 2, 112);
  const auto ground_set = instance.ground_set();
  const auto result = bound(ground_set, 10, exact_config(0.9));
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.included, 10u);
  EXPECT_EQ(result.excluded, 0u);
}

TEST(ExactBounding, ReportsRoundCounts) {
  const Instance instance = random_instance(30, 4, 113);
  const auto ground_set = instance.ground_set();
  const auto result = bound(ground_set, 10, exact_config(0.9));
  // At minimum one shrink and one grow invocation happen (the convergence
  // checks themselves).
  EXPECT_GE(result.shrink_rounds, 1u);
  EXPECT_GE(result.grow_rounds, 1u);
}

TEST(ExactBounding, GreedyCompletionIsAtLeastAsGoodAsPlainGreedy) {
  // Exact bounding never removes optimal points, so greedy-after-bounding
  // should not be (materially) worse than plain centralized greedy.
  for (std::uint64_t seed : {121, 122, 123}) {
    const Instance instance = random_instance(40, 4, seed);
    const auto ground_set = instance.ground_set();
    const auto params = ObjectiveParams::from_alpha(0.9);
    const std::size_t k = 8;

    BoundingConfig config = exact_config(0.9);
    const auto bounding = bound(ground_set, k, config);

    std::vector<NodeId> members = bounding.state.unassigned_ids();
    auto sub = materialize_subproblem(ground_set, members, params, &bounding.state);
    auto completion = greedy_on_subproblem(sub, bounding.k_remaining, params);
    std::vector<NodeId> full = bounding.state.selected_ids();
    full.insert(full.end(), completion.selected.begin(), completion.selected.end());

    PairwiseObjective objective(ground_set, params);
    const double bounded_score = objective.evaluate(full);
    const double plain =
        centralized_greedy(instance.graph, instance.utilities, params, k).objective;
    // Not a theorem (greedy completion is heuristic), but empirically exact
    // bounding matches or beats plain greedy (Table 2); allow 2 % slack.
    EXPECT_GE(bounded_score, plain * 0.98) << "seed " << seed;
  }
}

TEST(ApproximateBounding, FullSamplingEqualsExactBounding) {
  // p = 1: every neighbor is sampled, so Uexp == Umin and the runs coincide.
  const Instance instance = random_instance(50, 5, 131);
  const auto ground_set = instance.ground_set();
  BoundingConfig exact = exact_config(0.9);
  BoundingConfig approx = exact;
  approx.sampling = BoundingSampling::kUniform;
  approx.sample_fraction = 1.0;

  const auto a = bound(ground_set, 10, exact);
  const auto b = bound(ground_set, 10, approx);
  EXPECT_EQ(a.included, b.included);
  EXPECT_EQ(a.excluded, b.excluded);
  EXPECT_EQ(a.state.selected_ids(), b.state.selected_ids());
  EXPECT_EQ(a.state.unassigned_ids(), b.state.unassigned_ids());
}

TEST(ApproximateBounding, MakesMoreDecisionsThanExact) {
  // Section 6.2: sampling raises Uexp above Umin, which both grows and
  // shrinks more aggressively.
  const Instance instance = random_instance(200, 8, 132);
  const auto ground_set = instance.ground_set();
  BoundingConfig exact = exact_config(0.9);
  BoundingConfig approx = exact;
  approx.sampling = BoundingSampling::kUniform;
  approx.sample_fraction = 0.3;

  const auto exact_result = bound(ground_set, 20, exact);
  const auto approx_result = bound(ground_set, 20, approx);
  EXPECT_GE(approx_result.included + approx_result.excluded,
            exact_result.included + exact_result.excluded);
}

TEST(ApproximateBounding, WeightedSamplingRespectsBudget) {
  const Instance instance = random_instance(100, 6, 133);
  const auto ground_set = instance.ground_set();
  BoundingConfig config = exact_config(0.9);
  config.sampling = BoundingSampling::kWeighted;
  config.sample_fraction = 0.3;
  const auto result = bound(ground_set, 15, config);
  EXPECT_LE(result.included, 15u);
  EXPECT_LE(result.k_remaining, 15u);
  EXPECT_EQ(result.included + result.k_remaining, 15u);
  // Shrinking must leave at least k candidates.
  EXPECT_GE(result.state.num_unassigned() + result.included, 15u);
}

TEST(ApproximateBounding, SamplingDecisionIsDeterministic) {
  BoundingConfig config = exact_config(0.5);
  config.sampling = BoundingSampling::kUniform;
  config.sample_fraction = 0.5;
  config.seed = 7;
  int included = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool a = detail::sample_neighbor(config, 3, 11, i, 0.5f, 0.5);
    const bool b = detail::sample_neighbor(config, 3, 11, i, 0.5f, 0.5);
    EXPECT_EQ(a, b);
    included += a;
  }
  EXPECT_NEAR(included, 500, 60);
}

TEST(ApproximateBounding, WeightedSamplingFavorsHeavyEdges) {
  BoundingConfig config = exact_config(0.5);
  config.sampling = BoundingSampling::kWeighted;
  config.sample_fraction = 0.4;
  int heavy = 0, light = 0;
  for (int i = 0; i < 2000; ++i) {
    heavy += detail::sample_neighbor(config, 1, 5, i, 0.9f, 0.5);
    light += detail::sample_neighbor(config, 1, 5, i + 10'000, 0.1f, 0.5);
  }
  EXPECT_GT(heavy, light * 3);
}

TEST(Bounding, SmallTargetTendsToExcludeLargeTargetTendsToInclude) {
  // Section 6.2's qualitative finding, on a larger random instance.
  const Instance instance = random_instance(400, 10, 134);
  const auto ground_set = instance.ground_set();
  BoundingConfig config = exact_config(0.9);
  config.sampling = BoundingSampling::kUniform;
  config.sample_fraction = 0.3;

  const auto small_target = bound(ground_set, 40, config);    // 10 %
  const auto large_target = bound(ground_set, 320, config);   // 80 %
  EXPECT_GT(small_target.excluded, small_target.included);
  EXPECT_GT(large_target.included, large_target.excluded);
}

// --- Pruned Grow and the Umax cache vs the unpruned algorithm -------------

/// Algorithm 5 without pruning or caching: every pass recomputes both bounds
/// of every unassigned point with detail::compute_utility_bounds, and the
/// thresholds come from kth_largest. The decisions bound() must reproduce
/// bit for bit.
BoundingResult reference_bound(const GroundSet& ground_set, std::size_t k,
                               const BoundingConfig& config) {
  BoundingResult result;
  result.state = SelectionState(ground_set.num_points());
  result.k_remaining = std::min(k, ground_set.num_points());
  if (result.k_remaining == 0) return result;
  SelectionState& state = result.state;
  std::vector<double> u_min, u_max;
  auto threshold_of = [&](const std::vector<double>& values) {
    std::vector<double> kept;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (state.is_unassigned(static_cast<NodeId>(i))) kept.push_back(values[i]);
    }
    return kth_largest(kept, result.k_remaining);
  };
  auto grow = [&](std::uint64_t salt) -> std::size_t {
    detail::compute_utility_bounds(ground_set, state, config, salt, u_min, u_max);
    const double threshold = threshold_of(u_max);
    std::vector<NodeId> candidates;
    for (std::size_t i = 0; i < u_min.size(); ++i) {
      const auto v = static_cast<NodeId>(i);
      if (state.is_unassigned(v) && u_min[i] > threshold) candidates.push_back(v);
    }
    if (candidates.size() > result.k_remaining) {
      Rng rng(hash_combine(config.seed, salt ^ 0x6772ULL));
      rng.shuffle(std::span<NodeId>(candidates));
      candidates.resize(result.k_remaining);
    }
    for (NodeId v : candidates) state.select(v);
    result.k_remaining -= candidates.size();
    return candidates.size();
  };
  auto shrink = [&](std::uint64_t salt) -> std::size_t {
    detail::compute_utility_bounds(ground_set, state, config, salt, u_min, u_max);
    const double threshold = threshold_of(u_min);
    std::size_t discarded = 0;
    for (std::size_t i = 0; i < u_max.size(); ++i) {
      const auto v = static_cast<NodeId>(i);
      if (state.is_unassigned(v) && u_max[i] < threshold) {
        state.discard(v);
        ++discarded;
      }
    }
    return discarded;
  };
  auto complete_if_tight = [&]() {
    if (result.k_remaining == 0 || state.num_unassigned() != result.k_remaining) {
      return false;
    }
    for (NodeId v : state.unassigned_ids()) state.select(v);
    result.k_remaining = 0;
    return true;
  };
  auto out_of_time = [&]() {
    if (!config.deadline.expired()) return false;
    result.degraded = true;
    return true;
  };

  std::uint64_t salt = 0;
  std::size_t total_rounds = 0;
  for (bool first_pass = true;; first_pass = false) {
    std::size_t shrink_changes = 0;
    while (!out_of_time()) {
      ++result.shrink_rounds;
      const std::size_t changed = shrink(++salt);
      shrink_changes += changed;
      if (changed == 0 || ++total_rounds >= config.max_rounds) break;
    }
    if (complete_if_tight() || result.degraded) break;
    if (!first_pass && shrink_changes == 0) break;
    if (result.k_remaining == 0 || total_rounds >= config.max_rounds) break;

    std::size_t grow_changes = 0;
    while (!out_of_time()) {
      ++result.grow_rounds;
      const std::size_t changed = grow(++salt);
      grow_changes += changed;
      if (changed == 0 || result.k_remaining == 0 ||
          ++total_rounds >= config.max_rounds) {
        break;
      }
    }
    if (complete_if_tight() || result.degraded) break;
    if (grow_changes == 0 || result.k_remaining == 0 ||
        total_rounds >= config.max_rounds) {
      break;
    }
  }
  result.included = state.num_selected();
  result.excluded = state.num_discarded();
  return result;
}

/// Returns a description of the first difference between two bounding
/// results, or std::nullopt when they are identical.
std::optional<std::string> first_difference(const BoundingResult& got,
                                            const BoundingResult& want) {
  std::ostringstream out;
  if (got.state.size() != want.state.size()) {
    out << "state size " << got.state.size() << " vs " << want.state.size();
    return out.str();
  }
  for (std::size_t i = 0; i < got.state.size(); ++i) {
    const auto v = static_cast<NodeId>(i);
    if (got.state.state(v) != want.state.state(v)) {
      out << "point " << i << " state " << static_cast<int>(got.state.state(v))
          << " vs " << static_cast<int>(want.state.state(v));
      return out.str();
    }
  }
  auto field = [&out](const char* name, std::size_t a, std::size_t b) {
    if (a != b) out << name << ' ' << a << " vs " << b << "; ";
  };
  field("included", got.included, want.included);
  field("excluded", got.excluded, want.excluded);
  field("grow_rounds", got.grow_rounds, want.grow_rounds);
  field("shrink_rounds", got.shrink_rounds, want.shrink_rounds);
  field("k_remaining", got.k_remaining, want.k_remaining);
  field("degraded", got.degraded, want.degraded);
  if (out.str().empty()) return std::nullopt;
  return out.str();
}

/// Runs bound() and the reference on one input for every sampling mode and
/// every k in {1, n/10, n/2, n−1, n, n+5}; returns the first mismatch.
std::optional<std::string> differs_from_reference(const GroundSet& ground_set,
                                                  BoundingConfig config) {
  const std::size_t n = ground_set.num_points();
  for (const BoundingSampling sampling :
       {BoundingSampling::kNone, BoundingSampling::kUniform,
        BoundingSampling::kWeighted}) {
    config.sampling = sampling;
    for (const std::size_t k :
         {std::size_t{1}, n / 10, n / 2, n > 0 ? n - 1 : 0, n, n + 5}) {
      const auto got = bound(ground_set, k, config);
      const auto want = reference_bound(ground_set, k, config);
      if (auto diff = first_difference(got, want)) {
        return "sampling " + std::to_string(static_cast<int>(sampling)) + ", k " +
               std::to_string(k) + ": " + *diff;
      }
    }
  }
  return std::nullopt;
}

BoundingConfig differential_config(double alpha, double sample_fraction,
                                   std::uint64_t seed) {
  BoundingConfig config = exact_config(alpha);
  config.sample_fraction = sample_fraction;
  config.seed = seed;
  return config;
}

/// A ground set over explicit adjacency lists that validates nothing, so
/// tests can hand bounding the weights the graph builders reject. The lists
/// must be symmetric, as the GroundSet contract requires.
class ListGroundSet final : public graph::GroundSet {
 public:
  ListGroundSet(std::vector<std::vector<graph::Edge>> lists,
                std::vector<double> utilities)
      : lists_(std::move(lists)), utilities_(std::move(utilities)) {}

  /// Copies `instance`'s graph and utilities.
  explicit ListGroundSet(const Instance& instance) : utilities_(instance.utilities) {
    for (NodeId v = 0; v < static_cast<NodeId>(instance.graph.num_nodes()); ++v) {
      const auto edges = instance.graph.neighbors(v);
      lists_.emplace_back(edges.begin(), edges.end());
    }
  }

  std::size_t num_points() const override { return lists_.size(); }
  double utility(NodeId v) const override {
    return utilities_[static_cast<std::size_t>(v)];
  }
  void neighbors(NodeId v, std::vector<graph::Edge>& out) const override {
    out = lists_[static_cast<std::size_t>(v)];
  }

  /// Sets the weight of edge {a, b} in both directions; the edge must exist.
  void set_weight(NodeId a, NodeId b, float weight) {
    for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      for (graph::Edge& e : lists_[static_cast<std::size_t>(from)]) {
        if (e.neighbor == to) e.weight = weight;
      }
    }
  }

  /// The first neighbor of v.
  NodeId first_neighbor(NodeId v) const {
    return lists_[static_cast<std::size_t>(v)].front().neighbor;
  }

 private:
  std::vector<std::vector<graph::Edge>> lists_;
  std::vector<double> utilities_;
};

TEST(BoundingDifferential, RandomGraphsMatchUnprunedAlgorithm) {
  testing::check_property(
      "bound == unpruned Alg. 5", 30,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        Rng rng(seed);
        const std::size_t n = testing::scaled(40 + rng.uniform_index(160), scale, 2);
        const std::size_t degree = 2 + rng.uniform_index(10);
        const Instance instance = random_instance(n, degree, seed);
        const double alpha = seed % 2 == 0 ? 0.9 : 0.5;
        const double p = seed % 3 == 0 ? 0.7 : 0.3;
        return differs_from_reference(instance.ground_set(),
                                      differential_config(alpha, p, seed));
      });
}

TEST(BoundingDifferential, EdgeFreeGraphMatchesUnprunedAlgorithm) {
  testing::check_property(
      "edge-free bound == unpruned Alg. 5", 4,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = testing::scaled(50, scale, 2);
        Instance instance = random_instance(n, 0, seed);
        return differs_from_reference(instance.ground_set(),
                                      differential_config(0.9, 0.3, seed));
      });
}

TEST(BoundingDifferential, AllEqualUtilitiesMatchUnprunedAlgorithm) {
  // Every Umax ties with the threshold before the first selection.
  testing::check_property(
      "tied bound == unpruned Alg. 5", 6,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = testing::scaled(80, scale, 2);
        Instance instance = random_instance(n, seed % 2 == 0 ? 0 : 4, seed);
        std::fill(instance.utilities.begin(), instance.utilities.end(), 1.0);
        return differs_from_reference(instance.ground_set(),
                                      differential_config(0.9, 0.3, seed));
      });
}

TEST(BoundingDifferential, NonFiniteUtilitiesMatchUnprunedAlgorithm) {
  testing::check_property(
      "non-finite utilities bound == unpruned Alg. 5", 6,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = testing::scaled(100, scale, 8);
        Instance instance = random_instance(n, 5, seed);
        Rng rng(seed ^ 0xf1ULL);
        for (const double special : {kInf, -kInf, kNaN, kInf, kNaN}) {
          instance.utilities[rng.uniform_index(n)] = special;
        }
        return differs_from_reference(instance.ground_set(),
                                      differential_config(0.9, 0.3, seed));
      });
}

TEST(BoundingDifferential, NonFiniteEdgeWeightsMatchUnprunedAlgorithm) {
  // NaN compares false with every threshold, so a point whose sum meets a NaN
  // term is never a Grow candidate on either path; +inf is a valid (if
  // extreme) similarity.
  testing::check_property(
      "non-finite weights bound == unpruned Alg. 5", 6,
      [](std::uint64_t seed, double scale) -> std::optional<std::string> {
        const std::size_t n = testing::scaled(100, scale, 8);
        ListGroundSet ground_set(random_instance(n, 5, seed));
        Rng rng(seed ^ 0xedULL);
        for (const float special : {std::numeric_limits<float>::quiet_NaN(),
                                    std::numeric_limits<float>::infinity()}) {
          const auto v = static_cast<NodeId>(rng.uniform_index(n));
          ground_set.set_weight(v, ground_set.first_neighbor(v), special);
        }
        return differs_from_reference(ground_set, differential_config(0.9, 0.3, seed));
      });
}

TEST(BoundingDifferential, ExpiredDeadlineAndRoundCapMatchUnprunedAlgorithm) {
  const Instance instance = random_instance(120, 6, 141);
  BoundingConfig capped = differential_config(0.9, 0.3, 141);
  capped.max_rounds = 3;
  EXPECT_EQ(differs_from_reference(instance.ground_set(), capped).value_or(""), "");
  BoundingConfig expired = differential_config(0.9, 0.3, 141);
  expired.deadline = Deadline::after_ms(0);
  EXPECT_EQ(differs_from_reference(instance.ground_set(), expired).value_or(""), "");
}

TEST(BoundingDifferential, PoolSizeDoesNotChangeDecisions) {
  const Instance instance = random_instance(300, 8, 142);
  for (const std::size_t workers : {1, 3}) {
    ThreadPool pool(workers);
    BoundingConfig config = differential_config(0.9, 0.3, 142);
    config.pool = &pool;
    EXPECT_EQ(differs_from_reference(instance.ground_set(), config).value_or(""), "")
        << workers << " workers";
  }
}

TEST(Bounding, RejectsNegativeEdgeWeightFromCallingThread) {
  // The pruned Grow is exact only when every subtracted term is >= 0; the
  // graph builders enforce w >= 0, an unvalidated ground set may not.
  ListGroundSet ground_set(random_instance(600, 4, 143));
  ground_set.set_weight(450, ground_set.first_neighbor(450), -0.5f);
  ground_set.set_weight(500, ground_set.first_neighbor(500), -0.25f);
  const NodeId first =
      std::min<NodeId>({450, 500, ground_set.first_neighbor(450),
                        ground_set.first_neighbor(500)});
  ThreadPool pool(3);
  BoundingConfig config = exact_config(0.9);
  config.pool = &pool;
  for (const auto sampling : {BoundingSampling::kNone, BoundingSampling::kUniform}) {
    config.sampling = sampling;
    config.sample_fraction = 0.3;
    try {
      bound(ground_set, 60, config);
      ADD_FAILURE() << "bound accepted a negative edge weight";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()),
                "bounding: negative edge weight at point " + std::to_string(first));
    }
  }
  SelectionState state(600);
  std::size_t k_remaining = 60;
  EXPECT_THROW(grow_step(ground_set, state, k_remaining, config, 1),
               std::invalid_argument);
  // A zero budget decides nothing, so nothing is read.
  EXPECT_EQ(bound(ground_set, 0, config).k_remaining, 0u);
}

}  // namespace
}  // namespace subsel::core
