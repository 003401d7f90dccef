// Conformance suite for the incremental kernel state and the drivers that
// run it. Nothing here re-derives the state's arithmetic: gains are held
// against each kernel's exact marginal_gain oracle over the subproblem's
// induced ground set (partitions, conditioning on pre-selected state, the
// full ground set), the batched lazy driver against an exhaustive greedy
// over the same state (bit-exact, including adversarial ties and duplicate
// weights), and solve_partition against direct driver calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "../testing/test_instances.h"
#include "baselines/baselines.h"
#include "baselines/gain_engine.h"
#include "core/coverage_kernel.h"
#include "core/facility_location_kernel.h"
#include "core/greedy.h"
#include "core/objective_kernel.h"

namespace subsel::core {
namespace {

using subsel::testing::Instance;
using subsel::testing::random_instance;

/// All three built-in kernels over one ground set. The saturation stays
/// below the default self-similarity (1.0), so a selected point is saturated
/// and absorbs no further gain — the property the conditioned oracle
/// comparison relies on.
struct KernelSet {
  PairwiseKernel pairwise;
  FacilityLocationKernel facility_location;
  SaturatedCoverageKernel coverage;

  explicit KernelSet(const graph::GroundSet& ground_set)
      : pairwise(ground_set, ObjectiveParams::from_alpha(0.8)),
        facility_location(ground_set, {}),
        coverage(ground_set, [] {
          SaturatedCoverageParams params;
          params.saturation = 0.8;
          return params;
        }()) {}

  std::vector<const ObjectiveKernel*> all() const {
    return {&pairwise, &facility_location, &coverage};
  }
};

std::vector<NodeId> every_third(std::size_t n) {
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < n; i += 3) members.push_back(static_cast<NodeId>(i));
  return members;
}

std::vector<NodeId> all_ids(std::size_t n) {
  std::vector<NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<NodeId>(i);
  return members;
}

/// The ground set induced by the sorted id list `ids`: oracle id i stands for
/// global id ids[i], and only edges with both endpoints in `ids` survive.
Instance induced_instance(const Instance& instance, std::span<const NodeId> ids) {
  const auto oracle_id = [&](NodeId global) -> NodeId {
    const auto it = std::lower_bound(ids.begin(), ids.end(), global);
    return it != ids.end() && *it == global ? static_cast<NodeId>(it - ids.begin())
                                            : NodeId{-1};
  };
  std::vector<graph::NeighborList> lists(ids.size());
  Instance induced;
  induced.utilities.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    induced.utilities[i] = instance.utilities[static_cast<std::size_t>(ids[i])];
    for (const graph::Edge& e : instance.graph.neighbors(ids[i])) {
      const NodeId local = oracle_id(e.neighbor);
      if (local >= 0) lists[i].edges.push_back(graph::Edge{local, e.weight});
    }
  }
  induced.graph = graph::SimilarityGraph::from_lists(lists);
  return induced;
}

/// Gains of each kernel's state over the subproblem induced by `members`
/// (conditioned on `conditioning` when given) must match the kernel's exact
/// oracle over the ground set induced by members ∪ S′, with S′ pre-selected,
/// after every selection of a random play-out. Single and batched gains must
/// agree bit-for-bit, and reset's initial priorities must equal the fresh
/// gains.
void expect_state_matches_oracle(const Instance& instance,
                                 std::span<const NodeId> members,
                                 const SelectionState* conditioning,
                                 std::uint64_t seed) {
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);

  std::vector<NodeId> ids(members.begin(), members.end());
  if (conditioning != nullptr) {
    const std::vector<NodeId> selected = conditioning->selected_ids();
    ids.insert(ids.end(), selected.begin(), selected.end());
  }
  std::sort(ids.begin(), ids.end());
  const Instance induced = induced_instance(instance, ids);
  const auto oracle_ground_set = induced.ground_set();
  const KernelSet oracles(oracle_ground_set);

  const std::vector<const ObjectiveKernel*> states = kernels.all();
  const std::vector<const ObjectiveKernel*> exact = oracles.all();
  for (std::size_t which = 0; which < states.size(); ++which) {
    const ObjectiveKernel& kernel = *states[which];
    const ObjectiveKernel& oracle = *exact[which];

    SubproblemArena arena;
    Subproblem& sub = materialize_subproblem_topology(ground_set, members, arena);
    const std::unique_ptr<KernelIncrementalState> state =
        kernel.make_incremental_state(arena);
    ASSERT_NE(state, nullptr) << kernel.name();
    state->reset(sub, conditioning);
    EXPECT_GT(state->state_bytes(), 0u) << kernel.name();

    const std::size_t n = sub.size();
    std::vector<NodeId> oracle_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      oracle_of[i] = static_cast<NodeId>(
          std::lower_bound(ids.begin(), ids.end(), sub.global_ids[i]) -
          ids.begin());
    }
    std::vector<std::uint8_t> membership(ids.size(), 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (conditioning != nullptr && conditioning->is_selected(ids[i])) {
        membership[i] = 1;
      }
    }
    ASSERT_EQ(sub.priorities.size(), n);
    for (std::uint32_t v = 0; v < n; ++v) {
      EXPECT_EQ(sub.priorities[v], state->gain(v))
          << kernel.name() << " initial priority of local " << v;
    }

    Rng rng(seed);
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
    std::vector<std::uint32_t> picks(all);
    rng.shuffle(std::span<std::uint32_t>(picks));
    picks.resize(std::min<std::size_t>(n, 12));

    std::vector<double> batched(n);
    for (const std::uint32_t pick : picks) {
      state->gains_batch(all, batched);
      for (std::uint32_t v = 0; v < n; ++v) {
        EXPECT_EQ(batched[v], state->gain(v))
            << kernel.name() << " batched gain of local " << v;
        if (membership[static_cast<std::size_t>(oracle_of[v])] != 0) continue;
        const double expected = oracle.marginal_gain(membership, oracle_of[v]);
        EXPECT_NEAR(state->gain(v), expected, 1e-9 * (1.0 + std::abs(expected)))
            << kernel.name() << " gain of local " << v;
      }
      membership[static_cast<std::size_t>(oracle_of[pick])] = 1;
      state->select(pick);
    }
  }
}

TEST(IncrementalStateOracle, FullGroundSetGainsMatchExactOracle) {
  const Instance instance = random_instance(60, 5, 41020);
  const std::vector<NodeId> members = all_ids(60);
  expect_state_matches_oracle(instance, members, nullptr, 41020);
}

TEST(IncrementalStateOracle, PartitionGainsMatchExactOracle) {
  for (std::uint64_t seed : {41001ULL, 41002ULL, 41003ULL}) {
    const Instance instance = random_instance(90, 5, seed);
    const std::vector<NodeId> members = every_third(90);
    expect_state_matches_oracle(instance, members, nullptr, seed ^ 0xfeed);
  }
}

TEST(IncrementalStateOracle, ConditionedGainsMatchExactOracle) {
  const Instance instance = random_instance(80, 6, 41010);
  SelectionState conditioning(80);
  conditioning.select(2);
  conditioning.select(35);
  conditioning.select(71);
  conditioning.discard(7);
  const std::vector<NodeId> members = conditioning.unassigned_ids();
  expect_state_matches_oracle(instance, members, &conditioning, 99);
}

/// Exhaustive greedy over a fresh state: every step scans all unselected
/// local ids and takes the largest gain, ties toward the smaller id.
GreedyResult exhaustive_greedy(const Subproblem& sub, std::size_t k,
                               KernelIncrementalState& state) {
  const std::size_t n = sub.size();
  k = std::min(k, n);
  GreedyResult result;
  std::vector<bool> taken(n, false);
  for (std::size_t step = 0; step < k; ++step) {
    double best_gain = -std::numeric_limits<double>::infinity();
    std::uint32_t best = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (taken[v]) continue;
      const double gain = state.gain(v);
      if (gain > best_gain) {  // strict: first maximizer wins = smallest id
        best_gain = gain;
        best = v;
      }
    }
    taken[best] = true;
    result.selected.push_back(sub.global_ids[best]);
    result.objective += best_gain;
    state.select(best);
  }
  return result;
}

/// The batched lazy driver must pick exactly what an exhaustive greedy over
/// the same state picks, with a bit-identical objective.
void expect_driver_matches_exhaustive(const Instance& instance,
                                      std::span<const NodeId> members) {
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    // k spanning less than, around, and beyond one refresh batch.
    for (const std::size_t k :
         {std::size_t{5}, kGainRefreshBatch + 3, members.size()}) {
      SubproblemArena driver_arena;
      Subproblem& driver_sub =
          materialize_subproblem_topology(ground_set, members, driver_arena);
      const std::unique_ptr<KernelIncrementalState> driver_state =
          kernel->make_incremental_state(driver_arena);
      driver_state->reset(driver_sub, nullptr);
      const GreedyResult batched = incremental_greedy_on_subproblem(
          driver_sub, k, *driver_state, driver_arena);

      SubproblemArena scan_arena;
      Subproblem& scan_sub =
          materialize_subproblem_topology(ground_set, members, scan_arena);
      const std::unique_ptr<KernelIncrementalState> scan_state =
          kernel->make_incremental_state(scan_arena);
      scan_state->reset(scan_sub, nullptr, /*init_priorities=*/false);
      const GreedyResult scan = exhaustive_greedy(scan_sub, k, *scan_state);

      EXPECT_EQ(batched.selected, scan.selected) << kernel->name() << " k=" << k;
      EXPECT_EQ(batched.objective, scan.objective) << kernel->name() << " k=" << k;
    }
  }
}

TEST(BatchedLazyDriver, MatchesExhaustiveGreedyOnRandomInstances) {
  for (std::uint64_t seed : {41101ULL, 41102ULL}) {
    const Instance instance = random_instance(150, 6, seed);
    const std::vector<NodeId> members = every_third(150);
    expect_driver_matches_exhaustive(instance, members);
  }
}

TEST(BatchedLazyDriver, MatchesExhaustiveGreedyUnderAdversarialTies) {
  // Every weight and utility identical: every candidate ties with every
  // other, so any divergence in tie-breaking (or any last-ulp gain drift)
  // would reorder selections.
  const std::size_t n = 120;
  Instance instance = random_instance(n, 5, 41200, /*max_weight=*/1.0,
                                      /*max_utility=*/2.0);
  std::vector<graph::NeighborList> lists(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (const graph::Edge& e : instance.graph.neighbors(static_cast<NodeId>(v))) {
      lists[v].edges.push_back(graph::Edge{e.neighbor, 0.5f});
    }
  }
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  std::fill(instance.utilities.begin(), instance.utilities.end(), 1.0);
  const std::vector<NodeId> members = all_ids(n);
  expect_driver_matches_exhaustive(instance, members);
}

TEST(BatchedLazyDriver, MatchesExhaustiveGreedyWithDuplicateWeights) {
  // Two distinct weight values only: heavy duplication without full
  // degeneracy.
  const std::size_t n = 100;
  Instance instance = random_instance(n, 6, 41210);
  std::vector<graph::NeighborList> lists(n);
  Rng rng(7);
  for (std::size_t v = 0; v < n; ++v) {
    for (const graph::Edge& e : instance.graph.neighbors(static_cast<NodeId>(v))) {
      lists[v].edges.push_back(
          graph::Edge{e.neighbor, rng.uniform() < 0.5 ? 0.25f : 0.75f});
    }
  }
  instance.graph = graph::SimilarityGraph::from_lists(lists).symmetrized();
  for (double& u : instance.utilities) u = rng.uniform() < 0.5 ? 1.0 : 1.5;
  const std::vector<NodeId> members = all_ids(n);
  expect_driver_matches_exhaustive(instance, members);
}

TEST(BatchedLazyDriver, HandlesEmptyAndDegeneratePartitions) {
  const Instance instance = random_instance(40, 4, 41220);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    // Empty member list.
    const GreedyResult empty = solve_partition(
        ground_set, std::span<const NodeId>{}, 5, *kernel, nullptr, arena,
        PartitionSolver::kPriorityQueue, 0.1, 1);
    EXPECT_TRUE(empty.selected.empty()) << kernel->name();
    EXPECT_EQ(empty.objective, 0.0) << kernel->name();

    // k = 0 on a non-empty partition.
    std::vector<NodeId> members = {1, 5, 9};
    const GreedyResult zero = solve_partition(
        ground_set, members, 0, *kernel, nullptr, arena,
        PartitionSolver::kPriorityQueue, 0.1, 1);
    EXPECT_TRUE(zero.selected.empty()) << kernel->name();

    // k beyond the partition size selects everything.
    const GreedyResult all = solve_partition(
        ground_set, members, 64, *kernel, nullptr, arena,
        PartitionSolver::kPriorityQueue, 0.1, 1);
    EXPECT_EQ(all.selected.size(), members.size()) << kernel->name();

    // Duplicate members are rejected on both partition paths.
    std::vector<NodeId> duplicates = {1, 5, 5};
    EXPECT_THROW(solve_partition(ground_set, duplicates, 2, *kernel, nullptr,
                                 arena, PartitionSolver::kPriorityQueue, 0.1, 1),
                 std::invalid_argument)
        << kernel->name();
  }
}

TEST(SolvePartition, RunsKernelStateThroughLazyAndSampledDrivers) {
  const Instance instance = random_instance(200, 6, 41300);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  const std::vector<NodeId> members = every_third(200);
  const std::size_t k = members.size() / 2;

  for (const ObjectiveKernel* kernel : kernels.all()) {
    SubproblemArena arena;
    std::size_t sub_bytes = 0;
    std::size_t state_bytes = 0;
    const GreedyResult lazy = solve_partition(
        ground_set, members, k, *kernel, nullptr, arena,
        PartitionSolver::kPriorityQueue, 0.1, 3, &sub_bytes, &state_bytes);
    const GreedyResult sampled = solve_partition(
        ground_set, members, k, *kernel, nullptr, arena,
        PartitionSolver::kStochastic, 0.2, 777);
    EXPECT_GT(sub_bytes, 0u) << kernel->name();
    EXPECT_EQ(lazy.materialized_bytes, sub_bytes) << kernel->name();
    EXPECT_EQ(lazy.kernel_state_bytes, state_bytes) << kernel->name();
    if (kernel->pairwise_params() != nullptr) {
      // Closed-form path: no flat state behind the solve.
      EXPECT_EQ(state_bytes, 0u);
      continue;
    }
    EXPECT_GT(state_bytes, 0u) << kernel->name();

    SubproblemArena direct_arena;
    Subproblem& sub =
        materialize_subproblem_topology(ground_set, members, direct_arena);
    const std::unique_ptr<KernelIncrementalState> state =
        kernel->make_incremental_state(direct_arena);
    state->reset(sub, nullptr);
    const GreedyResult direct_lazy =
        incremental_greedy_on_subproblem(sub, k, *state, direct_arena);
    state->reset(sub, nullptr, /*init_priorities=*/false);
    const GreedyResult direct_sampled = stochastic_greedy_on_subproblem(
        sub, k, *state, 0.2, 777, direct_arena);
    EXPECT_EQ(lazy.selected, direct_lazy.selected) << kernel->name();
    EXPECT_EQ(lazy.objective, direct_lazy.objective) << kernel->name();
    EXPECT_EQ(sampled.selected, direct_sampled.selected) << kernel->name();
    EXPECT_EQ(sampled.objective, direct_sampled.objective) << kernel->name();
  }
}

TEST(MarginalGainEngine, IncrementalBaselinesMatchOracleReference) {
  // The full-ground-set engine behind the centralized baselines: lazy greedy
  // through it must select exactly what the pre-engine oracle implementation
  // selects, for every kernel.
  const Instance instance = random_instance(140, 6, 41400);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  for (const ObjectiveKernel* kernel : kernels.all()) {
    const GreedyResult oracle = baselines::reference::lazy_greedy(*kernel, 25);
    const GreedyResult engine = baselines::lazy_greedy(*kernel, 25);
    EXPECT_EQ(engine.selected, oracle.selected) << kernel->name();
    EXPECT_NEAR(engine.objective, oracle.objective,
                1e-9 * (1.0 + std::abs(oracle.objective)))
        << kernel->name();
    if (kernel->pairwise_params() == nullptr) {
      EXPECT_GT(engine.kernel_state_bytes, 0u) << kernel->name();
      EXPECT_GT(engine.materialized_bytes, 0u) << kernel->name();
    } else {
      // Pairwise keeps the exact oracle: no engine state, bit-identical sums.
      EXPECT_EQ(engine.kernel_state_bytes, 0u);
      EXPECT_EQ(engine.objective, oracle.objective);
    }
  }
}

TEST(MarginalGainEngine, GainAndBatchMatchOraclePerStep) {
  const Instance instance = random_instance(70, 5, 41410);
  const auto ground_set = instance.ground_set();
  const KernelSet kernels(ground_set);
  const std::size_t n = 70;
  for (const ObjectiveKernel* kernel : kernels.all()) {
    baselines::MarginalGainEngine engine(*kernel);
    EXPECT_EQ(engine.incremental(), kernel->pairwise_params() == nullptr)
        << kernel->name();
    std::vector<std::uint8_t> membership(n, 0);
    std::vector<NodeId> candidates;
    std::vector<double> gains;
    for (const NodeId pick : {NodeId{4}, NodeId{31}, NodeId{66}}) {
      candidates.clear();
      for (std::size_t v = 0; v < n; ++v) {
        if (membership[v] == 0) candidates.push_back(static_cast<NodeId>(v));
      }
      gains.resize(candidates.size());
      engine.gains_batch(candidates, gains);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double oracle = kernel->marginal_gain(membership, candidates[i]);
        EXPECT_NEAR(engine.gain(candidates[i]), oracle,
                    1e-9 * (1.0 + std::abs(oracle)))
            << kernel->name();
        EXPECT_EQ(gains[i], engine.gain(candidates[i])) << kernel->name();
      }
      membership[static_cast<std::size_t>(pick)] = 1;
      engine.select(pick);
      EXPECT_TRUE(engine.is_selected(pick));
    }
  }
}

}  // namespace
}  // namespace subsel::core
