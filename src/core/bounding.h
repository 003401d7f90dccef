// Exact and approximate bounding (Sections 4.1–4.3, Algorithms 3–5).
//
// Bounding iteratively tightens two per-point bounds over the unassigned
// ground set V (given the partial solution S′ and remaining budget k):
//
//   Umin(v) = u(v) − (β/α) Σ_{v2 ∈ V ∪ S′, (v,v2)∈E} s(v,v2)   (Def. 4.1)
//   Umax(v) = u(v) − (β/α) Σ_{v2 ∈ S′,     (v,v2)∈E} s(v,v2)   (Def. 4.2)
//
// Grow (Alg. 3): points with Umin(v) > U^k_max must be in the optimal set
// (Lemma 4.3) — select them. Shrink (Alg. 4): points with Umax(v) < U^k_min
// cannot be in it (Lemma 4.4) — discard them. Alg. 5 alternates shrink-to-
// convergence and grow-to-convergence until a fixed point.
//
// Approximate bounding (Sec. 4.2) replaces Umin with the *expected utility*
// Uexp (Def. 4.5), which only subtracts a sampled fraction p of the
// unassigned neighbors (uniformly, or weighted by similarity); neighbors
// already in S′ are always subtracted. Theorem 4.6 bounds the quality loss.
//
// Everything here runs one parallel pass per round; no step needs the subset
// resident on a single "machine" beyond the one-byte-per-point state vector
// and one double per point (see beam/ for the dataflow formulation).
//
// A pass does only the work that can change a decision:
//
//  - Umax cache. bound() fills Umax for every point once, then keeps it for
//    the whole run. Umax(v) depends only on v's selected neighbors, so after
//    a Grow only the unassigned neighbors of the newly selected points are
//    recomputed (this relies on the GroundSet contract that neighborhoods
//    are symmetric). Shrink changes no Umax: discarded neighbors count in
//    neither bound. Every recompute sums the full edge list in edge order,
//    so each cached value is bit-identical to a full recompute.
//  - Pruned Grow. U^k_max is selected from one copy of the cached Umax. Only
//    points with Umax > U^k_max are evaluated, and each Uexp sum stops as
//    soon as it falls to <= U^k_max. Both are exact because every
//    subtracted term (β/α)·w is >= 0: then Uexp <= Umax and the partial sums
//    never rise under round-to-nearest. A NaN anywhere in a sum makes it
//    NaN, which fails every comparison, so such a point is never a Grow
//    candidate on either path. Candidates are collected in ascending id
//    order, as a full scan would find them.
//  - Shrink needs every Uexp to find U^k_min, so it stays a full pass.
//
// Precondition: β >= 0 (ObjectiveParams::validate) and every edge weight
// w >= 0. SimilarityGraph and OverlayGroundSet enforce w >= 0 on build;
// bound() and grow_step() also check it in their first Umax pass, which reads
// every edge anyway, and throw std::invalid_argument from the calling thread
// when it does not hold. NaN weights pass the check (see above).
#pragma once

#include <cstdint>
#include <vector>

#include "common/run_control.h"
#include "common/thread_pool.h"
#include "core/objective.h"
#include "core/selection_state.h"
#include "graph/ground_set.h"

namespace subsel::core {

enum class BoundingSampling : std::uint8_t {
  kNone = 0,     // exact bounding: Umin uses all non-discarded neighbors
  kUniform = 1,  // each unassigned neighbor kept i.i.d. with probability p
  kWeighted = 2, // inclusion probability proportional to edge similarity,
                 // scaled so the expected sampled count is p·deg
};

struct BoundingConfig {
  /// α/β balance of the objective; pair_scale() = β/α enters Umin/Umax.
  ObjectiveParams objective;
  BoundingSampling sampling = BoundingSampling::kNone;
  /// Neighborhood sample fraction p (Theorem 4.6); ignored for kNone.
  double sample_fraction = 1.0;
  /// Safety cap on the total number of grow+shrink rounds.
  std::size_t max_rounds = 10'000;
  std::uint64_t seed = 17;
  /// Out-of-core pipelining: every bounding pass hands its first
  /// `prefetch_depth` worker chunks to GroundSet::prefetch as asynchronous
  /// page-in hints before the parallel pass starts, so a disk-backed ground
  /// set batches the pass's leading block I/O. No-op for resident ground
  /// sets; 0 disables. Never affects decisions.
  std::size_t prefetch_depth = 2;
  ThreadPool* pool = nullptr;
  /// Wall-clock budget, checked between passes. Bounding decisions are
  /// monotone (selected stays selected, discarded stays discarded), so
  /// stopping early just leaves a smaller pre-pass for the solver — the
  /// result is still valid, flagged `degraded`.
  Deadline deadline;
};

struct BoundingResult {
  SelectionState state;
  /// Points moved into the subset / removed from the ground set.
  std::size_t included = 0;
  std::size_t excluded = 0;
  /// Number of Grow / Shrink invocations, counting the final non-changing one
  /// of each convergence loop (matching how Table 2 reports "1 / 1" for runs
  /// that make no decision).
  std::size_t grow_rounds = 0;
  std::size_t shrink_rounds = 0;
  /// Budget still open after bounding: k − |included|.
  std::size_t k_remaining = 0;
  /// True when the deadline cut the alternation short of its fixed point.
  bool degraded = false;

  bool complete() const noexcept { return k_remaining == 0; }
};

/// Runs Algorithm 5 on `ground_set` for a target subset size k. Throws
/// std::invalid_argument on malformed objective params or a negative edge
/// weight (see the precondition above); a zero budget reads nothing.
BoundingResult bound(const GroundSet& ground_set, std::size_t k,
                     const BoundingConfig& config);

/// One Grow pass (Alg. 3) on an existing state; returns #points selected.
/// Runs bound()'s pass code on a freshly filled Umax cache, so it throws
/// like bound(). Exposed for tests and for step-by-step walk-throughs.
std::size_t grow_step(const GroundSet& ground_set, SelectionState& state,
                      std::size_t& k_remaining, const BoundingConfig& config,
                      std::uint64_t round_salt);

/// One Shrink pass (Alg. 4), bound()'s pass code; returns #points discarded.
std::size_t shrink_step(const GroundSet& ground_set, SelectionState& state,
                        std::size_t k_remaining, const BoundingConfig& config,
                        std::uint64_t round_salt);

namespace detail {

/// Deterministic neighbor-sampling decision for approximate bounding: whether
/// edge (v -> neighbor) is included in this round's Uexp sum. Hash-derived so
/// the distributed (beam) and in-memory paths agree bit-for-bit.
bool sample_neighbor(const BoundingConfig& config, std::uint64_t round_salt, NodeId v,
                     NodeId neighbor, float weight, double mean_weight);

/// Computes Umin (or Uexp under sampling) and Umax for all unassigned points,
/// each summed in full in edge order; assigned points get NaN. Buffers are
/// resized to num_points(). Shrink's pass, and the unpruned reference the
/// tests hold the pruned Grow to.
void compute_utility_bounds(const GroundSet& ground_set, const SelectionState& state,
                            const BoundingConfig& config, std::uint64_t round_salt,
                            std::vector<double>& u_min, std::vector<double>& u_max);

}  // namespace detail

}  // namespace subsel::core
