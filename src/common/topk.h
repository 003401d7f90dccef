// Selection utilities for the bounding algorithm's thresholds.
//
// Grow/Shrink (Algorithms 3 and 4 in the paper) need the k-th largest maximum
// utility U^k_max and the k-th largest minimum utility U^k_min over the
// unassigned ground set. We compute these with nth_element (O(n)) rather than
// sorting; at billion scale the paper computes the same quantile with a
// distributed approximate top-k, which beam/bounding mirrors.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <limits>
#include <span>
#include <vector>

namespace subsel {

/// Returns the k-th largest value of `values` (1-based: k=1 is the maximum),
/// reordering `values` in place. If k exceeds values.size(), returns
/// -infinity (every value qualifies), matching the bounding convention that
/// an undersized ground set imposes no threshold.
inline double kth_largest_in_place(std::span<double> values, std::size_t k) {
  if (k == 0) return std::numeric_limits<double>::infinity();
  if (values.size() < k) return -std::numeric_limits<double>::infinity();
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(k - 1);
  std::nth_element(values.begin(), nth, values.end(), std::greater<>());
  return *nth;
}

/// kth_largest_in_place on a copy, for callers whose values must keep their
/// order.
inline double kth_largest(std::span<const double> values, std::size_t k) {
  std::vector<double> scratch(values.begin(), values.end());
  return kth_largest_in_place(scratch, k);
}

/// Returns the indices of the `k` largest values (ties broken by lower index),
/// in descending value order.
inline std::vector<std::size_t> top_k_indices(std::span<const double> values,
                                              std::size_t k) {
  k = std::min(k, values.size());
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto cmp = [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] > values[b];
    return a < b;
  };
  auto nth = order.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(order.begin(), nth, order.end(), cmp);
  order.resize(k);
  return order;
}

}  // namespace subsel
