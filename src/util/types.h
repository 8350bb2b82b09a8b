#ifndef KPJ_UTIL_TYPES_H_
#define KPJ_UTIL_TYPES_H_

#include <cstdint>
#include <limits>

namespace kpj {

/// Node identifier within a graph. Nodes are densely numbered `[0, n)`.
/// Virtual nodes added for query processing (the virtual destination `t` of
/// Section 3 and the virtual source of Section 6) use ids `>= n`.
using NodeId = uint32_t;

/// Edge identifier: position of the edge in a graph's CSR arrays.
using EdgeId = uint32_t;

/// Weight of a single edge. Non-negative.
using Weight = uint32_t;

/// Length of a path (sum of edge weights). 64-bit so that sums of many
/// 32-bit weights cannot overflow.
using PathLength = uint64_t;

/// Category identifier; categories index into a CategoryIndex.
using CategoryId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no edge".
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// Sentinel for "no category".
inline constexpr CategoryId kInvalidCategory =
    std::numeric_limits<CategoryId>::max();

/// "Infinite" path length: larger than any real path length.
inline constexpr PathLength kInfLength =
    std::numeric_limits<PathLength>::max();

/// Range checks for integers read from untrusted input (flags, batch
/// files, the wire) before they narrow to 32 bits, where a wider value
/// would wrap silently: a node id, and a path count k (KpjQuery::k).
inline constexpr bool FitsNodeId(int64_t v) {
  return v >= 0 && v <= int64_t{std::numeric_limits<NodeId>::max()};
}
inline constexpr bool FitsPathCount(int64_t v) {
  return v > 0 && v <= int64_t{std::numeric_limits<uint32_t>::max()};
}

/// Adds path lengths, saturating at kInfLength (infinity is absorbing).
inline constexpr PathLength SatAdd(PathLength a, PathLength b) {
  if (a == kInfLength || b == kInfLength) return kInfLength;
  PathLength s = a + b;
  return s < a ? kInfLength : s;
}

/// Subtracts path lengths, clamping at 0 (used by landmark lower bounds,
/// which are only useful when positive).
inline constexpr PathLength ClampedSub(PathLength a, PathLength b) {
  return a > b ? a - b : 0;
}

}  // namespace kpj

#endif  // KPJ_UTIL_TYPES_H_
