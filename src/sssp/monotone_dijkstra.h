#ifndef KPJ_SSSP_MONOTONE_DIJKSTRA_H_
#define KPJ_SSSP_MONOTONE_DIJKSTRA_H_

#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "util/indexed_heap.h"
#include "util/radix_heap.h"
#include "util/types.h"

namespace kpj {

/// Full-SSSP Dijkstra tuned for offline index construction (the landmark
/// tables): no early stopping, no epoch bookkeeping,
/// no cancellation — just distances and parents as fast as possible.
///
/// With the repository's integer Weight the priority queue is a monotone
/// one-level RadixHeap with lazy deletion (Dijkstra pops keys in
/// non-decreasing order, exactly the radix heap's contract); a build with
/// floating-point weights would fall back to the IndexedHeap used by the
/// online searches, selected at compile time. Either queue produces the
/// same exact distances, so indexes built through this engine are
/// byte-identical to ones built on the general Dijkstra engine.
class MonotoneDijkstra {
 public:
  /// Keeps a reference to `graph`; the graph must outlive the engine.
  explicit MonotoneDijkstra(const Graph& graph)
      : graph_(graph),
        dist_(graph.NumNodes(), kInfLength),
        parent_(graph.NumNodes(), kInvalidNode) {
    if constexpr (!kUseRadix) heap_.Reset(graph.NumNodes());
  }

  /// Full single-source run; overwrites all labels (O(n) reset).
  void Run(NodeId source) {
    dist_.assign(dist_.size(), kInfLength);
    parent_.assign(parent_.size(), kInvalidNode);
    if (source >= dist_.size()) return;
    dist_[source] = 0;
    if constexpr (kUseRadix) {
      radix_.Clear();
      radix_.Push(source, 0);
      while (!radix_.empty()) {
        auto [u, key] = radix_.Pop();
        if (key != dist_[u]) continue;  // Stale (lazily deleted) entry.
        Expand(u, key);
      }
    } else {
      heap_.Clear();
      heap_.Push(source, 0);
      while (!heap_.empty()) {
        auto [u, key] = heap_.PopWithKey();
        Expand(u, key);
      }
    }
  }

  PathLength Distance(NodeId v) const { return dist_[v]; }
  NodeId Parent(NodeId v) const { return parent_[v]; }
  const std::vector<PathLength>& dist() const { return dist_; }

  /// Whether this build (Weight type) runs on the radix heap.
  static constexpr bool UsesRadixHeap() { return kUseRadix; }

 private:
  static constexpr bool kUseRadix = std::is_integral_v<Weight>;

  void Expand(NodeId u, PathLength du) {
    for (const OutEdge& e : graph_.OutEdges(u)) {
      PathLength nd = du + e.weight;
      if (nd < dist_[e.to]) {
        dist_[e.to] = nd;
        parent_[e.to] = u;
        if constexpr (kUseRadix) {
          radix_.Push(e.to, nd);
        } else {
          heap_.PushOrDecrease(e.to, nd);
        }
      }
    }
  }

  const Graph& graph_;
  std::vector<PathLength> dist_;
  std::vector<NodeId> parent_;
  RadixHeap radix_;               // Integer-weight fast path.
  IndexedHeap<PathLength> heap_;  // Float-weight fallback.
};

}  // namespace kpj

#endif  // KPJ_SSSP_MONOTONE_DIJKSTRA_H_
