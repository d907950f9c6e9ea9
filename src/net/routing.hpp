// Shortest-path routing over the underlay.
//
// The simulated transport does not route packets hop-by-hop; instead the
// one-way delay between every pair of clients is precomputed here, exactly
// as ModelNet pre-computes paths through its emulator core. Routing is
// hop-shortest with latency as tie-breaker: the lexicographic minimum of
// (hops, latency) over all paths. Hop counts are kept for validating the
// topology against the paper's §5.1 statistics.
//
// One kernel, `RouterGraph::solve`, computes every route in the repo: the
// dense matrix below, the on-demand rows and the closed-form mean of
// net/path_model.hpp, and the latency calibration in net/topology.cpp.
// It is a FIFO breadth-first search over a CSR of the router subgraph
// with one precomputed SimTime weight per half-edge. Every edge costs
// exactly one hop, so the hop-shortest paths to a vertex v at BFS depth d
// are exactly the paths through a neighbour u at depth d-1, and the
// least latency among them is min(lat[u] + w(u, v)) over those u. FIFO
// order pops all of layer d-1 (each with its final latency) before any
// vertex of layer d, so the search returns the same integers as a
// lexicographic (hops, latency) Dijkstra, with no heap.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"

namespace esm::net {

/// One source row of `RouterGraph::solve`, indexed by router vertex.
/// Unreached routers keep hops == kUnreachedHops, lat == kTimeInfinity.
struct RouteRow {
  static constexpr std::uint32_t kUnreachedHops = 0xffffffffu;

  std::vector<std::uint32_t> hops;
  std::vector<SimTime> lat;
  std::vector<VertexId> queue;  // BFS scratch

  /// Latency to router `v`; CheckFailure if the underlay is disconnected.
  SimTime latency_to(VertexId v) const {
    ESM_CHECK(lat[v] != kTimeInfinity, "underlay graph is disconnected");
    return lat[v];
  }
};

/// The router subgraph of a topology as a CSR with per-half-edge latency
/// weights, plus each client's access link. Client leaves have degree 1,
/// so no router-to-router route passes through one and
///   cost(a, b) = (2, w_a + w_b) + router cost(attach_a, attach_b),
/// which is how every path model assembles client pairs from router rows.
class RouterGraph {
 public:
  /// Builds the CSR and weights every edge for `scale` (µs per length).
  RouterGraph(const Topology& topo, double scale);

  /// Re-weights every edge for a new scale, reusing the CSR.
  void set_scale(double scale);

  std::uint32_t num_routers() const {
    return static_cast<std::uint32_t>(offset_.size() - 1);
  }
  std::uint32_t num_clients() const {
    return static_cast<std::uint32_t>(access_.size());
  }
  /// Router vertex client `c` attaches to.
  VertexId attach(NodeId c) const { return access_[c].to; }
  /// Latency of client `c`'s access link.
  SimTime access_weight(NodeId c) const { return access_weight_[c]; }

  /// Fills `row` with the (hops, latency) route cost from router `origin`
  /// to every router.
  void solve(VertexId origin, RouteRow& row) const;

 private:
  std::vector<std::uint32_t> offset_;  // router -> first half-edge
  std::vector<Edge> half_edge_;        // router-to-router half-edges
  std::vector<SimTime> weight_;        // per half-edge, at the current scale
  std::vector<Edge> access_;           // client -> access edge (to = attach)
  std::vector<SimTime> access_weight_;
};

/// Dense client-to-client one-way latency and hop-count matrices — the
/// PathModel used for small N (O(N²) memory, O(1) query). Large-N runs use
/// OnDemandPathModel instead; see net/path_model.hpp.
class ClientMetrics final : public PathModel {
 public:
  ClientMetrics(std::uint32_t n)
      : n_(n), latency_(std::size_t(n) * n, 0), hops_(std::size_t(n) * n, 0) {}

  std::uint32_t num_clients() const override { return n_; }

  SimTime latency(NodeId a, NodeId b) const override {
    return latency_[idx(a, b)];
  }
  std::uint16_t hops(NodeId a, NodeId b) const override {
    return hops_[idx(a, b)];
  }

  void set(NodeId a, NodeId b, SimTime lat, std::uint16_t h) {
    latency_[idx(a, b)] = lat;
    hops_[idx(a, b)] = h;
  }

  std::size_t memory_bytes() const override {
    return latency_.size() * sizeof(SimTime) +
           hops_.size() * sizeof(std::uint16_t);
  }
  std::uint64_t rows_computed() const override { return n_; }

 private:
  std::size_t idx(NodeId a, NodeId b) const {
    ESM_CHECK(a < n_ && b < n_, "client id out of range");
    return std::size_t(a) * n_ + b;
  }

  std::uint32_t n_;
  std::vector<SimTime> latency_;
  std::vector<std::uint16_t> hops_;
};

/// Fills the client matrices from one router row per distinct attach
/// router, using `topo.latency_scale` to convert edge lengths to
/// microseconds.
ClientMetrics compute_client_metrics(const Topology& topo);

/// Same, with an explicit scale.
ClientMetrics compute_client_metrics(const Topology& topo, double scale);

/// Same, at the routes' current scale (calibration reuses one RouterGraph).
ClientMetrics compute_client_metrics(const RouterGraph& routes);

}  // namespace esm::net
