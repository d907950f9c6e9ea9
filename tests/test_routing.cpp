// Tests for the routing kernel (RouterGraph::solve) against a textbook
// lexicographic (hops, latency) Dijkstra over the full underlay graph,
// which lives only here as the oracle. Every path model gets its router
// rows from the kernel, so the dense matrix, the on-demand rows and the
// closed-form mean are all checked against the oracle too.
#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"

namespace esm::net {
namespace {

using Cost = std::pair<std::uint32_t, SimTime>;  // (hops, latency)
constexpr Cost kUnreached{RouteRow::kUnreachedHops, kTimeInfinity};

/// Lexicographic (hops, latency) Dijkstra from `origin` over every vertex
/// of the graph, client leaves included.
std::vector<Cost> oracle_dijkstra(const Topology& topo, double scale,
                                  VertexId origin) {
  std::vector<Cost> dist(topo.graph.num_vertices(), kUnreached);
  using QEntry = std::pair<Cost, VertexId>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  dist[origin] = {0, 0};
  queue.emplace(dist[origin], origin);
  while (!queue.empty()) {
    const auto [cost, u] = queue.top();
    queue.pop();
    if (cost != dist[u]) continue;  // stale entry
    for (const Edge& e : topo.graph.neighbors(u)) {
      const SimTime w = std::max<SimTime>(
          e.fixed_latency + static_cast<SimTime>(std::llround(e.length * scale)),
          1);
      const Cost next{cost.first + 1, cost.second + w};
      if (next < dist[e.to]) {
        dist[e.to] = next;
        queue.emplace(next, e.to);
      }
    }
  }
  return dist;
}

/// Kernel rows from every attach router (to every router), and every
/// client-pair model, must equal the oracle exactly.
void expect_matches_oracle(const Topology& topo, double scale) {
  const RouterGraph routes(topo, scale);
  const std::uint32_t routers = routes.num_routers();
  std::vector<VertexId> sources(topo.client_vertex);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  RouteRow row;
  for (const VertexId u : sources) {
    const std::vector<Cost> want = oracle_dijkstra(topo, scale, u);
    routes.solve(u, row);
    for (VertexId v = 0; v < routers; ++v) {
      ASSERT_EQ(row.hops[v], want[v].first) << "row " << u << " -> " << v;
      ASSERT_EQ(row.lat[v], want[v].second) << "row " << u << " -> " << v;
    }
  }

  const auto n = static_cast<std::uint32_t>(topo.client_leaf.size());
  const ClientMetrics dense = compute_client_metrics(topo, scale);
  const OnDemandPathModel lazy(topo, scale);
  double sum = 0.0;
  for (NodeId a = 0; a < n; ++a) {
    const std::vector<Cost> want =
        oracle_dijkstra(topo, scale, topo.client_leaf[a]);
    for (NodeId b = 0; b < n; ++b) {
      const Cost& c = want[topo.client_leaf[b]];
      const SimTime lat = a == b ? 0 : c.second;
      const auto hops = static_cast<std::uint16_t>(a == b ? 0 : c.first);
      ASSERT_EQ(dense.latency(a, b), lat) << a << " -> " << b;
      ASSERT_EQ(dense.hops(a, b), hops) << a << " -> " << b;
      ASSERT_EQ(lazy.latency(a, b), lat) << a << " -> " << b;
      ASSERT_EQ(lazy.hops(a, b), hops) << a << " -> " << b;
      if (a != b) sum += static_cast<double>(lat);
    }
  }
  if (n >= 2) {
    const double mean = sum / (static_cast<double>(n) * (n - 1));
    EXPECT_DOUBLE_EQ(mean_client_latency_us(topo, scale), mean);
    EXPECT_EQ(dense.mean_latency_us(), mean);
  }
}

void expect_generated_matches_oracle(const TopologyParams& params,
                                     std::uint64_t seed) {
  const Topology topo = generate_topology(params, seed);
  for (const double scale :
       {1e5, 0.7 * topo.latency_scale, topo.latency_scale}) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " clients " +
                 std::to_string(params.num_clients) + " scale " +
                 std::to_string(scale));
    expect_matches_oracle(topo, scale);
  }
}

TopologyParams small_params(std::uint32_t clients) {
  TopologyParams p;
  p.num_underlay_vertices = 400;
  p.num_transit_domains = 3;
  p.transit_per_domain = 6;
  p.num_clients = clients;
  return p;
}

TEST(RoutingKernel, KernelMatchesOracleOnDefaultUnderlay) {
  TopologyParams p;
  p.num_clients = 100;
  for (const std::uint64_t seed : {2007, 4099}) {
    expect_generated_matches_oracle(p, seed);
  }
}

TEST(RoutingKernel, KernelMatchesOracleOnSmallUnderlays) {
  for (const std::uint64_t seed : {6021, 6022, 6023}) {
    expect_generated_matches_oracle(small_params(80), seed);
  }
}

TEST(RoutingKernel, KernelMatchesOracleWhenClientsShareStubs) {
  // More clients than stub routers: attachment round-robins.
  for (const std::uint64_t seed : {7, 8}) {
    expect_generated_matches_oracle(small_params(450), seed);
  }
}

/// A hand-built topology: routers [0, routers), then one leaf per client
/// behind a 1 ms access link to `attach[c]`.
Topology hand_built(std::uint32_t routers,
                    const std::vector<VertexId>& attach) {
  Topology topo;
  const auto n = static_cast<std::uint32_t>(attach.size());
  topo.params.num_underlay_vertices = routers;
  topo.params.num_clients = n;
  topo.graph = Graph(routers + n);
  for (NodeId c = 0; c < n; ++c) {
    const VertexId leaf = routers + c;
    topo.graph.add_edge(leaf, attach[c], 0.0, kMillisecond);
    topo.client_vertex.push_back(attach[c]);
    topo.client_leaf.push_back(leaf);
  }
  return topo;
}

TEST(RoutingKernel, HandBuiltTiesClampsAndFixedLatency) {
  // Two 2-hop routes 0 -> 3: via 1 (600 µs, found first in FIFO order)
  // and via 2 (250 µs, must win the tie); a 3-hop route via 4, 5 is
  // cheaper (30 µs) but longer in hops. 3 - 6 has zero length (clamped to
  // 1 µs) and 1 - 6 a fixed 500 µs on top of its 200 µs of length.
  Topology topo = hand_built(7, {0, 3, 6, 5, 5});
  topo.graph.add_edge(0, 1, 0.30);
  topo.graph.add_edge(0, 2, 0.10);
  topo.graph.add_edge(1, 3, 0.30);
  topo.graph.add_edge(2, 3, 0.15);
  topo.graph.add_edge(0, 4, 0.01);
  topo.graph.add_edge(4, 5, 0.01);
  topo.graph.add_edge(5, 3, 0.01);
  topo.graph.add_edge(3, 6, 0.0);
  topo.graph.add_edge(1, 6, 0.20, 500);
  const double scale = 1000.0;  // µs per unit length

  const RouterGraph routes(topo, scale);
  RouteRow row;
  routes.solve(0, row);
  EXPECT_EQ(row.hops[3], 2u);
  EXPECT_EQ(row.lat[3], 250);
  EXPECT_EQ(row.hops[6], 2u);
  EXPECT_EQ(row.lat[6], 300 + 700);  // via the fixed-latency edge
  routes.solve(3, row);
  EXPECT_EQ(row.hops[6], 1u);
  EXPECT_EQ(row.lat[6], 1);  // zero-length edge clamped

  const ClientMetrics dense = compute_client_metrics(topo, scale);
  EXPECT_EQ(dense.latency(0, 1), 1000 + 250 + 1000);
  EXPECT_EQ(dense.hops(0, 1), 4);
  EXPECT_EQ(dense.latency(3, 4), 2000);  // shared stub: access links only
  EXPECT_EQ(dense.hops(3, 4), 2);

  for (const double s : {scale, 1e5, 1.0}) {
    SCOPED_TRACE("scale " + std::to_string(s));
    expect_matches_oracle(topo, s);
  }
}

void expect_disconnected(const std::function<void()>& call) {
  try {
    call();
    ADD_FAILURE() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("underlay graph is disconnected"),
              std::string::npos)
        << e.what();
  }
}

TEST(RoutingKernel, DisconnectedUnderlayIsRejected) {
  Topology topo = hand_built(4, {0, 2});
  topo.graph.add_edge(0, 1, 0.1);
  topo.graph.add_edge(2, 3, 0.1);
  const double scale = 1000.0;
  expect_disconnected([&] { compute_client_metrics(topo, scale); });
  expect_disconnected([&] { mean_client_latency_us(topo, scale); });
  const OnDemandPathModel lazy(topo, scale);
  expect_disconnected([&] { lazy.latency(0, 1); });
}

}  // namespace
}  // namespace esm::net
