#include "net/routing.hpp"

#include <algorithm>
#include <cmath>

namespace esm::net {

RouterGraph::RouterGraph(const Topology& topo, double scale) {
  const VertexId routers = topo.params.num_underlay_vertices;
  offset_.reserve(std::size_t(routers) + 1);
  offset_.push_back(0);
  for (VertexId u = 0; u < routers; ++u) {
    for (const Edge& e : topo.graph.neighbors(u)) {
      if (e.to < routers) half_edge_.push_back(e);  // skip client leaves
    }
    offset_.push_back(static_cast<std::uint32_t>(half_edge_.size()));
  }
  access_.reserve(topo.client_leaf.size());
  for (const VertexId leaf : topo.client_leaf) {
    const auto& links = topo.graph.neighbors(leaf);
    ESM_CHECK(links.size() == 1, "client leaf must have exactly one link");
    ESM_CHECK(links[0].to < routers, "client must attach to a router vertex");
    access_.push_back(links[0]);
  }
  set_scale(scale);
}

void RouterGraph::set_scale(double scale) {
  const auto weigh = [scale](const Edge& e) {
    const SimTime w = e.fixed_latency +
                      static_cast<SimTime>(std::llround(e.length * scale));
    return std::max<SimTime>(w, 1);
  };
  weight_.resize(half_edge_.size());
  std::transform(half_edge_.begin(), half_edge_.end(), weight_.begin(), weigh);
  access_weight_.resize(access_.size());
  std::transform(access_.begin(), access_.end(), access_weight_.begin(),
                 weigh);
}

void RouterGraph::solve(VertexId origin, RouteRow& row) const {
  const std::uint32_t routers = num_routers();
  row.hops.assign(routers, RouteRow::kUnreachedHops);
  row.lat.assign(routers, kTimeInfinity);
  row.queue.resize(routers);  // every router is enqueued at most once
  row.hops[origin] = 0;
  row.lat[origin] = 0;
  row.queue[0] = origin;
  std::uint32_t head = 0, tail = 1;
  while (head < tail) {
    const VertexId u = row.queue[head++];
    const std::uint32_t next_hops = row.hops[u] + 1;
    const SimTime lat_u = row.lat[u];
    for (std::uint32_t k = offset_[u]; k < offset_[u + 1]; ++k) {
      const VertexId v = half_edge_[k].to;
      const SimTime lat_v = lat_u + weight_[k];
      if (row.hops[v] == RouteRow::kUnreachedHops) {
        row.hops[v] = next_hops;
        row.lat[v] = lat_v;
        row.queue[tail++] = v;
      } else if (row.hops[v] == next_hops && lat_v < row.lat[v]) {
        row.lat[v] = lat_v;
      }
    }
  }
}

ClientMetrics compute_client_metrics(const Topology& topo) {
  return compute_client_metrics(topo, topo.latency_scale);
}

ClientMetrics compute_client_metrics(const Topology& topo, double scale) {
  return compute_client_metrics(RouterGraph(topo, scale));
}

ClientMetrics compute_client_metrics(const RouterGraph& routes) {
  const std::uint32_t n = routes.num_clients();
  ClientMetrics metrics(n);
  // One solve per distinct attach router serves every client on it.
  std::vector<std::vector<NodeId>> clients_at(routes.num_routers());
  std::vector<VertexId> sources;
  for (NodeId c = 0; c < n; ++c) {
    auto& group = clients_at[routes.attach(c)];
    if (group.empty()) sources.push_back(routes.attach(c));
    group.push_back(c);
  }
  RouteRow row;
  std::vector<SimTime> lat_to(n);          // router path + b's access link
  std::vector<std::uint16_t> hops_to(n);
  for (const VertexId u : sources) {
    routes.solve(u, row);
    for (NodeId b = 0; b < n; ++b) {
      const VertexId v = routes.attach(b);
      lat_to[b] = row.latency_to(v) + routes.access_weight(b);
      hops_to[b] = static_cast<std::uint16_t>(row.hops[v] + 2);
    }
    for (const NodeId a : clients_at[u]) {
      const SimTime w_a = routes.access_weight(a);
      for (NodeId b = 0; b < n; ++b) {
        if (b != a) metrics.set(a, b, w_a + lat_to[b], hops_to[b]);
      }
    }
  }
  return metrics;
}

}  // namespace esm::net
