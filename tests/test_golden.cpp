// Golden regression tests: exact metric values for pinned seeds.
//
// Everything in this library is deterministic given (config, seed), so any
// behavioral change — an extra RNG draw, a reordered event, a protocol
// tweak — shifts these numbers. That is the point: they catch silent
// semantic drift that the invariant-based tests would absorb. When a
// change is *intentional*, re-run with --gtest_also_run_disabled_tests
// or just update the constants below (the failure message prints the new
// values).
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace esm::harness {
namespace {

ExperimentConfig golden_config() {
  ExperimentConfig c;
  c.seed = 777;
  c.num_nodes = 50;
  c.num_messages = 100;
  c.warmup = 15 * kSecond;
  c.topology.num_underlay_vertices = 800;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

TEST(Golden, EagerPush) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_flat(1.0);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.payload_packets, 55000u);  // 100 msgs x 50 nodes x fanout 11
  EXPECT_EQ(r.duplicate_payloads, 50100u);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_NEAR(r.mean_latency_ms, 70.54, 0.05);
}

TEST(Golden, LazyPush) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_flat(0.0);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.payload_packets, 4900u);  // exactly one per non-origin node
  EXPECT_EQ(r.duplicate_payloads, 0u);
  EXPECT_NEAR(r.mean_latency_ms, 219.99, 0.05);
}

TEST(Golden, TtlStrategy) {
  ExperimentConfig c = golden_config();
  c.strategy = StrategySpec::make_ttl(3);
  const ExperimentResult r = run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
  EXPECT_NEAR(r.mean_latency_ms, 78.42, 0.05);
  EXPECT_NEAR(r.payload_per_delivery, 2.832, 0.005);
}

TEST(Golden, TopologyScale) {
  // The calibrated latency scale and edge count are pure functions of the
  // seed; drift means the generator's RNG consumption or the routing
  // integers changed. 100 and 300 clients take the dense calibration
  // probe, 2100 the closed-form one; all three are pinned bit for bit.
  struct Pin {
    std::uint32_t clients;
    std::size_t edges;
    double scale;
  };
  for (const Pin& pin : {Pin{100, 3644, 0x1.e338487ebfd25p+15},
                         Pin{300, 3844, 0x1.f0da5c7b01578p+15},
                         Pin{2100, 5644, 0x1.f7786ff83fa47p+15}}) {
    net::TopologyParams params;
    params.num_clients = pin.clients;
    const net::Topology topo = net::generate_topology(params, 2007);
    EXPECT_EQ(topo.graph.num_edges(), pin.edges) << pin.clients;
    EXPECT_EQ(topo.latency_scale, pin.scale) << pin.clients;
  }
}

}  // namespace
}  // namespace esm::harness
