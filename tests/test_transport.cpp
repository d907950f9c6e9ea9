#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace esm::net {
namespace {

struct TestPacket final : public Packet {
  int tag = 0;
};

PacketPtr make_packet(int tag = 0) {
  auto p = std::make_shared<TestPacket>();
  p->tag = tag;
  return p;
}

struct Fixture {
  sim::Simulator sim;
  ConstantLatencyModel latency{10 * kMillisecond};
  Transport transport;
  std::vector<std::vector<std::pair<NodeId, int>>> received;

  explicit Fixture(std::uint32_t n, TransportOptions opts = {})
      : transport(sim, latency, n, opts, Rng(7)), received(n) {
    for (NodeId id = 0; id < n; ++id) {
      transport.register_handler(id, [this, id](NodeId src,
                                                const PacketPtr& pkt) {
        const auto* tp = dynamic_cast<const TestPacket*>(pkt.get());
        received[id].push_back({src, tp != nullptr ? tp->tag : -1});
      });
    }
  }
};

TEST(Transport, DeliversAfterOneWayLatency) {
  Fixture f(2);
  f.transport.send(0, 1, make_packet(42), 100, false);
  f.sim.run_until(10 * kMillisecond - 1);
  EXPECT_TRUE(f.received[1].empty());
  f.sim.run_until(10 * kMillisecond);
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0], (std::pair<NodeId, int>{0, 42}));
}

TEST(Transport, RejectsSelfSendAndBadIds) {
  Fixture f(2);
  EXPECT_THROW(f.transport.send(0, 0, make_packet(), 1, false), CheckFailure);
  EXPECT_THROW(f.transport.send(0, 9, make_packet(), 1, false), CheckFailure);
  EXPECT_THROW(f.transport.send(0, 1, nullptr, 1, false), CheckFailure);
}

TEST(Transport, LossRateDropsApproximatelyThatFraction) {
  TransportOptions opts;
  opts.loss_rate = 0.25;
  Fixture f(2, opts);
  constexpr int kSends = 20000;
  for (int i = 0; i < kSends; ++i) {
    f.transport.send(0, 1, make_packet(i), 10, false);
  }
  f.sim.run();
  const auto delivered = static_cast<double>(f.received[1].size());
  EXPECT_NEAR(delivered / kSends, 0.75, 0.02);
  EXPECT_EQ(f.transport.packets_lost() + f.received[1].size(),
            static_cast<std::uint64_t>(kSends));
  // Loss happens after accounting: sends are still counted.
  EXPECT_EQ(f.transport.stats().total_packets(),
            static_cast<std::uint64_t>(kSends));
}

TEST(Transport, SilencedSourceSendsNothing) {
  Fixture f(2);
  f.transport.silence(0);
  EXPECT_TRUE(f.transport.is_silenced(0));
  f.transport.send(0, 1, make_packet(), 10, true);
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  // Firewalled at the source: not even counted as sent.
  EXPECT_EQ(f.transport.stats().total_packets(), 0u);
}

TEST(Transport, SilencedDestinationDropsOnArrival) {
  Fixture f(2);
  f.transport.send(0, 1, make_packet(), 10, true);
  f.transport.silence(1);
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  // The send left the source before the failure: it is counted.
  EXPECT_EQ(f.transport.stats().total_packets(), 1u);
}

TEST(Transport, SilenceMidFlightDropsInFlightPackets) {
  Fixture f(2);
  // Packet leaves at t=0, arrives at t=10ms. Silence the destination at
  // t=5ms: the packet is already on the wire but must still be dropped
  // on arrival (the paper's firewall semantics cut both directions).
  f.transport.send(0, 1, make_packet(1), 10, true);
  f.sim.schedule_at(5 * kMillisecond, [&] { f.transport.silence(1); });
  f.sim.run();
  EXPECT_TRUE(f.received[1].empty());
  // The send was accounted before the failure; arrival-side drops never
  // rewrite TrafficStats.
  EXPECT_EQ(f.transport.stats().total_packets(), 1u);
  EXPECT_EQ(f.transport.stats().link(0, 1).payload_packets, 1u);
}

TEST(Transport, ReviveRestoresBothDirections) {
  Fixture f(2);
  f.transport.silence(1);
  f.transport.send(0, 1, make_packet(1), 10, false);  // dropped at arrival
  f.transport.send(1, 0, make_packet(2), 10, false);  // refused at source
  f.sim.run();
  EXPECT_TRUE(f.received[0].empty());
  EXPECT_TRUE(f.received[1].empty());

  f.transport.revive(1);
  EXPECT_FALSE(f.transport.is_silenced(1));
  f.transport.send(0, 1, make_packet(3), 10, false);
  f.transport.send(1, 0, make_packet(4), 10, false);
  f.sim.run();
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0].second, 3);
  ASSERT_EQ(f.received[0].size(), 1u);
  EXPECT_EQ(f.received[0][0].second, 4);
}

TEST(Transport, SilencedArrivalDropsDoNotTouchTrafficStats) {
  Fixture f(3);
  f.transport.send(0, 1, make_packet(), 100, true);
  f.transport.send(0, 2, make_packet(), 100, true);
  f.transport.silence(1);
  f.sim.run();
  // Both sends were accounted identically even though only node 2
  // received its packet.
  const TrafficStats& s = f.transport.stats();
  EXPECT_EQ(s.total_packets(), 2u);
  EXPECT_EQ(s.total_payload_packets(), 2u);
  EXPECT_EQ(s.link(0, 1).payload_packets, 1u);
  EXPECT_EQ(s.link(0, 2).payload_packets, 1u);
  ASSERT_EQ(f.received[2].size(), 1u);
}

TEST(Transport, GlobalExtraLossDropsApproximately) {
  Fixture f(2);
  f.transport.set_extra_loss(0.25);
  EXPECT_EQ(f.transport.extra_loss(), 0.25);
  constexpr int kSends = 20000;
  for (int i = 0; i < kSends; ++i) {
    f.transport.send(0, 1, make_packet(i), 10, false);
  }
  f.sim.run();
  const auto delivered = static_cast<double>(f.received[1].size());
  EXPECT_NEAR(delivered / kSends, 0.75, 0.02);
  EXPECT_EQ(f.transport.fault_drops(),
            static_cast<std::uint64_t>(kSends) - f.received[1].size());
  // Clearing the burst restores lossless delivery.
  f.transport.set_extra_loss(0.0);
  const std::uint64_t drops_before = f.transport.fault_drops();
  for (int i = 0; i < 100; ++i) {
    f.transport.send(0, 1, make_packet(i), 10, false);
  }
  f.sim.run();
  EXPECT_EQ(f.transport.fault_drops(), drops_before);
}

TEST(Transport, ExtraLossComposesWithBaseLoss) {
  TransportOptions opts;
  opts.loss_rate = 0.2;
  Fixture f(2, opts);
  f.transport.set_extra_loss(0.25);
  constexpr int kSends = 20000;
  for (int i = 0; i < kSends; ++i) {
    f.transport.send(0, 1, make_packet(i), 10, false);
  }
  f.sim.run();
  // Independent draws: survival = (1 - 0.2) * (1 - 0.25) = 0.6.
  EXPECT_NEAR(static_cast<double>(f.received[1].size()) / kSends, 0.6, 0.02);
}

TEST(Transport, LinkExtraLossIsScopedToTheLink) {
  Fixture f(3);
  f.transport.set_link_extra_loss(0, 1, 0.999999);
  for (int i = 0; i < 50; ++i) {
    f.transport.send(0, 1, make_packet(i), 10, false);
    f.transport.send(1, 0, make_packet(i), 10, false);  // both directions
    f.transport.send(0, 2, make_packet(i), 10, false);  // unaffected
  }
  f.sim.run();
  EXPECT_LT(f.received[1].size(), 5u);
  EXPECT_LT(f.received[0].size(), 5u);
  EXPECT_EQ(f.received[2].size(), 50u);
  // Resetting to 0 prunes the fault entry and restores delivery.
  f.transport.set_link_extra_loss(0, 1, 0.0);
  f.transport.send(0, 1, make_packet(99), 10, false);
  f.sim.run();
  EXPECT_EQ(f.received[1].back().second, 99);
}

TEST(Transport, DelayFactorStretchesLatency) {
  Fixture f(2);
  std::vector<SimTime> arrivals;
  f.transport.register_handler(1, [&](NodeId, const PacketPtr&) {
    arrivals.push_back(f.sim.now());
  });
  f.transport.set_delay_factor(3.0);
  EXPECT_EQ(f.transport.delay_factor(), 3.0);
  f.transport.send(0, 1, make_packet(), 10, false);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 30 * kMillisecond);
  // Back to 1.0: base latency again.
  f.transport.set_delay_factor(1.0);
  f.transport.send(0, 1, make_packet(), 10, false);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 10 * kMillisecond);
}

TEST(Transport, HugeDelayFactorSaturatesInsteadOfWrapping) {
  // 1e300 x the base delay leaves the SimTime range (the global x link
  // product even overflows to inf). The delay must saturate past any
  // run's end, not wrap to an early arrival; jitter must not overflow it.
  TransportOptions opts;
  opts.jitter = 0.5;
  Fixture f(3, opts);
  std::vector<SimTime> arrivals;
  for (NodeId id = 1; id <= 2; ++id) {
    f.transport.register_handler(id, [&](NodeId, const PacketPtr&) {
      arrivals.push_back(f.sim.now());
    });
  }
  f.transport.set_delay_factor(1e300);
  f.transport.set_link_delay_factor(0, 2, 1e300);
  f.transport.send(0, 1, make_packet(), 10, false);
  f.transport.send(0, 2, make_packet(), 10, false);
  f.sim.run_until(1000 * kSecond);
  EXPECT_TRUE(arrivals.empty());
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[0], kTimeInfinity / 8);
  EXPECT_GE(arrivals[1], kTimeInfinity / 8);
}

TEST(Transport, LinkDelayFactorOnlySlowsThatLink) {
  Fixture f(3);
  std::vector<std::pair<NodeId, SimTime>> arrivals;
  for (NodeId id = 1; id <= 2; ++id) {
    f.transport.register_handler(id, [&, id](NodeId, const PacketPtr&) {
      arrivals.push_back({id, f.sim.now()});
    });
  }
  f.transport.set_link_delay_factor(0, 1, 2.0);
  f.transport.send(0, 1, make_packet(), 10, false);
  f.transport.send(0, 2, make_packet(), 10, false);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], (std::pair<NodeId, SimTime>{2, 10 * kMillisecond}));
  EXPECT_EQ(arrivals[1], (std::pair<NodeId, SimTime>{1, 20 * kMillisecond}));
}

TEST(Transport, LinkFaultsAreOrientationIndependent) {
  // Per-link faults are symmetric by contract: installing (a, b) must be
  // observable — and effective — for traffic in BOTH directions, however
  // the endpoints are ordered at the call site.
  Fixture f(3);
  f.transport.set_link_extra_loss(0, 1, 0.25);
  EXPECT_EQ(f.transport.link_extra_loss(0, 1), 0.25);
  EXPECT_EQ(f.transport.link_extra_loss(1, 0), 0.25);
  EXPECT_EQ(f.transport.link_extra_loss(0, 2), 0.0);
  f.transport.set_link_delay_factor(2, 1, 4.0);
  EXPECT_EQ(f.transport.link_delay_factor(2, 1), 4.0);
  EXPECT_EQ(f.transport.link_delay_factor(1, 2), 4.0);
  EXPECT_EQ(f.transport.link_delay_factor(0, 1), 1.0);

  // The delay installed as (2, 1) stretches a 1 -> 2 send: the send path's
  // directed lookup sees the same fault whichever endpoint transmits.
  std::vector<SimTime> arrivals;
  f.transport.register_handler(2, [&](NodeId, const PacketPtr&) {
    arrivals.push_back(f.sim.now());
  });
  f.transport.send(1, 2, make_packet(), 10, false);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 40 * kMillisecond);

  // Clearing through either orientation clears both directions.
  f.transport.set_link_extra_loss(1, 0, 0.0);
  EXPECT_EQ(f.transport.link_extra_loss(0, 1), 0.0);
  EXPECT_EQ(f.transport.link_extra_loss(1, 0), 0.0);
  f.transport.set_link_delay_factor(1, 2, 1.0);
  EXPECT_EQ(f.transport.link_delay_factor(2, 1), 1.0);
  f.transport.send(1, 2, make_packet(), 10, false);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 10 * kMillisecond);
}

TEST(Transport, FaultModifierValidation) {
  Fixture f(3);
  EXPECT_THROW(f.transport.set_extra_loss(1.0), CheckFailure);
  EXPECT_THROW(f.transport.set_extra_loss(-0.1), CheckFailure);
  EXPECT_THROW(f.transport.set_delay_factor(0.0), CheckFailure);
  EXPECT_THROW(f.transport.set_link_extra_loss(0, 0, 0.5), CheckFailure);
  EXPECT_THROW(f.transport.set_link_extra_loss(0, 9, 0.5), CheckFailure);
  EXPECT_THROW(f.transport.set_link_delay_factor(1, 2, -1.0), CheckFailure);
  EXPECT_THROW(f.transport.set_delay_factor(
                   std::numeric_limits<double>::infinity()),
               CheckFailure);
  EXPECT_THROW(f.transport.set_link_delay_factor(
                   1, 2, std::numeric_limits<double>::quiet_NaN()),
               CheckFailure);
}

TEST(Transport, PayloadVsControlAccounting) {
  Fixture f(3);
  f.transport.send(0, 1, make_packet(), 280, true);
  f.transport.send(0, 1, make_packet(), 40, false);
  f.transport.send(0, 2, make_packet(), 280, true);
  f.sim.run();
  const TrafficStats& s = f.transport.stats();
  EXPECT_EQ(s.total_packets(), 3u);
  EXPECT_EQ(s.total_payload_packets(), 2u);
  EXPECT_EQ(s.total_bytes(), 600u);
  EXPECT_EQ(s.node_sent_payload(0), 2u);
  EXPECT_EQ(s.node_sent_packets(0), 3u);
  EXPECT_EQ(s.link(0, 1).packets, 2u);
  EXPECT_EQ(s.link(0, 1).payload_packets, 1u);
  EXPECT_EQ(s.link(0, 1).payload_bytes, 280u);
  EXPECT_EQ(s.link(1, 0).packets, 0u);
  EXPECT_EQ(s.links_used(), 2u);
}

TEST(Transport, StatsReset) {
  Fixture f(2);
  f.transport.send(0, 1, make_packet(), 100, true);
  f.sim.run();
  f.transport.stats().reset();
  const TrafficStats& s = f.transport.stats();
  EXPECT_EQ(s.total_packets(), 0u);
  EXPECT_EQ(s.total_payload_packets(), 0u);
  EXPECT_EQ(s.node_sent_payload(0), 0u);
  EXPECT_EQ(s.links_used(), 0u);
}

TEST(Transport, TopShareUniformTrafficIsProportional) {
  Fixture f(20);
  // Every ordered pair gets exactly one payload packet: no structure.
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      if (a != b) f.transport.send(a, b, make_packet(), 10, true);
    }
  }
  f.sim.run();
  // 190 undirected connections, all equal: top 5% carry ~5% (ceil effect).
  const double share = f.transport.stats().top_connection_payload_share(0.05);
  EXPECT_NEAR(share, 0.05, 0.012);
}

TEST(Transport, TopShareDetectsConcentration) {
  Fixture f(20);
  // One hot connection carries half of all payloads.
  for (int i = 0; i < 171; ++i) f.transport.send(0, 1, make_packet(), 10, true);
  for (NodeId a = 2; a < 20; ++a) {
    for (NodeId b = a + 1; b < 20; ++b) {
      f.transport.send(a, b, make_packet(), 10, true);
    }
  }
  f.sim.run();
  EXPECT_GT(f.transport.stats().top_connection_payload_share(0.05), 0.4);
}

TEST(Transport, UndirectedCountsMergeBothDirections) {
  Fixture f(2);
  f.transport.send(0, 1, make_packet(), 10, true);
  f.transport.send(1, 0, make_packet(), 10, true);
  f.sim.run();
  const auto counts = f.transport.stats().undirected_payload_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, 2u);
  EXPECT_EQ(counts[0].first, (std::pair<NodeId, NodeId>{0, 1}));
}

TEST(Transport, BandwidthSerializesBackToBackSends) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000'000;  // 1 byte/us
  Fixture f(3, opts);
  std::vector<SimTime> arrivals;
  f.transport.register_handler(1, [&](NodeId, const PacketPtr&) {
    arrivals.push_back(f.sim.now());
  });
  // Two 1000-byte packets queued at t=0 on the same egress: the second
  // departs 1000 us after the first.
  f.transport.send(0, 1, make_packet(), 1000, true);
  f.transport.send(0, 1, make_packet(), 1000, true);
  f.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 1000);
}

TEST(Transport, EgressStatsAccountSojournAndPeaks) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000'000;  // 1 byte/us
  Fixture f(3, opts);
  // Two 1000-byte packets queued at t=0: the first spends its own 1000 us
  // transmission time, the second that plus 1000 us of queueing delay.
  f.transport.send(0, 1, make_packet(), 1000, true);
  f.transport.send(0, 2, make_packet(), 1000, true);
  f.sim.run();
  const Transport::EgressStats& es = f.transport.egress_stats(0);
  EXPECT_EQ(es.serialized_packets, 2u);
  EXPECT_EQ(es.total_sojourn_us, 3000u);
  EXPECT_EQ(es.max_sojourn_us, 2000u);
  EXPECT_EQ(es.peak_depth, 2u);
  EXPECT_EQ(es.peak_queued_bytes, 2000u);
  // Idle nodes stay at zero; totals mirror the only active egress.
  EXPECT_EQ(f.transport.egress_stats(1).serialized_packets, 0u);
  const Transport::EgressStats totals = f.transport.egress_totals();
  EXPECT_EQ(totals.serialized_packets, 2u);
  EXPECT_EQ(totals.max_sojourn_us, 2000u);
  f.transport.reset_egress_stats();
  EXPECT_EQ(f.transport.egress_stats(0).serialized_packets, 0u);
  EXPECT_EQ(f.transport.egress_totals().total_sojourn_us, 0u);
}

TEST(Transport, EgressListenerReportsEachSerializedPacket) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000'000;
  Fixture f(2, opts);
  std::vector<std::uint64_t> sojourns;
  f.transport.set_egress_listener(
      [&](NodeId src, std::uint64_t sojourn_us, std::size_t) {
        EXPECT_EQ(src, 0u);
        sojourns.push_back(sojourn_us);
      });
  f.transport.send(0, 1, make_packet(), 500, true);
  f.transport.send(0, 1, make_packet(), 500, false);
  f.sim.run();
  ASSERT_EQ(sojourns.size(), 2u);
  EXPECT_EQ(sojourns[0], 500u);
  EXPECT_EQ(sojourns[1], 1000u);
}

TEST(Transport, LossBurstOnSaturatedLinkLeavesUnrelatedLinksUntouched) {
  // Composition regression: a fault-injected loss burst on a saturated,
  // bounded egress consumes RNG draws only for that link's packets, so an
  // unrelated link's delivery times and contents are bit-identical with
  // and without the fault.
  struct Outcome {
    std::vector<std::pair<SimTime, int>> unrelated;
    std::uint64_t fault_drops = 0;
    std::uint64_t buffer_drops = 0;
  };
  auto run = [](bool with_fault) {
    TransportOptions opts;
    opts.bandwidth_bps = 80'000;  // 10 bytes/ms: heavy queueing
    opts.egress_buffer_bytes = 5000;
    opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
    Fixture f(4, opts);
    if (with_fault) f.transport.set_link_extra_loss(0, 1, 0.7);
    Outcome out;
    f.transport.register_handler(3, [&](NodeId, const PacketPtr& pkt) {
      const auto* tp = dynamic_cast<const TestPacket*>(pkt.get());
      out.unrelated.emplace_back(f.sim.now(), tp->tag);
    });
    for (int i = 0; i < 100; ++i) {
      f.transport.send(0, 1, make_packet(i), 500, true);  // saturated + lossy
      f.transport.send(2, 3, make_packet(i), 500, true);  // unrelated
    }
    f.sim.run();
    out.fault_drops = f.transport.fault_drops();
    out.buffer_drops = f.transport.buffer_drops();
    return out;
  };
  const Outcome base = run(false);
  const Outcome faulted = run(true);
  // The fault really bit (drops on the saturated link), the bounded
  // buffer really overflowed, and the unrelated link never noticed.
  EXPECT_EQ(base.fault_drops, 0u);
  EXPECT_GT(faulted.fault_drops, 0u);
  EXPECT_GT(faulted.buffer_drops, 0u);
  EXPECT_EQ(base.unrelated, faulted.unrelated);
  ASSERT_FALSE(base.unrelated.empty());
}

TEST(Transport, DropNewestRefusesArrivals) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms: very slow
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_newest;
  Fixture f(2, opts);
  // 5 x 1000-byte packets: the first starts transmitting (and occupies
  // the buffer), one more fits, the remaining three are refused.
  for (int i = 0; i < 5; ++i) f.transport.send(0, 1, make_packet(i), 1000, true);
  f.sim.run();
  EXPECT_EQ(f.transport.buffer_drops(), 3u);
  ASSERT_EQ(f.received[1].size(), 2u);
  // Tail drop keeps the OLDEST packets, in order.
  EXPECT_EQ(f.received[1][0].second, 0);
  EXPECT_EQ(f.received[1][1].second, 1);
}

TEST(Transport, DropOldestKeepsFreshest) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
  Fixture f(2, opts);
  for (int i = 0; i < 5; ++i) f.transport.send(0, 1, make_packet(i), 1000, true);
  f.sim.run();
  EXPECT_EQ(f.transport.buffer_drops(), 3u);
  ASSERT_EQ(f.received[1].size(), 2u);
  // Freshness-preserving purge: the in-flight head survives, then the
  // NEWEST packet; the stale middle of the queue was purged.
  EXPECT_EQ(f.received[1][0].second, 0);
  EXPECT_EQ(f.received[1][1].second, 4);
}

TEST(Transport, DropOldestSustainedOverloadIsExactAndOrdered) {
  // Sustained-overload pinning for the deque-backed egress queue: a
  // front-of-queue purge per arrival must keep exact drop counts and the
  // head-survives / freshest-survives delivery pattern at burst sizes
  // where an erase-at-front-of-vector implementation would go quadratic.
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms: every send overflows
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
  Fixture f(2, opts);
  constexpr int kBurst = 200;
  for (int i = 0; i < kBurst; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
  }
  f.sim.run();
  // The in-flight head is protected from the purge, one queued slot
  // churns: everything but the head and the newest packet is dropped.
  EXPECT_EQ(f.transport.buffer_drops(), static_cast<std::uint64_t>(kBurst - 2));
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[1][0].second, 0);
  EXPECT_EQ(f.received[1][1].second, kBurst - 1);
  EXPECT_EQ(f.transport.stats().link(0, 1).payload_packets, 2u);
}

TEST(Transport, OversizedPacketAlwaysDropped) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000'000;
  opts.egress_buffer_bytes = 100;
  Fixture f(2, opts);
  f.transport.send(0, 1, make_packet(), 500, true);
  f.sim.run();
  EXPECT_EQ(f.transport.buffer_drops(), 1u);
  EXPECT_TRUE(f.received[1].empty());
}

TEST(Transport, BackpressureViewTracksQueueAndCapacity) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms
  opts.egress_buffer_bytes = 10'000;
  Fixture f(2, opts);
  Transport::BackpressureView idle = f.transport.backpressure(0);
  EXPECT_EQ(idle.queued_bytes, 0u);
  EXPECT_EQ(idle.depth, 0u);
  EXPECT_EQ(idle.capacity_bytes, 10'000u);
  EXPECT_EQ(idle.occupancy(), 0.0);
  EXPECT_FALSE(idle.congested);
  f.transport.send(0, 1, make_packet(0), 1000, true);
  f.transport.send(0, 1, make_packet(1), 1000, true);
  const Transport::BackpressureView busy = f.transport.backpressure(0);
  EXPECT_EQ(busy.queued_bytes, 2000u);
  EXPECT_EQ(busy.depth, 2u);
  EXPECT_NEAR(busy.occupancy(), 0.2, 1e-12);
  f.sim.run();
  EXPECT_EQ(f.transport.backpressure(0).queued_bytes, 0u);
  EXPECT_EQ(f.transport.backpressure(0).depth, 0u);
}

TEST(Transport, UnboundedBufferReportsZeroOccupancy) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  Fixture f(2, opts);
  f.transport.send(0, 1, make_packet(), 1000, true);
  const Transport::BackpressureView v = f.transport.backpressure(0);
  EXPECT_EQ(v.capacity_bytes, 0u);
  EXPECT_EQ(v.occupancy(), 0.0);
  EXPECT_FALSE(v.congested);
  f.sim.run();
}

TEST(Transport, WatermarkListenerFiresWithHysteresis) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms
  opts.egress_buffer_bytes = 10'000;
  opts.high_watermark = 0.75;  // 7500 bytes
  opts.low_watermark = 0.50;   // 5000 bytes
  Fixture f(2, opts);
  std::vector<std::pair<SimTime, bool>> events;
  f.transport.set_watermark_listener([&](NodeId src, bool above) {
    EXPECT_EQ(src, 0u);
    events.push_back({f.sim.now(), above});
  });
  // Eight 1000-byte packets queued at t=0: the queue crosses the high
  // mark (7500) on the 8th send, exactly once despite further growth.
  for (int i = 0; i < 8; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (std::pair<SimTime, bool>{0, true}));
  EXPECT_TRUE(f.transport.backpressure(0).congested);
  // Drain at 1 packet/s: after three departures queued_bytes hits the low
  // mark (5000) and exactly one falling event fires.
  f.sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].second, false);
  EXPECT_EQ(events[1].first, 3000 * kMillisecond);
  EXPECT_FALSE(f.transport.backpressure(0).congested);
  // A fresh burst re-arms: a second rising edge is a new episode.
  for (int i = 0; i < 8; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[2].second);
  f.sim.run();
  EXPECT_EQ(events.size(), 4u);
}

TEST(Transport, WatermarksInertWithoutBoundedBuffer) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.high_watermark = 0.75;
  opts.low_watermark = 0.50;  // no egress_buffer_bytes: stays disarmed
  Fixture f(2, opts);
  int events = 0;
  f.transport.set_watermark_listener([&](NodeId, bool) { ++events; });
  for (int i = 0; i < 50; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
  }
  f.sim.run();
  EXPECT_EQ(events, 0);
  EXPECT_EQ(f.received[1].size(), 50u);
}

TEST(Transport, WatermarkEdgesFireAtExactBoundaries) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms
  opts.egress_buffer_bytes = 10'000;
  opts.high_watermark = 0.75;  // 7500 bytes
  opts.low_watermark = 0.50;   // 5000 bytes
  Fixture f(2, opts);
  std::vector<std::pair<SimTime, bool>> events;
  f.transport.set_watermark_listener(
      [&](NodeId, bool above) { events.push_back({f.sim.now(), above}); });
  // Three 2500-byte packets land the queue at exactly 7500 = high: the
  // rising edge is inclusive (>=) and fires on the third send.
  for (int i = 0; i < 3; ++i) {
    f.transport.send(0, 1, make_packet(i), 2500, true);
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].second);
  EXPECT_EQ(events[0].first, 0);
  // The first departure drains to exactly 5000 = low: the falling edge is
  // inclusive (<=) and fires at the boundary, not one packet later.
  f.sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1].second);
  EXPECT_EQ(events[1].first, 2500 * kMillisecond);
}

TEST(Transport, EqualWatermarksCongestOnlyAboveTheMark) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.egress_buffer_bytes = 10'000;
  opts.high_watermark = 0.5;  // both thresholds at 5000 bytes:
  opts.low_watermark = 0.5;   // a valid zero-width hysteresis band
  Fixture f(2, opts);
  std::vector<bool> events;
  f.transport.set_watermark_listener(
      [&](NodeId, bool above) { events.push_back(above); });
  // Touching the shared boundary exactly must not open an episode — with
  // an inclusive rising edge this send would congest and the very next
  // drain pop decongest, flapping at the boundary.
  f.transport.send(0, 1, make_packet(0), 2500, true);
  f.transport.send(0, 1, make_packet(1), 2500, true);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(f.transport.backpressure(0).congested);
  // Exceeding the mark opens the episode; draining back to it closes it.
  f.transport.send(0, 1, make_packet(2), 2500, true);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0]);
  EXPECT_TRUE(f.transport.backpressure(0).congested);
  f.sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[1]);
  EXPECT_FALSE(f.transport.backpressure(0).congested);
}

TEST(Transport, InvalidWatermarksRejected) {
  sim::Simulator sim;
  ConstantLatencyModel lat(1);
  TransportOptions inverted;
  inverted.egress_buffer_bytes = 1000;
  inverted.high_watermark = 0.4;
  inverted.low_watermark = 0.6;
  EXPECT_THROW(Transport(sim, lat, 2, inverted, Rng(1)), CheckFailure);
  TransportOptions above_one;
  above_one.egress_buffer_bytes = 1000;
  above_one.high_watermark = 1.5;
  above_one.low_watermark = 0.5;
  EXPECT_THROW(Transport(sim, lat, 2, above_one, Rng(1)), CheckFailure);
}

TEST(Transport, PurgeListenerReportsDroppedPacketIdentity) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
  Fixture f(2, opts);
  std::vector<std::pair<int, bool>> purged;  // (tag, is_payload)
  f.transport.set_purge_listener(
      [&](NodeId src, NodeId dst, const PacketPtr& pkt, bool is_payload) {
        EXPECT_EQ(src, 0u);
        EXPECT_EQ(dst, 1u);
        const auto* tp = dynamic_cast<const TestPacket*>(pkt.get());
        ASSERT_NE(tp, nullptr);
        purged.push_back({tp->tag, is_payload});
      });
  // Same shape as DropOldestKeepsFreshest: head (0) survives in service,
  // the stale middle (1, 2, 3) is purged one victim per arrival, the
  // freshest (4) is delivered.
  for (int i = 0; i < 5; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, i != 2);
  }
  f.sim.run();
  ASSERT_EQ(purged.size(), 3u);
  EXPECT_EQ(purged[0], (std::pair<int, bool>{1, true}));
  EXPECT_EQ(purged[1], (std::pair<int, bool>{2, false}));
  EXPECT_EQ(purged[2], (std::pair<int, bool>{3, true}));
  EXPECT_EQ(f.transport.buffer_drops(), 3u);
}

TEST(Transport, PurgeListenerCoversRefusalAndOversized) {
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_newest;
  Fixture f(2, opts);
  std::vector<int> purged;
  f.transport.set_purge_listener(
      [&](NodeId, NodeId, const PacketPtr& pkt, bool) {
        purged.push_back(dynamic_cast<const TestPacket*>(pkt.get())->tag);
      });
  // Tail drop refuses the arriving packet itself.
  for (int i = 0; i < 4; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
  }
  EXPECT_EQ(purged, (std::vector<int>{2, 3}));
  // Oversized packets can never fit and are reported too.
  f.transport.send(0, 1, make_packet(99), 5000, true);
  EXPECT_EQ(purged.back(), 99);
  f.sim.run();
}

/// Encodes a TestPacket as `tag + 8` bytes with the tag in the first
/// byte, so the billed size depends on the packet and decoding yields a
/// new object.
class TagCodec final : public PacketCodec {
 public:
  std::vector<std::uint8_t> encode(const Packet& packet, NodeId,
                                   NodeId) const override {
    const int tag = dynamic_cast<const TestPacket&>(packet).tag;
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(tag) + 8, 0);
    bytes[0] = static_cast<std::uint8_t>(tag);
    return bytes;
  }
  PacketPtr decode(const std::vector<std::uint8_t>& bytes) const override {
    return make_packet(bytes.at(0));
  }
};

TEST(Transport, CodecDeliversDecodedPacketAndBillsEncodedSize) {
  const TagCodec codec;
  TransportOptions opts;
  opts.codec = &codec;
  Fixture f(2, opts);
  PacketPtr got;
  f.transport.register_handler(1,
                               [&](NodeId, const PacketPtr& p) { got = p; });
  const PacketPtr sent = make_packet(42);
  f.transport.send(0, 1, sent, 1000, true);  // the codec bills 50, not 1000
  f.sim.run();
  ASSERT_NE(got, nullptr);
  EXPECT_NE(got.get(), sent.get());
  EXPECT_EQ(dynamic_cast<const TestPacket&>(*got).tag, 42);
  EXPECT_EQ(f.transport.stats().total_bytes(), 50u);
  EXPECT_EQ(f.transport.stats().link(0, 1).payload_bytes, 50u);
}

TEST(Transport, CodecPurgeHandsListenerTheDecodedPacket) {
  const TagCodec codec;
  TransportOptions opts;
  opts.codec = &codec;
  opts.bandwidth_bps = 8'000;  // 1 byte/ms
  opts.egress_buffer_bytes = 120;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
  Fixture f(2, opts);
  std::vector<std::pair<const Packet*, int>> purged;  // (object, tag)
  f.transport.set_purge_listener(
      [&](NodeId, NodeId, const PacketPtr& pkt, bool) {
        purged.push_back(
            {pkt.get(), dynamic_cast<const TestPacket&>(*pkt).tag});
      });
  // 48 bytes in service, 49 queued; 50 more overflow the 120-byte buffer
  // and purge the queued (not the in-service) packet.
  const PacketPtr head = make_packet(40);
  const PacketPtr stale = make_packet(41);
  f.transport.send(0, 1, head, 1, true);
  f.transport.send(0, 1, stale, 1, true);
  f.transport.send(0, 1, make_packet(42), 1, true);
  ASSERT_EQ(purged.size(), 1u);
  EXPECT_NE(purged[0].first, stale.get());
  EXPECT_EQ(purged[0].second, 41);
  EXPECT_EQ(f.transport.egress_queued_bytes(0), 98u);
  f.sim.run();
  EXPECT_EQ(f.received[1],
            (std::vector<std::pair<NodeId, int>>{{0, 40}, {0, 42}}));
}

TEST(TrafficStats, LinkAndLinksUsedAfterReset) {
  TrafficStats s(3);
  s.record_send(0, 1, 10, true);
  s.record_send(1, 2, 5, false);
  EXPECT_EQ(s.links_used(), 2u);
  EXPECT_EQ(s.link(0, 1).payload_bytes, 10u);
  s.reset();
  EXPECT_EQ(s.links_used(), 0u);
  EXPECT_EQ(s.link(0, 1).packets, 0u);
  EXPECT_EQ(s.link(1, 2).bytes, 0u);
  EXPECT_TRUE(s.undirected_payload_counts().empty());
  s.record_send(2, 0, 7, true);
  EXPECT_EQ(s.links_used(), 1u);
  EXPECT_EQ(s.link(2, 0).bytes, 7u);
  EXPECT_EQ(s.link(2, 0).payload_packets, 1u);
  EXPECT_EQ(s.link(0, 1).packets, 0u);
}

TEST(TrafficStats, MergingTwoSlotsEqualsOneSlot) {
  constexpr std::uint32_t kNodes = 6;
  TrafficStats whole(kNodes);
  std::vector<TrafficStats> slots(2, TrafficStats(kNodes));
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.range(0, kNodes - 1));
    const auto dst =
        static_cast<NodeId>((src + rng.range(1, kNodes - 1)) % kNodes);
    const auto bytes = static_cast<std::size_t>(rng.range(1, 300));
    const bool payload = rng.chance(0.4);
    whole.record_send(src, dst, bytes, payload);
    slots[src % 2].record_send(src, dst, bytes, payload);
  }
  TrafficStats merged(kNodes);
  for (const TrafficStats& slot : slots) merged.merge(slot);
  EXPECT_EQ(merged.total_packets(), whole.total_packets());
  EXPECT_EQ(merged.total_bytes(), whole.total_bytes());
  EXPECT_EQ(merged.total_payload_packets(), whole.total_payload_packets());
  EXPECT_EQ(merged.links_used(), whole.links_used());
  for (NodeId a = 0; a < kNodes; ++a) {
    EXPECT_EQ(merged.node_sent_packets(a), whole.node_sent_packets(a));
    EXPECT_EQ(merged.node_sent_payload(a), whole.node_sent_payload(a));
    for (NodeId b = 0; b < kNodes; ++b) {
      const LinkCounters& m = merged.link(a, b);
      const LinkCounters& w = whole.link(a, b);
      EXPECT_EQ(m.packets, w.packets) << a << "->" << b;
      EXPECT_EQ(m.bytes, w.bytes) << a << "->" << b;
      EXPECT_EQ(m.payload_packets, w.payload_packets) << a << "->" << b;
      EXPECT_EQ(m.payload_bytes, w.payload_bytes) << a << "->" << b;
    }
  }
  EXPECT_EQ(merged.undirected_payload_counts(),
            whole.undirected_payload_counts());
}

TEST(TrafficStats, UndirectedCountsSumBothDirectionsTiesByEndpoint) {
  TrafficStats s(5);
  s.record_send(3, 1, 10, true);
  s.record_send(3, 1, 10, true);
  s.record_send(1, 3, 10, true);  // {1,3}: 3, both directions
  for (int i = 0; i < 3; ++i) s.record_send(2, 3, 10, true);  // {2,3}: 3
  s.record_send(4, 0, 10, true);
  s.record_send(4, 0, 10, true);  // {0,4}: 2, reverse direction only
  s.record_send(0, 2, 10, true);
  s.record_send(2, 0, 10, true);  // {0,2}: 2
  s.record_send(0, 1, 10, false);  // {0,1}: control only
  const std::vector<ConnectionPayload> want = {
      {{1, 3}, 3}, {{2, 3}, 3}, {{0, 2}, 2}, {{0, 4}, 2}, {{0, 1}, 0}};
  EXPECT_EQ(s.undirected_payload_counts(), want);
}

TEST(Transport, DropOldestKeepsAccountingConsistentUnderOverload) {
  // Satellite invariant pin: the in-service head guard means a purge never
  // touches the transmitting slot, and `queued_bytes` must equal the sum
  // of queued packet sizes after every mutation of the egress queue.
  TransportOptions opts;
  opts.bandwidth_bps = 8'000;
  opts.egress_buffer_bytes = 2500;
  opts.purge_policy = TransportOptions::PurgePolicy::drop_oldest;
  Fixture f(2, opts);
  for (int i = 0; i < 200; ++i) {
    f.transport.send(0, 1, make_packet(i), 1000, true);
    ASSERT_TRUE(f.transport.egress_accounting_consistent(0));
    ASSERT_LE(f.transport.egress_queued_bytes(0), 2500u);
    ASSERT_GE(f.transport.egress_depth(0), 1u);  // head never purged
  }
  f.sim.run();
  EXPECT_TRUE(f.transport.egress_accounting_consistent(0));
  EXPECT_EQ(f.transport.egress_depth(0), 0u);
  EXPECT_EQ(f.transport.egress_queued_bytes(0), 0u);
  // Head survived and the freshest packet survived — 198 purged.
  EXPECT_EQ(f.transport.buffer_drops(), 198u);
  ASSERT_EQ(f.received[1].size(), 2u);
}

TEST(Transport, JitterStaysWithinBounds) {
  TransportOptions opts;
  opts.jitter = 0.2;
  Fixture f(2, opts);
  std::vector<SimTime> arrivals;
  f.transport.register_handler(1, [&](NodeId, const PacketPtr&) {
    arrivals.push_back(f.sim.now());
  });
  for (int i = 0; i < 500; ++i) f.transport.send(0, 1, make_packet(), 1, false);
  f.sim.run();
  bool varied = false;
  for (const SimTime a : arrivals) {
    EXPECT_GE(a, 8 * kMillisecond);
    EXPECT_LE(a, 12 * kMillisecond);
    varied |= a != arrivals[0];
  }
  EXPECT_TRUE(varied);
}

TEST(Transport, PartitionDropsCrossGroupTraffic) {
  Fixture f(4);
  f.transport.set_partition({0, 0, 1, 1});
  f.transport.send(0, 1, make_packet(1), 10, false);  // same side
  f.transport.send(0, 2, make_packet(2), 10, false);  // cross
  f.transport.send(3, 2, make_packet(3), 10, false);  // same side
  f.sim.run();
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[2].size(), 1u);
  EXPECT_EQ(f.received[2][0].second, 3);
  EXPECT_EQ(f.transport.partition_drops(), 1u);

  f.transport.heal_partition();
  f.transport.send(0, 2, make_packet(4), 10, false);
  f.sim.run();
  EXPECT_EQ(f.received[2].size(), 2u);
  EXPECT_EQ(f.transport.partition_drops(), 1u);
}

TEST(Transport, PartitionRequiresFullAssignment) {
  Fixture f(3);
  EXPECT_THROW(f.transport.set_partition({0, 1}), CheckFailure);
}

TEST(Transport, InvalidOptionsRejected) {
  sim::Simulator sim;
  ConstantLatencyModel lat(1);
  TransportOptions bad_loss;
  bad_loss.loss_rate = 1.0;
  EXPECT_THROW(Transport(sim, lat, 2, bad_loss, Rng(1)), CheckFailure);
  TransportOptions bad_jitter;
  bad_jitter.jitter = 1.5;
  EXPECT_THROW(Transport(sim, lat, 2, bad_jitter, Rng(1)), CheckFailure);
}

TEST(LatencyModels, RandomModelIsSymmetricWithinRange) {
  RandomLatencyModel model(10, 5, 50, 3);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 0; b < 10; ++b) {
      if (a == b) continue;
      EXPECT_EQ(model.one_way(a, b), model.one_way(b, a));
      EXPECT_GE(model.one_way(a, b), 5);
      EXPECT_LE(model.one_way(a, b), 50);
    }
  }
}

}  // namespace
}  // namespace esm::net
