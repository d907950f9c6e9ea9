// Micro-benchmarks (google-benchmark) for the hot paths that bound
// experiment throughput: the event queue, the RNG, transport dispatch,
// Cyclon shuffles and underlay routing.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "common/rng.hpp"
#include "net/path_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "core/scheduler.hpp"
#include "core/strategies.hpp"
#include "overlay/cyclon.hpp"
#include "wire/codec.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace esm;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(100));
  }
}
BENCHMARK(BM_RngBelow);

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_at(i, [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule_at(i, [] {}));
    }
    for (int i = 0; i < 1000; i += 2) sim.cancel(handles[static_cast<size_t>(i)]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorCancelHeavy);

void BM_SimulatorScheduleCancelInterleaved(benchmark::State& state) {
  // The retransmission-timer pattern: every scheduled event is cancelled
  // and replaced before it fires, so the queue stays small while the
  // schedule/cancel churn is maximal. Exercises slot reuse + generation
  // bumping on the slab path (hash insert/erase on the old map path).
  constexpr int kLive = 64;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles(kLive);
    int fired = 0;
    for (int i = 0; i < kLive; ++i) {
      handles[static_cast<size_t>(i)] =
          sim.schedule_at(1000 + i, [&fired] { ++fired; });
    }
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < kLive; ++i) {
        sim.cancel(handles[static_cast<size_t>(i)]);
        handles[static_cast<size_t>(i)] =
            sim.schedule_at(1000 + round * 7 + i, [&fired] { ++fired; });
      }
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 200 * kLive);
}
BENCHMARK(BM_SimulatorScheduleCancelInterleaved);

void BM_PeriodicTimerRestartStorm(benchmark::State& state) {
  // Timer churn: a bank of periodic timers that is restarted far more
  // often than it ticks — the overlay-shuffle/monitor pattern under churn.
  constexpr int kTimers = 32;
  for (auto _ : state) {
    sim::Simulator sim;
    int ticks = 0;
    std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
    timers.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(std::make_unique<sim::PeriodicTimer>(
          sim, [&ticks] { ++ticks; }));
    }
    for (int round = 0; round < 100; ++round) {
      for (auto& t : timers) t->start(500, 1000);
      sim.run_until(sim.now() + 100);  // restart long before any tick
    }
    for (auto& t : timers) t->stop();
    sim.run();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 100 * kTimers);
}
BENCHMARK(BM_PeriodicTimerRestartStorm);

struct NoopPacket final : net::Packet {};

void BM_TransportSendDeliver(benchmark::State& state) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1000);
  net::Transport transport(sim, latency, 2, {}, Rng(1));
  std::uint64_t delivered = 0;
  transport.register_handler(1, [&](NodeId, const net::PacketPtr&) {
    ++delivered;
  });
  const auto packet = std::make_shared<NoopPacket>();
  for (auto _ : state) {
    transport.send(0, 1, packet, 280, true);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportSendDeliver);

void BM_CyclonShuffleRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1000);
  net::Transport transport(sim, latency, n, {}, Rng(1));
  std::vector<std::unique_ptr<overlay::CyclonNode>> nodes;
  Rng boot(7);
  for (NodeId id = 0; id < n; ++id) {
    nodes.push_back(std::make_unique<overlay::CyclonNode>(
        sim, transport, id, overlay::OverlayParams{}, Rng(100 + id)));
    std::vector<NodeId> contacts;
    for (int k = 0; k < 15; ++k) {
      const NodeId c = static_cast<NodeId>(boot.below(n));
      if (c != id) contacts.push_back(c);
    }
    nodes[id]->bootstrap(contacts);
    transport.register_handler(id,
                               [&nodes, id](NodeId src, const net::PacketPtr& p) {
                                 nodes[id]->handle_packet(src, p);
                               });
  }
  for (auto& node : nodes) node->start();
  for (auto _ : state) {
    sim.run_until(sim.now() + 1 * kSecond);  // one shuffle round per node
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CyclonShuffleRound)->Arg(100)->Arg(400);

void BM_SchedulerEagerPath(benchmark::State& state) {
  sim::Simulator sim;
  net::ConstantLatencyModel latency(1000);
  net::Transport transport(sim, latency, 2, {}, Rng(1));
  core::FlatStrategy strategy(1.0, {}, Rng(2));
  int received = 0;
  core::PayloadScheduler sender(sim, transport, 0, strategy,
                                [](const core::AppMessage&, Round, NodeId) {});
  core::PayloadScheduler receiver(
      sim, transport, 1, strategy,
      [&received](const core::AppMessage&, Round, NodeId) { ++received; });
  transport.register_handler(1, [&](NodeId src, const net::PacketPtr& p) {
    receiver.handle_packet(src, p);
  });
  std::uint64_t n = 0;
  core::AppMessage msg;
  msg.payload_bytes = 256;
  for (auto _ : state) {
    msg.id = MsgId{++n, n};
    sender.l_send(msg, 1, 1);
    sim.run();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerEagerPath);

void BM_WireEncodeDecodeData(benchmark::State& state) {
  core::DataPacket packet;
  packet.msg.id = MsgId{7, 8};
  packet.msg.payload_bytes = 256;
  packet.round = 3;
  for (auto _ : state) {
    const auto bytes = wire::encode_packet(packet, 0, 1);
    benchmark::DoNotOptimize(wire::decode_packet(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEncodeDecodeData);

void BM_TopologyGenerate(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::generate_topology(params, 42));
  }
}
BENCHMARK(BM_TopologyGenerate)->Unit(benchmark::kMillisecond);

void BM_ClientRouting(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 100;
  const net::Topology topo = net::generate_topology(params, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::compute_client_metrics(topo));
  }
  state.SetItemsProcessed(state.iterations() * params.num_clients);
}
BENCHMARK(BM_ClientRouting)->Unit(benchmark::kMillisecond);

// One on-demand row per iteration: a 1-byte cache budget keeps a single
// row resident, so cycling the source client recomputes a row each query.
void BM_OnDemandRow(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 100;
  const net::Topology topo = net::generate_topology(params, 42);
  const net::OnDemandPathModel lazy(topo, topo.latency_scale, 1);
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lazy.latency(src, 0));
    src = (src + 1) % params.num_clients;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnDemandRow)->Unit(benchmark::kMicrosecond);

// The closed-form calibration probe used above the dense cutover.
void BM_MeanClientLatency(benchmark::State& state) {
  net::TopologyParams params;
  params.num_clients = 2100;
  const net::Topology topo = net::generate_topology(params, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::mean_client_latency_us(topo, topo.latency_scale));
  }
}
BENCHMARK(BM_MeanClientLatency)->Unit(benchmark::kMillisecond);

}  // namespace
