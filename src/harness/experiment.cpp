#include "harness/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/compact.hpp"
#include "core/gossip.hpp"
#include "core/monitor.hpp"
#include "core/noise.hpp"
#include "core/scheduler.hpp"
#include "core/strategies.hpp"
#include "fault/injector.hpp"
#include "load/workload.hpp"
#include "net/latency_model.hpp"
#include "net/path_model.hpp"
#include "net/transport.hpp"
#include "obs/goodput.hpp"
#include "obs/lifecycle.hpp"
#include "overlay/cyclon.hpp"
#include "overlay/hyparview.hpp"
#include "overlay/neem.hpp"
#include "overlay/static_overlay.hpp"
#include "rank/rank_estimator.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"

namespace esm::harness {

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::flat: return "flat";
    case StrategyKind::ttl: return "ttl";
    case StrategyKind::radius: return "radius";
    case StrategyKind::ranked: return "ranked";
    case StrategyKind::hybrid: return "hybrid";
    case StrategyKind::adaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(MonitorKind kind) {
  switch (kind) {
    case MonitorKind::oracle_latency: return "oracle-latency";
    case MonitorKind::distance: return "distance";
    case MonitorKind::ping: return "ping";
    case MonitorKind::piggyback: return "piggyback";
  }
  return "?";
}

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::cyclon: return "cyclon";
    case OverlayKind::static_random: return "static";
    case OverlayKind::hyparview: return "hyparview";
    case OverlayKind::neem: return "neem";
    case OverlayKind::oracle: return "oracle";
  }
  return "?";
}

const char* to_string(KillMode mode) {
  switch (mode) {
    case KillMode::none: return "none";
    case KillMode::random: return "random";
    case KillMode::best_ranked: return "best-ranked";
  }
  return "?";
}

StrategySpec StrategySpec::make_flat(double pi) {
  StrategySpec s;
  s.kind = StrategyKind::flat;
  s.pi = pi;
  return s;
}

StrategySpec StrategySpec::make_ttl(Round u) {
  StrategySpec s;
  s.kind = StrategyKind::ttl;
  s.u = u;
  return s;
}

StrategySpec StrategySpec::make_radius(double rho_ms) {
  StrategySpec s;
  s.kind = StrategyKind::radius;
  s.rho = rho_ms;
  return s;
}

StrategySpec StrategySpec::make_ranked(double best_fraction) {
  StrategySpec s;
  s.kind = StrategyKind::ranked;
  s.best_fraction = best_fraction;
  return s;
}

StrategySpec StrategySpec::make_hybrid(double rho_ms, Round u,
                                       double best_fraction) {
  StrategySpec s;
  s.kind = StrategyKind::hybrid;
  s.rho = rho_ms;
  s.u = u;
  s.best_fraction = best_fraction;
  return s;
}

namespace {
std::string trim_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}
}  // namespace

StrategySpec StrategySpec::make_adaptive(double t0_ms) {
  StrategySpec s;
  s.kind = StrategyKind::adaptive;
  s.t0 = static_cast<SimTime>(t0_ms * kMillisecond);
  return s;
}

std::string StrategySpec::describe() const {
  std::string out = to_string(kind);
  switch (kind) {
    case StrategyKind::flat:
      out += " pi=" + trim_num(pi);
      break;
    case StrategyKind::ttl:
      out += " u=" + std::to_string(u);
      break;
    case StrategyKind::radius:
      out += " rho=" + trim_num(rho);
      break;
    case StrategyKind::ranked:
      out += " best=" + trim_num(best_fraction);
      break;
    case StrategyKind::hybrid:
      out += " rho=" + trim_num(rho) + " u=" + std::to_string(u) +
             " best=" + trim_num(best_fraction);
      break;
    case StrategyKind::adaptive:
      out += " t0=" + trim_num(to_ms(t0)) + "ms";
      break;
  }
  if (use_gossip_rank) out += " gossip-rank";
  if (noise > 0.0) out += " noise=" + trim_num(noise);
  return out;
}

namespace {

/// Closeness ranking from precomputed per-node latency sums. Splitting
/// this out lets run_experiment reuse one closeness_sums() pass for the
/// ranking, the kill list and the gossip-rank seed scores.
std::vector<NodeId> order_by_closeness_sums(const std::vector<double>& sums) {
  const auto n = static_cast<std::uint32_t>(sums.size());
  std::vector<double> mean_latency(n, 0.0);
  for (NodeId a = 0; a < n; ++a) {
    mean_latency[a] = n > 1 ? sums[a] / static_cast<double>(n - 1) : 0.0;
  }
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (mean_latency[a] != mean_latency[b]) {
      return mean_latency[a] < mean_latency[b];
    }
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<NodeId> rank_by_closeness(const net::PathModel& metrics) {
  return order_by_closeness_sums(metrics.closeness_sums());
}

namespace {

/// Everything one virtual node runs. Pointers give address stability for
/// the cross-layer callbacks.
struct NodeStack {
  std::unique_ptr<overlay::CyclonNode> cyclon;
  std::unique_ptr<overlay::FullMembershipSampler> oracle_sampler;
  std::unique_ptr<overlay::StaticNeighborSampler> static_sampler;
  std::unique_ptr<overlay::HyParViewNode> hyparview;
  std::unique_ptr<overlay::NeemNode> neem;
  overlay::PeerSampler* sampler = nullptr;
  std::unique_ptr<core::PingMonitor> ping;
  std::unique_ptr<core::PiggybackMonitor> piggyback;
  std::unique_ptr<rank::GossipRankEstimator> rank_estimator;
  std::unique_ptr<core::TransmissionStrategy> strategy;
  core::NoisyStrategy* noisy = nullptr;  // view into strategy when wrapped
  std::unique_ptr<core::PayloadScheduler> scheduler;
  std::unique_ptr<core::GossipNode> gossip;
};

std::unique_ptr<core::TransmissionStrategy> make_strategy(
    const ExperimentConfig& config, NodeId self,
    const core::PerformanceMonitor* monitor, const core::BestSet* best,
    Rng rng) {
  const StrategySpec& spec = config.strategy;
  core::RequestPolicy policy;
  policy.retransmission_period = config.retransmission_period;
  policy.max_rounds = config.max_request_rounds;
  policy.first_request_delay = 0;
  if (spec.kind == StrategyKind::radius || spec.kind == StrategyKind::hybrid) {
    if (spec.t0 > 0) {
      policy.first_request_delay = spec.t0;
    } else if (spec.monitor == MonitorKind::distance) {
      policy.first_request_delay = 100 * kMillisecond;
    } else {
      // T0 ~ one RTT within the radius (rho is in milliseconds here).
      policy.first_request_delay =
          static_cast<SimTime>(2.0 * spec.rho * kMillisecond);
    }
  } else if (spec.kind == StrategyKind::adaptive) {
    // The Plumtree IHAVE timer: give the eager copy a chance to arrive
    // before pulling (a pull grafts the serving link eager).
    policy.first_request_delay =
        spec.t0 > 0 ? spec.t0 : 100 * kMillisecond;
  }

  switch (spec.kind) {
    case StrategyKind::flat:
      return std::make_unique<core::FlatStrategy>(spec.pi, policy, rng);
    case StrategyKind::ttl:
      return std::make_unique<core::TtlStrategy>(spec.u, policy);
    case StrategyKind::radius:
      ESM_CHECK(monitor != nullptr, "radius strategy requires a monitor");
      return std::make_unique<core::RadiusStrategy>(self, *monitor, spec.rho,
                                                    policy);
    case StrategyKind::ranked:
      ESM_CHECK(best != nullptr, "ranked strategy requires a best set");
      return std::make_unique<core::RankedStrategy>(self, *best, policy);
    case StrategyKind::hybrid:
      ESM_CHECK(monitor != nullptr && best != nullptr,
                "hybrid strategy requires a monitor and a best set");
      return std::make_unique<core::HybridStrategy>(self, *best, *monitor,
                                                    spec.rho, spec.u, policy);
    case StrategyKind::adaptive:
      return std::make_unique<core::AdaptiveLinkStrategy>(policy);
  }
  ESM_CHECK(false, "unknown strategy kind");
  return nullptr;
}

/// The execution backend. shards == 1 holds one Simulator: the
/// single-threaded engine the golden fingerprints pin. shards >= 2 holds
/// a ShardedSimulator advancing per-shard simulators through conservative
/// windows; it is bit-identical at any shard count but may order
/// same-microsecond arrival ties differently from the single engine.
/// Everything a node schedules goes to sim_for(node). Run-global actors
/// (GC, census, churn, scenario events) go to control(): the one simulator
/// at shards == 1, the coordinator's control simulator otherwise, whose
/// events run while every shard worker is parked at the window barrier.
class Engine {
 public:
  explicit Engine(std::uint32_t shards) {
    if (shards >= 2) {
      sharded_.emplace(shards);
    } else {
      single_.emplace();
    }
  }

  std::uint32_t shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }
  /// The sharded backend, or nullptr on the single engine.
  sim::ShardedSimulator* sharded() { return sharded_ ? &*sharded_ : nullptr; }
  sim::Simulator& sim_for(NodeId node) {
    return sharded_ ? sharded_->shard_for(node) : *single_;
  }
  std::uint32_t shard_of(NodeId node) const {
    return sharded_ ? sharded_->shard_of(node) : 0;
  }
  sim::Simulator& control() {
    return sharded_ ? sharded_->control() : *single_;
  }
  void run_until(SimTime t) {
    if (sharded_) {
      sharded_->run_until(t);
    } else {
      single_->run_until(t);
    }
  }
  SimTime now() const { return sharded_ ? sharded_->now() : single_->now(); }
  std::uint64_t events_executed() const {
    return sharded_ ? sharded_->events_executed() : single_->events_executed();
  }

 private:
  std::optional<sim::Simulator> single_;
  std::optional<sim::ShardedSimulator> sharded_;
};

}  // namespace

std::string shard_gate_error(const ExperimentConfig& config) {
  if (config.shards < 2) return {};
  if (!config.scenario.empty()) {
    return "--shards >= 2: scenario scripts need the single-threaded engine";
  }
  if (config.churn_rate > 0.0) {
    return "--shards >= 2: --churn needs the single-threaded engine";
  }
  if (config.collect_trace || config.collect_tree_stats ||
      config.trace_sink != nullptr) {
    return "--shards >= 2: trace collection (--trace*, --tree-stats) needs "
           "the single-threaded engine";
  }
  if (config.strategy.noise > 0.0) {
    return "--shards >= 2: --noise needs the single-threaded engine (the "
           "shared calibration is order-dependent)";
  }
  return {};
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  // The CLI checks the same gates at parse time, but tools mutate the
  // config after parsing (esm_run applies --trace / --metrics-out itself),
  // so the run is where the contract is enforced.
  if (const std::string gate = shard_gate_error(config); !gate.empty()) {
    throw CheckFailure(gate);
  }
  ESM_CHECK(config.num_nodes >= 2, "need at least two nodes");
  ESM_CHECK(config.kill_fraction >= 0.0 && config.kill_fraction < 1.0,
            "kill fraction must be in [0, 1)");
  config.scenario.validate(config.num_nodes);
  Rng root(config.seed);

  // --- build_world: workload plan, underlay, ranking, engine, transport ---
  // Heavy-traffic workload: resolve the whole arrival plan up front from
  // a dedicated RNG split. split() is const, so legacy runs (empty
  // workload) draw exactly the same sequences as before this subsystem
  // existed — the golden fingerprints pin that.
  const bool use_workload = !config.workload.empty();
  load::WorkloadPlan plan;
  if (use_workload) {
    plan = load::build_plan(config.workload, config.num_nodes,
                            root.split(0x776b6c64ULL));  // "wkld"
    ESM_CHECK(!plan.arrivals.empty(),
              "workload generated no arrivals (rate * duration too small)");
  }
  const std::uint32_t num_messages =
      use_workload ? static_cast<std::uint32_t>(plan.size())
                   : config.num_messages;
  // Mean spacing between multicasts, for sizing the GC message window.
  const SimTime effective_interval =
      use_workload
          ? config.workload.duration / static_cast<SimTime>(plan.size())
          : config.mean_interval;

  // Underlay and pairwise path metrics: dense matrix for small N,
  // memory-bounded on-demand rows above the cutover (or whatever the
  // config forces).
  net::TopologyParams topo_params = config.topology;
  topo_params.num_clients = config.num_nodes;
  const net::Topology topo = generate_topology(topo_params, config.seed);
  const std::unique_ptr<net::PathModel> path_model =
      net::make_path_model(topo, config.path_model, config.path_cache_bytes);
  const net::PathModel& metrics = *path_model;
  net::PathLatencyModel latency(metrics);

  const bool needs_monitor = config.strategy.kind == StrategyKind::radius ||
                             config.strategy.kind == StrategyKind::hybrid;
  const bool needs_best = config.strategy.kind == StrategyKind::ranked ||
                          config.strategy.kind == StrategyKind::hybrid;
  const bool use_gossip_rank = needs_best && config.strategy.use_gossip_rank;
  // The oracle closeness ranking costs O(N²) point queries, so it is only
  // computed when something consumes it: a ranked/hybrid best set, a
  // best-ranked kill list, or a fault scenario (whose crash-best events
  // address nodes by rank).
  const bool needs_closeness =
      needs_best ||
      (config.kill_fraction > 0.0 &&
       config.kill_mode == KillMode::best_ranked) ||
      !config.scenario.empty() ||
      // Tree stats compare interior-node concentration against the
      // capacity ranking even for unranked strategies.
      config.collect_tree_stats;

  std::vector<double> closeness_sums;
  std::vector<NodeId> closeness_order;
  if (needs_closeness) {
    closeness_sums = metrics.closeness_sums();
    closeness_order = order_by_closeness_sums(closeness_sums);
  }

  std::vector<NodeId> oracle_best;
  if (needs_best) {
    const auto num_best = static_cast<std::uint32_t>(std::lround(
        config.strategy.best_fraction *
        static_cast<double>(config.num_nodes)));
    oracle_best.assign(closeness_order.begin(),
                       closeness_order.begin() +
                           std::min<std::uint32_t>(num_best,
                                                   config.num_nodes));
  }

  Engine engine(config.shards);
  const std::uint32_t num_shards = engine.shards();
  // Sharded: the conservative window width. Jitter can shrink a one-way
  // delay to (1 - jitter) of the routed latency, never below, so that
  // scaling of the model's lower bound is a valid lookahead for every
  // cross-shard packet.
  SimTime lookahead = 0;
  if (sim::ShardedSimulator* world = engine.sharded()) {
    const auto path_floor =
        static_cast<double>(metrics.min_latency_lower_bound());
    lookahead = std::max<SimTime>(
        1,
        static_cast<SimTime>(std::floor(path_floor * (1.0 - config.jitter))));
    world->set_lookahead(lookahead);
  }
  // Sharded: the on-demand path model mutates an LRU row cache under
  // latency(), so each shard gets a private replica (identical answers,
  // separate caches). The dense matrix is immutable and safely shared.
  const bool path_replicas =
      num_shards >= 2 &&
      net::resolve_path_model(config.path_model, config.num_nodes) ==
          net::PathModelKind::ondemand;
  std::vector<std::unique_ptr<net::PathModel>> shard_paths;
  std::deque<net::PathLatencyModel> shard_latency_models;
  std::vector<const net::LatencyModel*> shard_latency;
  if (path_replicas) {
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      shard_paths.push_back(net::make_path_model(topo, config.path_model,
                                                 config.path_cache_bytes));
      shard_latency_models.emplace_back(*shard_paths.back());
      shard_latency.push_back(&shard_latency_models.back());
    }
  }

  net::TransportOptions topts;
  topts.loss_rate = config.loss_rate;
  topts.bandwidth_bps = config.bandwidth_bps;
  topts.jitter = config.jitter;
  topts.egress_buffer_bytes = config.egress_buffer_bytes;
  topts.purge_policy = config.purge_policy;
  if (config.backpressure && config.egress_buffer_bytes > 0) {
    topts.high_watermark = config.bp_high_watermark;
    topts.low_watermark = config.bp_low_watermark;
  }
  if (config.slow_fraction > 0.0) {
    topts.node_bandwidth_bps.assign(config.num_nodes, config.bandwidth_bps);
    std::vector<NodeId> everyone(config.num_nodes);
    std::iota(everyone.begin(), everyone.end(), 0);
    Rng slow_rng = root.split(0x736c6f77ULL);
    const auto num_slow = static_cast<std::uint32_t>(std::lround(
        config.slow_fraction * static_cast<double>(config.num_nodes)));
    for (const NodeId s : slow_rng.sample(everyone, num_slow)) {
      topts.node_bandwidth_bps[s] = config.slow_bandwidth_bps;
    }
  }
  const wire::WireCodec wire_codec;
  if (config.use_wire_codec) topts.codec = &wire_codec;
  // Sharded: the constructor's simulator is only the unsharded fallback;
  // bind_shards() switches every per-node schedule to the shard sims and
  // splits the transport's accounting and RNG per shard/node.
  net::Transport transport(engine.sim_for(0), latency, config.num_nodes,
                           topts, root.split(0x7472616eULL));
  if (sim::ShardedSimulator* world = engine.sharded()) {
    transport.bind_shards(*world, shard_latency);
  }

  // Shared oracle components. Radius/hybrid metric() queries run on the
  // querying node's shard, so with path replicas each shard's nodes read a
  // monitor over their shard's private latency replica.
  std::deque<core::OracleLatencyMonitor> oracle_monitors;
  if (path_replicas) {
    for (const net::PathLatencyModel& replica : shard_latency_models) {
      oracle_monitors.emplace_back(replica);
    }
  } else {
    oracle_monitors.emplace_back(latency);
  }
  core::DistanceMonitor distance_monitor(topo.client_coords);
  core::StaticBestSet static_best(oracle_best);

  // One system-wide noise calibration (paper §4.3: a single constant c).
  // Strategies are also wrapped (at zero noise, an exact identity) when a
  // scenario ramps noise mid-run, so the injector has a knob to turn.
  auto noise_calibration = std::make_shared<core::NoiseCalibration>();
  const bool wrap_noise =
      config.strategy.noise > 0.0 || config.scenario.has_noise_events();

  // --- wire_nodes: accumulators, observers, per-node stacks, warm-up -----
  struct MsgRecord {
    std::uint32_t deliveries = 0;
    /// Nodes alive when the message was multicast (the reliability
    /// denominator; only differs from the global live count under churn).
    std::uint32_t live_at_send = 0;
    stats::RunningStat latency_ms;  // non-origin deliveries
  };
  std::vector<MsgRecord> messages(num_messages);
  stats::Samples all_latency_ms;
  std::uint64_t offtopic_deliveries = 0;
  // Delivery accounting. The latency Samples/RunningStat are
  // order-sensitive, so they consume deliveries in one canonical order:
  // execution order on the single engine (inline), and on the sharded
  // engine the per-shard logs replayed after the run in (time, node)
  // order. Entries sharing a (time, node) pair come from one shard's log
  // in its execution order, so a stable sort yields an order that does
  // not depend on the shard count.
  struct DeliveryRec {
    SimTime at = 0;
    NodeId node = kInvalidNode;
    std::uint32_t seq = 0;
    SimTime latency = 0;
    bool on_topic = true;
    bool origin = false;
  };
  auto apply_delivery = [&](const DeliveryRec& rec) {
    if (!rec.on_topic) {
      ++offtopic_deliveries;
      return;
    }
    MsgRecord& m = messages.at(rec.seq);
    ++m.deliveries;
    if (!rec.origin) {
      const double ms = to_ms(rec.latency);
      m.latency_ms.add(ms);
      all_latency_ms.add(ms);
    }
  };
  std::vector<std::vector<DeliveryRec>> delivery_log(
      num_shards >= 2 ? num_shards : 0);
  // Every other mutable accumulator a node callback touches has one slot
  // per shard; order-insensitive counters merge by summation afterwards.
  std::vector<std::vector<std::uint32_t>> payload_tx(
      num_shards, std::vector<std::uint32_t>(num_messages, 0));
  // Goodput/saturation accounting (always on: plain counters, no RNG
  // draws, no events — legacy runs get the metrics for free).
  std::deque<obs::GoodputTracker> goodputs;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    goodputs.emplace_back(config.warmup);
  }
  // Run-wide message intern table + canonical payload store, shared by
  // every node's scheduler and gossip layer (see core/msg_arena.hpp); one
  // per shard. MsgIds are global, the interned MsgKeys are shard-local —
  // nothing ever compares keys across shards.
  std::deque<core::MessageArena> arenas(num_shards);
  for (core::MessageArena& arena : arenas) arena.reserve(num_messages);

  // Topic scoping: per-message topic tag and per-topic membership bitsets.
  // A delivery at a non-member node is a protocol-level relay, not a
  // useful delivery — it stays out of reliability/latency/goodput.
  std::vector<std::uint32_t> msg_topic(
      use_workload ? num_messages : 0, load::kNoTopic);
  std::vector<compact::DynamicBitset> topic_member(plan.topic_members.size());
  for (std::size_t t = 0; t < plan.topic_members.size(); ++t) {
    for (const NodeId m : plan.topic_members[t]) topic_member[t].set(m);
  }
  if (use_workload) {
    for (std::uint32_t i = 0; i < num_messages; ++i) {
      msg_topic[i] = plan.arrivals[i].topic;
    }
  }

  // Single-threaded observers: the trace, per-phase windows and the
  // message-lifecycle tracker (shard_gate_error keeps the first two off
  // the sharded engine; the tracker is skipped there).
  ESM_CHECK(!(config.collect_tree_stats && config.trace_sink != nullptr),
            "tree stats need the buffered trace; incompatible with a stream "
            "sink");
  std::shared_ptr<trace::TraceLog> trace_log =
      (config.collect_trace || config.collect_tree_stats ||
       config.trace_sink != nullptr)
          ? std::make_shared<trace::TraceLog>()
          : nullptr;
  if (trace_log && config.trace_sink != nullptr) {
    trace_log->stream_to(*config.trace_sink);
  }
  // Delivery attribution for tree reconstruction: per-directed-link FIFO
  // queues match each accepted payload packet back to the send that
  // produced it (stamping its receive time on the trace row), and
  // last_accept remembers which sender's payload delivered each message at
  // each node — the node's parent in the dissemination tree. Pure
  // observation: no RNG draws, no protocol effect, zero cost without a
  // trace.
  struct InFlightPayload {
    std::uint32_t seq = 0;
    SimTime sent = 0;
    trace::TraceLog::PayloadHandle handle = trace::TraceLog::kNoHandle;
    bool eager = false;
  };
  compact::FlatMap<std::uint64_t, std::deque<InFlightPayload>> in_flight;
  struct LastAccept {
    MsgId id{};
    NodeId from = kInvalidNode;
    bool eager = true;
  };
  std::vector<LastAccept> last_accept(trace_log ? config.num_nodes : 0);
  // Per-phase windowed metrics; only scenario runs pay for the tracking.
  stats::PhaseWindows phase_windows(config.warmup);
  stats::PhaseWindows* const pw =
      config.scenario.empty() ? nullptr : &phase_windows;
  // Observability: metrics registries + message-lifecycle tracker, wired
  // into the protocol layers' observation hooks. Only metrics runs pay;
  // the sharded engine's document carries only the sim.shard.* block.
  std::shared_ptr<obs::RunMetrics> run_metrics =
      config.collect_metrics ? std::make_shared<obs::RunMetrics>() : nullptr;
  std::optional<obs::LifecycleTracker> tracker;
  if (run_metrics && num_shards == 1) {
    tracker.emplace(engine.control(), config.num_nodes, *run_metrics,
                    &arenas.front());
  }
  obs::LifecycleTracker* const trk = tracker ? &*tracker : nullptr;
  if (trk) {
    transport.set_drop_listener(
        [trk](NodeId src, NodeId dst, bool is_payload,
              net::Transport::DropReason reason) {
          trk->on_drop(src, dst, is_payload, reason);
        });
  }

  std::vector<std::unique_ptr<NodeStack>> nodes;
  nodes.reserve(config.num_nodes);

  // Fixed symmetric neighbor sets, when requested — compressed to one
  // shared CSR structure; samplers borrow their row instead of copying it.
  overlay::CsrAdjacency static_adj;
  if (config.overlay_kind == OverlayKind::static_random) {
    static_adj = overlay::CsrAdjacency::from_lists(
        overlay::build_symmetric_overlay(config.num_nodes,
                                         config.overlay.view_size,
                                         root.split(0x73746174ULL)));
  }

  // Pre-size per-node tables for the concurrently-tracked message window:
  // with GC, roughly lifetime / mean-interval messages are live at once;
  // without GC every message stays tracked. Pre-reserving keeps steady-
  // state runs from rehashing mid-measurement.
  const std::size_t expected_window =
      config.message_lifetime > 0 && effective_interval > 0
          ? std::min<std::size_t>(
                num_messages,
                static_cast<std::size_t>(config.message_lifetime /
                                         effective_interval) +
                    16)
          : num_messages;

  // Adaptive fanout: proportional to provisioned bandwidth, mean preserved.
  double mean_bw = 0.0;
  if (config.adaptive_fanout) {
    for (NodeId n = 0; n < config.num_nodes; ++n) {
      mean_bw += static_cast<double>(transport.node_bandwidth(n));
    }
    mean_bw /= static_cast<double>(config.num_nodes);
  }

  for (NodeId id = 0; id < config.num_nodes; ++id) {
    auto stack = std::make_unique<NodeStack>();
    Rng node_rng = root.split(0x100000ULL + id);
    // Everything this node schedules, and every accumulator its callbacks
    // touch, lives on its shard.
    sim::Simulator& nsim = engine.sim_for(id);
    sim::Simulator* const nsp = &nsim;
    const std::uint32_t shard = engine.shard_of(id);
    obs::GoodputTracker* const gp = &goodputs[shard];

    switch (config.overlay_kind) {
      case OverlayKind::static_random:
        stack->static_sampler =
            std::make_unique<overlay::StaticNeighborSampler>(
                static_adj, id, node_rng.split(1));
        stack->sampler = stack->static_sampler.get();
        break;
      case OverlayKind::oracle:
        stack->oracle_sampler =
            std::make_unique<overlay::FullMembershipSampler>(
                transport, id, node_rng.split(1));
        stack->sampler = stack->oracle_sampler.get();
        break;
      case OverlayKind::hyparview: {
        overlay::HyParViewParams hpv;
        hpv.active_size = config.overlay.view_size;
        stack->hyparview = std::make_unique<overlay::HyParViewNode>(
            nsim, transport, id, hpv, node_rng.split(1));
        stack->sampler = stack->hyparview.get();
        break;
      }
      case OverlayKind::neem: {
        overlay::NeemParams np;
        np.target_degree = config.overlay.view_size;
        np.max_degree = config.overlay.view_size + config.overlay.view_size / 3;
        stack->neem = std::make_unique<overlay::NeemNode>(
            nsim, transport, id, np, node_rng.split(1));
        stack->sampler = stack->neem.get();
        break;
      }
      case OverlayKind::cyclon:
        stack->cyclon = std::make_unique<overlay::CyclonNode>(
            nsim, transport, id, config.overlay, node_rng.split(1));
        stack->sampler = stack->cyclon.get();
        break;
    }

    const core::PerformanceMonitor* monitor = nullptr;
    if (needs_monitor) {
      switch (config.strategy.monitor) {
        case MonitorKind::oracle_latency:
          monitor = &oracle_monitors[path_replicas ? shard : 0];
          break;
        case MonitorKind::distance:
          monitor = &distance_monitor;
          break;
        case MonitorKind::ping:
          stack->ping = std::make_unique<core::PingMonitor>(
              nsim, transport, id, *stack->sampler, core::PingMonitor::Params{},
              node_rng.split(2));
          monitor = stack->ping.get();
          break;
        case MonitorKind::piggyback:
          stack->piggyback = std::make_unique<core::PiggybackMonitor>(id);
          monitor = stack->piggyback.get();
          break;
      }
    }

    const core::BestSet* best = nullptr;
    if (needs_best) {
      if (use_gossip_rank) {
        // Seeded with the oracle closeness score (higher = closer to
        // everyone = better node) from the closeness pass of build_world.
        stack->rank_estimator = std::make_unique<rank::GossipRankEstimator>(
            nsim, transport, id, *stack->sampler, -closeness_sums[id],
            config.strategy.best_fraction, rank::RankParams{},
            node_rng.split(3));
        best = stack->rank_estimator.get();
      } else {
        best = &static_best;
      }
    }

    stack->strategy =
        make_strategy(config, id, monitor, best, node_rng.split(4));
    if (wrap_noise) {
      auto noisy = std::make_unique<core::NoisyStrategy>(
          std::move(stack->strategy), config.strategy.noise,
          noise_calibration, node_rng.split(5));
      stack->noisy = noisy.get();
      stack->strategy = std::move(noisy);
    }

    NodeStack* raw = stack.get();
    stack->scheduler = std::make_unique<core::PayloadScheduler>(
        nsim, transport, id, *stack->strategy,
        [raw](const core::AppMessage& msg, Round round, NodeId src) {
          raw->gossip->l_receive(msg, round, src);
        },
        &arenas[shard]);
    stack->scheduler->reserve(expected_window);
    stack->scheduler->set_ihave_batch_window(config.ihave_batch_window);
    stack->scheduler->set_pull_order(config.pull_sched);
    if (config.backpressure) {
      core::PayloadScheduler::BackpressureConfig bp;
      bp.enabled = true;
      bp.max_replies_per_dst = config.bp_max_replies_per_dst;
      bp.readvertise_delay = config.retransmission_period;
      stack->scheduler->set_backpressure(bp);
      stack->scheduler->set_backpressure_listener(
          [gp](core::PayloadScheduler::BpEvent event) {
            if (event == core::PayloadScheduler::BpEvent::kEagerDeferred) {
              gp->on_defer();
            } else if (event ==
                       core::PayloadScheduler::BpEvent::kDropReadvertised) {
              gp->on_drop_recovery();
            }
          });
    }
    if (stack->piggyback) {
      core::PiggybackMonitor* piggyback = stack->piggyback.get();
      stack->scheduler->set_rtt_observer(
          [piggyback](NodeId peer, SimTime rtt) {
            piggyback->observe(peer, rtt);
          });
    }
    if (trk) {
      stack->scheduler->set_lazy_listener(
          [trk, id](const MsgId& mid, core::PayloadScheduler::LazyEvent event,
                    NodeId peer) { trk->on_lazy_event(id, mid, event, peer); });
    }
    std::vector<std::uint32_t>* const tx = &payload_tx[shard];
    stack->scheduler->set_send_listener(
        [tx, gp, trace_log, pw, id, nsp, &in_flight](
            const core::AppMessage& msg, NodeId dst, bool eager) {
          if (msg.seq < tx->size()) ++(*tx)[msg.seq];
          gp->on_payload();
          if (pw) pw->on_payload(id, dst);
          if (trace_log) {
            const auto handle = trace_log->record_payload(
                {nsp->now(), id, dst, msg.seq, eager});
            const std::uint64_t link =
                (static_cast<std::uint64_t>(id) << 32) | dst;
            in_flight[link].push_back({msg.seq, nsp->now(), handle, eager});
          }
        });
    if (trace_log) {
      stack->scheduler->set_accept_listener(
          [trace_log, &in_flight, &last_accept, id, nsp](
              NodeId src, const core::AppMessage& msg, bool duplicate) {
            const std::uint64_t link =
                (static_cast<std::uint64_t>(src) << 32) | id;
            bool eager = true;
            if (auto* queue = in_flight.find(link)) {
              // Entries older than any plausible one-way delay belong to
              // lost packets; drop them so the scan stays bounded.
              constexpr SimTime kLostAfter = 30 * kSecond;
              while (!queue->empty() &&
                     queue->front().sent + kLostAfter < nsp->now()) {
                queue->pop_front();
              }
              for (auto q = queue->begin(); q != queue->end(); ++q) {
                if (q->seq == msg.seq) {
                  trace_log->set_payload_recv(q->handle, nsp->now());
                  eager = q->eager;
                  queue->erase(q);
                  break;
                }
              }
              if (queue->empty()) in_flight.erase(link);
            }
            if (!duplicate) last_accept[id] = {msg.id, src, eager};
          });
    }

    core::GossipParams gossip_params = config.gossip;
    if (config.adaptive_fanout && mean_bw > 0.0) {
      const double scaled =
          static_cast<double>(config.gossip.fanout) *
          static_cast<double>(transport.node_bandwidth(id)) / mean_bw;
      gossip_params.fanout = static_cast<std::uint32_t>(std::clamp(
          std::lround(scaled), 3L,
          2L * static_cast<long>(config.gossip.fanout)));
    }
    std::vector<DeliveryRec>* const log =
        delivery_log.empty() ? nullptr : &delivery_log[shard];
    stack->gossip = std::make_unique<core::GossipNode>(
        id, gossip_params, *stack->sampler, *stack->scheduler,
        [&apply_delivery, log, gp, nsp, id, trace_log, pw, trk, &last_accept,
         &msg_topic, &topic_member](const core::AppMessage& msg) {
          // Topic gate: a delivery at a node outside the message's topic
          // is protocol relay traffic. It still feeds the lifecycle
          // tracker and the trace (the packet really arrived), but stays
          // out of reliability, latency, phase windows and goodput.
          const std::uint32_t topic =
              msg.seq < msg_topic.size() ? msg_topic[msg.seq]
                                         : load::kNoTopic;
          const bool on_topic =
              topic == load::kNoTopic || topic_member[topic].test(id);
          const SimTime now = nsp->now();
          const DeliveryRec rec{now,      id,        msg.seq,
                                now - msg.multicast_time, on_topic,
                                msg.origin == id};
          if (log) {
            log->push_back(rec);
          } else {
            apply_delivery(rec);
          }
          if (on_topic) {
            if (pw) pw->on_delivery(msg.seq, to_ms(rec.latency), rec.origin);
            gp->on_delivery(now);
          }
          if (trk) trk->on_delivery(id, msg.id, rec.latency);
          if (trace_log) {
            // The payload that delivered here was matched by the accept
            // listener synchronously upstream of this callback; the origin
            // delivers its own multicast (parent = itself, "eager").
            NodeId from = id;
            bool eager = true;
            if (!rec.origin) {
              const LastAccept& acc = last_accept[id];
              if (acc.id == msg.id) {
                from = acc.from;
                eager = acc.eager;
              } else {
                from = kInvalidNode;
              }
            }
            trace_log->record_delivery(
                {now, id, msg.origin, msg.seq, rec.latency, from, eager});
          }
        },
        node_rng.split(6));
    if (trk) {
      stack->gossip->set_relay_listener(
          [trk, id](const MsgId&, Round, std::size_t relayed_to) {
            trk->on_relay(id, relayed_to);
          });
    }

    nodes.push_back(std::move(stack));
  }

  // Packet mux: overlay -> ping -> rank -> scheduler.
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    NodeStack* stack = nodes[id].get();
    transport.register_handler(
        id, [stack](NodeId src, const net::PacketPtr& packet) {
          if (stack->cyclon && stack->cyclon->handle_packet(src, packet)) return;
          if (stack->hyparview && stack->hyparview->handle_packet(src, packet)) {
            return;
          }
          if (stack->neem && stack->neem->handle_packet(src, packet)) return;
          if (stack->ping && stack->ping->handle_packet(src, packet)) return;
          if (stack->rank_estimator &&
              stack->rank_estimator->handle_packet(src, packet)) {
            return;
          }
          if (stack->scheduler->handle_packet(src, packet)) return;
          // Unknown packet type: drop (future protocols may coexist).
        });
  }

  // Backpressure loop: the transport's watermark crossings flip each
  // scheduler's congestion flag (the low-watermark edge also flushes its
  // deferred work), and purged packets re-enter the owning scheduler's
  // advertise path. Installed only when enabled, so legacy runs keep the
  // listener-free fast path. Both listeners fire on the source node's
  // shard (send/drain/purge are source-side), so touching that shard's
  // goodput tracker and the source's scheduler is race-free.
  if (config.backpressure && config.egress_buffer_bytes > 0) {
    transport.set_watermark_listener(
        [&nodes, &goodputs, &engine](NodeId src, bool above_high) {
          goodputs[engine.shard_of(src)].on_watermark(
              engine.sim_for(src).now(), above_high);
          nodes[src]->scheduler->set_congested(above_high);
        });
    transport.set_purge_listener(
        [&nodes](NodeId src, NodeId dst, const net::PacketPtr& packet,
                 bool /*is_payload*/) {
          nodes[src]->scheduler->on_egress_purge(dst, *packet);
        });
  }

  // Bootstrap + warm-up. Cyclon bootstraps from a full view of random
  // contacts; NeEM from a few, its shuffles then mixing the connection
  // graph toward the target degree; HyParView joins are staggered, each
  // through a random already-joined contact.
  Rng boot = root.split(0x626f6f74ULL);
  auto random_contacts = [&config, &boot](NodeId id, std::size_t count) {
    std::vector<NodeId> contacts;
    while (contacts.size() < count && contacts.size() + 1 < config.num_nodes) {
      const NodeId c = static_cast<NodeId>(boot.below(config.num_nodes));
      if (c != id &&
          std::find(contacts.begin(), contacts.end(), c) == contacts.end()) {
        contacts.push_back(c);
      }
    }
    return contacts;
  };
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    NodeStack& node = *nodes[id];
    if (node.cyclon) {
      node.cyclon->bootstrap(random_contacts(id, config.overlay.view_size));
      node.cyclon->start();
    } else if (node.neem) {
      node.neem->bootstrap(random_contacts(id, 5));
      node.neem->start();
    } else if (node.hyparview) {
      node.hyparview->start();
      if (id == 0) continue;
      const NodeId contact = static_cast<NodeId>(boot.below(id));
      const SimTime when = 50 * kMillisecond * id;
      ESM_CHECK(when < config.warmup, "warmup too short for staggered joins");
      overlay::HyParViewNode* hpv = node.hyparview.get();
      engine.sim_for(id).schedule_at(when,
                                     [hpv, contact] { hpv->join(contact); });
    }
  }
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    if (nodes[id]->ping) nodes[id]->ping->start();
    if (nodes[id]->rank_estimator) nodes[id]->rank_estimator->start();
  }
  engine.run_until(config.warmup);

  // --- schedule: kills, churn, scenario, traffic, GC, census -------------
  // Failure injection: kills execute between run_until() segments, when
  // no shard worker is running.
  std::vector<bool> dead(config.num_nodes, false);
  const auto num_kill = static_cast<std::uint32_t>(std::lround(
      config.kill_fraction * static_cast<double>(config.num_nodes)));
  if (num_kill > 0 && config.kill_mode != KillMode::none) {
    std::vector<NodeId> victims;
    if (config.kill_mode == KillMode::random) {
      std::vector<NodeId> everyone(config.num_nodes);
      std::iota(everyone.begin(), everyone.end(), 0);
      Rng killer = root.split(0x6b696c6cULL);
      victims = killer.sample(everyone, num_kill);
    } else {  // best_ranked: exactly the biggest contributors (§6.3)
      victims.assign(closeness_order.begin(),
                     closeness_order.begin() +
                         std::min<std::uint32_t>(num_kill, config.num_nodes));
    }
    for (const NodeId v : victims) {
      transport.silence(v);
      dead[v] = true;
    }
  }
  std::vector<NodeId> live;
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    if (!dead[id]) live.push_back(id);
  }
  ESM_CHECK(!live.empty(), "all nodes were killed");

  transport.reset_stats();  // measure only the logged phase
  transport.reset_egress_stats();
  if (trk) {
    // Per-node queue-delay/depth histograms over the measurement phase.
    // Observation only: the listener fires on drain pops that happen
    // anyway, no RNG draws, no extra events.
    obs::RunMetrics* rm = run_metrics.get();
    transport.set_egress_listener(
        [rm](NodeId src, std::uint64_t sojourn_us, std::size_t depth) {
          rm->per_node[src].histogram("egress_sojourn_us").add(sojourn_us);
          rm->aggregate.histogram("transport.queue_delay_us").add(sojourn_us);
          rm->aggregate.histogram("transport.queue_depth").add(depth);
        });
  }

  // Overlay re-integration of a revived node: NeEM re-bootstraps and
  // HyParView re-joins through a random live contact; Cyclon and the
  // samplers re-absorb revived nodes through regular shuffling. Shared by
  // the churn process and the fault injector's recover events.
  auto rejoin_overlay = [&nodes, &transport, &config](NodeId back, Rng& rng) {
    if (nodes[back]->neem) {
      for (int attempt = 0; attempt < 5; ++attempt) {
        const NodeId contact =
            static_cast<NodeId>(rng.below(config.num_nodes));
        if (contact != back && !transport.is_silenced(contact)) {
          nodes[back]->neem->bootstrap({contact});
          break;
        }
      }
    }
    if (nodes[back]->hyparview) {
      for (int attempt = 0; attempt < 5; ++attempt) {
        const NodeId contact =
            static_cast<NodeId>(rng.below(config.num_nodes));
        if (contact != back && !transport.is_silenced(contact)) {
          nodes[back]->hyparview->join(contact);
          break;
        }
      }
    }
  };

  // Continuous churn (extension): alternate kills and revivals, keeping
  // the live population near its initial size.
  Rng churn_rng = root.split(0x6368726eULL);
  std::vector<NodeId> churn_dead;
  sim::PeriodicTimer churn_timer(engine.control(), [&] {
    const std::uint32_t live_min = std::max<std::uint32_t>(
        2, static_cast<std::uint32_t>(live.size()) / 2);
    std::uint32_t live_now = 0;
    for (NodeId n = 0; n < config.num_nodes; ++n) {
      if (!transport.is_silenced(n)) ++live_now;
    }
    const bool revive = !churn_dead.empty() &&
                        (live_now <= live_min || churn_rng.chance(0.5));
    if (revive) {
      const std::size_t pick = churn_rng.below(churn_dead.size());
      const NodeId back = churn_dead[pick];
      churn_dead.erase(churn_dead.begin() + static_cast<std::ptrdiff_t>(pick));
      transport.revive(back);
      rejoin_overlay(back, churn_rng);
    } else {
      for (int attempt = 0; attempt < 10; ++attempt) {
        const NodeId victim =
            static_cast<NodeId>(churn_rng.below(config.num_nodes));
        if (victim == config.single_sender || transport.is_silenced(victim)) {
          continue;
        }
        transport.silence(victim);
        churn_dead.push_back(victim);
        break;
      }
    }
  });
  auto set_churn_rate = [&churn_timer](double rate) {
    churn_timer.stop();
    if (rate > 0.0) {
      const auto period =
          static_cast<SimTime>(static_cast<double>(kSecond) / rate);
      churn_timer.start(period, std::max<SimTime>(period, 1));
    }
  };
  if (config.churn_rate > 0.0) set_churn_rate(config.churn_rate);

  // Fault injector: armed *before* the traffic is scheduled so scenario
  // events fire ahead of multicasts that share their timestamp (the event
  // queue is FIFO within a timestamp).
  Rng rejoin_rng = root.split(0x72656a6fULL);
  std::optional<fault::FaultInjector> injector;
  if (!config.scenario.empty()) {
    fault::InjectorHooks hooks;
    hooks.on_recover = [&rejoin_overlay, &rejoin_rng](NodeId back) {
      rejoin_overlay(back, rejoin_rng);
    };
    hooks.on_phase = [pw, trace_log, &engine](const std::string& label) {
      if (pw) pw->start_phase(engine.control().now(), label);
      if (trace_log) trace_log->record_phase({engine.control().now(), label});
    };
    hooks.on_churn_rate = set_churn_rate;
    hooks.on_noise = [&nodes](double level) {
      for (const auto& stack : nodes) {
        if (stack->noisy) stack->noisy->set_noise(level);
      }
    };
    injector.emplace(engine.control(), transport, config.scenario,
                     closeness_order, root.split(0x6661756cULL),
                     std::move(hooks));
    injector->set_initial_noise(config.strategy.noise);
    injector->arm(config.warmup);
  }

  // Traffic. A message's sender falls forward past silenced nodes through
  // its origin pool (topic members, or all nodes); its reliability
  // denominator is the pool's live audience when the sender is resolved.
  struct Resolved {
    NodeId sender = kInvalidNode;  // kInvalidNode: the whole pool is down
    std::uint32_t audience = 0;
  };
  auto resolve_sender = [&](std::uint32_t i, NodeId planned) {
    const std::uint32_t topic =
        use_workload ? plan.arrivals[i].topic : load::kNoTopic;
    Resolved r;
    if (topic != load::kNoTopic) {
      const std::vector<NodeId>& pool = plan.topic_members[topic];
      std::size_t idx = plan.arrivals[i].origin_index % pool.size();
      for (std::size_t step = 0;
           transport.is_silenced(pool[idx]) && step < pool.size(); ++step) {
        idx = (idx + 1) % pool.size();
      }
      r.sender = pool[idx];
      for (const NodeId m : pool) {
        if (!transport.is_silenced(m)) ++r.audience;
      }
    } else {
      r.sender = planned;
      for (std::uint32_t step = 0;
           transport.is_silenced(r.sender) && step < config.num_nodes;
           ++step) {
        r.sender = (r.sender + 1) % config.num_nodes;
      }
      for (NodeId n = 0; n < config.num_nodes; ++n) {
        if (!transport.is_silenced(n)) ++r.audience;
      }
    }
    if (transport.is_silenced(r.sender)) r.sender = kInvalidNode;
    return r;
  };
  struct ActiveMsg {
    SimTime at = 0;
    std::uint32_t seq = 0;
    MsgId id{};
  };
  std::vector<std::deque<ActiveMsg>> active_messages(num_shards);
  // Runs on the sender's shard at the multicast's time.
  auto multicast = [&](std::uint32_t i, NodeId sender, std::uint32_t bytes,
                       std::uint32_t audience) {
    const std::uint32_t shard = engine.shard_of(sender);
    const SimTime now = engine.sim_for(sender).now();
    messages[i].live_at_send = audience;
    if (pw) pw->on_multicast(i, audience);
    goodputs[shard].on_offered(now, audience);
    const core::AppMessage msg =
        nodes[sender]->gossip->multicast(bytes, i, now);
    active_messages[shard].push_back({now, i, msg.id});
  };
  // The single engine resolves senders at fire time, because churn and
  // scenarios change membership mid-run. The sharded engine resolves them
  // now: its silenced set is frozen from here on (churn and scenarios are
  // gated), so the result is the same node, and the multicast is
  // scheduled straight onto that node's shard — a fall-forward never runs
  // a multicast on another shard's worker.
  auto schedule_multicast = [&](std::uint32_t i, NodeId planned,
                                std::uint32_t bytes, SimTime when) {
    if (num_shards == 1) {
      engine.control().schedule_at(
          when, [&resolve_sender, &multicast, i, planned, bytes] {
            const Resolved r = resolve_sender(i, planned);
            if (r.sender != kInvalidNode) {
              multicast(i, r.sender, bytes, r.audience);
            }
          });
      return;
    }
    const Resolved r = resolve_sender(i, planned);
    if (r.sender == kInvalidNode) return;
    engine.sim_for(r.sender).schedule_at(when, [&multicast, i, r, bytes] {
      multicast(i, r.sender, bytes, r.audience);
    });
  };
  SimTime last_send = config.warmup;
  if (use_workload) {
    // Workload plan: every arrival is pre-resolved; scheduling consumes
    // no RNG draws, so the transport/overlay streams are untouched by
    // how the plan was generated.
    for (std::uint32_t i = 0; i < num_messages; ++i) {
      const load::Arrival& arr = plan.arrivals[i];
      const SimTime when = config.warmup + arr.at;
      last_send = std::max(last_send, when);
      schedule_multicast(
          i, arr.origin,
          arr.payload_bytes != 0 ? arr.payload_bytes : config.payload_bytes,
          when);
    }
  } else {
    Rng traffic = root.split(0x74726166ULL);
    SimTime t = config.warmup;
    if (config.single_sender != kInvalidNode) {
      ESM_CHECK(config.single_sender < config.num_nodes &&
                    !dead[config.single_sender],
                "single sender must be a live node");
    }
    for (std::uint32_t i = 0; i < num_messages; ++i) {
      t += traffic.range(0, 2 * config.mean_interval);
      last_send = t;
      const NodeId planned = config.single_sender != kInvalidNode
                                 ? config.single_sender
                                 : live[i % live.size()];
      schedule_multicast(i, planned, config.payload_bytes, t);
    }
  }

  // Optional garbage collection: periodically drop protocol state for
  // messages past their lifetime, on every node (§3.1/§3.2). A control
  // event, so sweeping every shard's state is race-free; expired entries
  // merge in (time, seq) order so the sequence is shard-count invariant.
  std::uint64_t gc_collected = 0;
  sim::PeriodicTimer gc_timer(engine.control(), [&] {
    if (config.message_lifetime <= 0) return;
    std::vector<ActiveMsg> expired;
    const SimTime gc_now = engine.control().now();
    for (std::deque<ActiveMsg>& shard_active : active_messages) {
      while (!shard_active.empty() &&
             shard_active.front().at + config.message_lifetime < gc_now) {
        expired.push_back(shard_active.front());
        shard_active.pop_front();
      }
    }
    if (expired.empty()) return;
    std::sort(expired.begin(), expired.end(),
              [](const ActiveMsg& a, const ActiveMsg& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    gc_collected += expired.size();
    std::vector<MsgId> ids;
    ids.reserve(expired.size());
    for (const ActiveMsg& m : expired) ids.push_back(m.id);
    for (const auto& stack : nodes) {
      stack->gossip->garbage_collect(ids);
      stack->scheduler->garbage_collect(ids);
    }
  });
  if (config.message_lifetime > 0) {
    gc_timer.start(config.message_lifetime, config.message_lifetime / 2);
  }

  // Connection census (§5.4): sample simultaneous NeEM connections once
  // per second; each symmetric connection is held by two endpoints.
  std::uint64_t peak_simultaneous = 0;
  sim::PeriodicTimer census_timer(engine.control(), [&] {
    std::uint64_t endpoints = 0;
    for (const auto& stack : nodes) {
      if (stack->neem) endpoints += stack->neem->connections().size();
    }
    peak_simultaneous = std::max(peak_simultaneous, endpoints / 2);
  });
  if (config.overlay_kind == OverlayKind::neem) {
    census_timer.start(0, 1 * kSecond);
  }

  // --- run ----------------------------------------------------------------
  engine.run_until(last_send + config.drain);
  gc_timer.stop();
  churn_timer.stop();
  census_timer.stop();
  // Streaming trace: emit payload rows whose packets never arrived.
  if (trace_log && trace_log->streaming()) trace_log->flush();

  // --- finalize -----------------------------------------------------------
  ExperimentResult result;
  result.live_nodes = static_cast<std::uint32_t>(live.size());
  result.events_executed = engine.events_executed();
  if (pw) result.phase_reports = pw->finalize(engine.now());
  if (injector) result.faults_injected = injector->events_applied();

  if (!delivery_log.empty()) {
    std::vector<DeliveryRec> replay;
    std::size_t total_recs = 0;
    for (const auto& log : delivery_log) total_recs += log.size();
    replay.reserve(total_recs);
    for (const auto& log : delivery_log) {
      replay.insert(replay.end(), log.begin(), log.end());
    }
    std::stable_sort(replay.begin(), replay.end(),
                     [](const DeliveryRec& a, const DeliveryRec& b) {
                       return a.at != b.at ? a.at < b.at : a.node < b.node;
                     });
    for (const DeliveryRec& rec : replay) apply_delivery(rec);
  }

  stats::RunningStat per_msg_latency;
  stats::RunningStat delivery_fraction;
  std::uint64_t total_deliveries = 0;
  std::uint32_t atomic = 0;
  result.expected_deliveries.reserve(messages.size());
  for (const MsgRecord& rec : messages) {
    ESM_CHECK(rec.deliveries <= config.num_nodes,
              "a node delivered the same message twice");
    total_deliveries += rec.deliveries;
    // Under churn the denominator is the live population at send time;
    // nodes revived mid-flight can push the raw ratio past 1.
    const std::uint32_t denom =
        rec.live_at_send > 0 ? rec.live_at_send
                             : static_cast<std::uint32_t>(live.size());
    result.expected_deliveries.push_back(denom);
    delivery_fraction.add(std::min(
        1.0, static_cast<double>(rec.deliveries) / static_cast<double>(denom)));
    if (rec.deliveries >= denom) ++atomic;
    if (rec.latency_ms.count() > 0) per_msg_latency.add(rec.latency_ms.mean());
  }
  result.mean_latency_ms = all_latency_ms.mean();
  result.latency_ci95_ms = per_msg_latency.ci95_half_width();
  result.p50_latency_ms = all_latency_ms.quantile(0.50);
  result.p95_latency_ms = all_latency_ms.quantile(0.95);
  result.mean_delivery_fraction = delivery_fraction.mean();
  result.delivery_ci95 = delivery_fraction.ci95_half_width();
  result.atomic_delivery_fraction =
      static_cast<double>(atomic) / static_cast<double>(num_messages);

  // The run-wide traffic view: the transport's one slot on the single
  // engine, the sum of the per-shard slots on the sharded one.
  std::optional<net::TrafficStats> merged_stats;
  if (num_shards >= 2) merged_stats.emplace(transport.merged_stats());
  const net::TrafficStats& tstats =
      merged_stats ? *merged_stats : transport.stats();
  result.payload_packets = tstats.total_payload_packets();
  result.control_packets = tstats.total_packets() - tstats.total_payload_packets();
  result.total_bytes = tstats.total_bytes();
  result.packets_lost = transport.packets_lost();
  result.buffer_drops = transport.buffer_drops();

  // Goodput / saturation view of the same run; the per-shard trackers fold
  // into one first (summed counters/buckets; watermark clocks joined).
  for (std::uint32_t s = 1; s < num_shards; ++s) {
    goodputs.front().merge(goodputs[s]);
  }
  const obs::GoodputReport gp = goodputs.front().finalize(engine.now());
  result.offered_msgs = gp.offered_msgs;
  result.offered_msgs_per_s = gp.offered_msgs_per_s;
  result.goodput_msgs_per_s = gp.goodput_msgs_per_s;
  result.redundancy_ratio = gp.redundancy_ratio;
  result.knee_time_ms = gp.knee_time_ms;
  result.offtopic_deliveries = offtopic_deliveries;
  const net::Transport::EgressStats egress_totals = transport.egress_totals();
  result.egress_serialized_packets = egress_totals.serialized_packets;
  if (egress_totals.serialized_packets > 0) {
    result.egress_queue_delay_mean_ms =
        static_cast<double>(egress_totals.total_sojourn_us) /
        static_cast<double>(egress_totals.serialized_packets) / 1000.0;
  }
  result.egress_queue_delay_max_ms =
      static_cast<double>(egress_totals.max_sojourn_us) / 1000.0;
  result.egress_peak_depth = egress_totals.peak_depth;
  result.egress_peak_queued_bytes = egress_totals.peak_queued_bytes;
  result.watermark_episodes = gp.watermark_episodes;
  result.watermark_residency_ms = gp.watermark_residency_ms;

  result.payload_per_delivery =
      total_deliveries == 0
          ? 0.0
          : static_cast<double>(result.payload_packets) /
                static_cast<double>(total_deliveries);

  // Per-node-class payload contribution. Classes use the oracle ranking so
  // "(low)" is comparable across oracle-rank and gossip-rank runs; the
  // reporting split may be wider than the strategy's best set (Fig. 5(c)
  // reports an 80/20 contribution split).
  const double report_fraction = config.report_best_fraction > 0.0
                                     ? config.report_best_fraction
                                     : config.strategy.best_fraction;
  const auto report_best = static_cast<std::uint32_t>(std::lround(
      report_fraction * static_cast<double>(config.num_nodes)));
  std::vector<bool> is_best(config.num_nodes, false);
  for (std::uint32_t i = 0;
       i < report_best && i < closeness_order.size(); ++i) {
    is_best[closeness_order[i]] = true;
  }
  stats::RunningStat all_load, low_load, best_load;
  for (const NodeId id : live) {
    const double per_msg =
        static_cast<double>(tstats.node_sent_payload(id)) /
        static_cast<double>(num_messages);
    all_load.add(per_msg);
    if (needs_best && is_best[id]) {
      best_load.add(per_msg);
    } else {
      low_load.add(per_msg);
    }
  }
  result.load_all = {all_load.mean(),
                     static_cast<std::uint32_t>(all_load.count())};
  result.load_low = {low_load.mean(),
                     static_cast<std::uint32_t>(low_load.count())};
  result.load_best = {best_load.mean(),
                      static_cast<std::uint32_t>(best_load.count())};

  // Connections by payload count, busiest first. The single engine keeps
  // equal-count ties in hash-map iteration order (the goldens pin it); on
  // the sharded engine that order depends on the shard partition
  // (merged_stats() rebuilds the link map shard by shard), so ties break
  // by endpoint there. The top-5% share is a sum over the busiest
  // entries, which no tie order changes.
  result.connection_payloads = tstats.undirected_payload_counts();
  const bool ties_by_endpoint = num_shards >= 2;
  std::sort(result.connection_payloads.begin(),
            result.connection_payloads.end(),
            [ties_by_endpoint](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return ties_by_endpoint && a.first < b.first;
            });
  result.top5_connection_share = net::top_payload_share(
      result.connection_payloads, tstats.total_payload_packets(), 0.05);
  result.node_payloads.resize(config.num_nodes);
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    result.node_payloads[id] = tstats.node_sent_payload(id);
  }
  result.client_coords = topo.client_coords;
  if (needs_best) result.best_nodes = oracle_best;

  std::uint64_t still_pending = 0;
  for (const auto& stack : nodes) {
    const core::SchedulerStats& ss = stack->scheduler->stats();
    result.duplicate_payloads += ss.duplicate_payloads;
    result.requests_sent += ss.requests_sent;
    result.prunes_sent += ss.prunes_sent;
    result.iwant_retries += ss.iwant_retries;
    result.recovery_gave_up += ss.recovery_gave_up;
    // Backpressure accounting (all zero when --backpressure off).
    result.eager_deferred += ss.eager_deferred;
    result.replies_deferred += ss.replies_deferred;
    result.drops_readvertised += ss.drops_readvertised;
    result.iwants_purged += ss.iwants_purged;
    still_pending += stack->scheduler->pending_requests();
    // Each opened symmetric connection is counted at both endpoints.
    if (stack->neem) {
      result.connections_opened += stack->neem->connections_opened();
    }
    result.max_known_messages =
        std::max(result.max_known_messages, stack->gossip->known_count());
  }
  result.recovery_stalled = result.recovery_gave_up + still_pending;
  result.connections_opened /= 2;
  result.payload_tx_per_message = std::move(payload_tx.front());
  for (std::uint32_t s = 1; s < num_shards; ++s) {
    for (std::uint32_t i = 0; i < num_messages; ++i) {
      result.payload_tx_per_message[i] += payload_tx[s][i];
    }
  }
  result.trace = trace_log;
  result.peak_simultaneous_connections = peak_simultaneous;
  result.messages_garbage_collected = gc_collected;

  if (wrap_noise) {
    stats::RunningStat c_est;
    for (const auto& stack : nodes) {
      if (stack->noisy) c_est.add(stack->noisy->eager_rate_estimate());
    }
    result.mean_eager_rate_estimate = c_est.mean();
  } else {
    result.mean_eager_rate_estimate =
        std::numeric_limits<double>::quiet_NaN();
  }
  // Emergent-structure analysis: reconstruct the per-message dissemination
  // trees from the trace and aggregate their structure metrics, run-wide
  // and per scenario phase window (messages attributed by send time, the
  // same rule PhaseWindows uses).
  if (config.collect_tree_stats && trace_log) {
    obs::TreeStatsOptions topt;
    topt.ranked = closeness_order;
    topt.top_fraction = report_fraction;
    topt.paths = &metrics;
    auto tree = std::make_shared<obs::TreeStats>(
        obs::analyze_trees(*trace_log, topt));
    // All-pairs mean one-way overlay latency: the strategy-independent
    // baseline for the tree-edge latency comparison, derived from the
    // closeness pass of build_world.
    double closeness_total = 0.0;
    for (const double s : closeness_sums) closeness_total += s;
    const double ordered_pairs =
        static_cast<double>(config.num_nodes) *
        static_cast<double>(config.num_nodes - 1);
    tree->overlay_mean_link_us =
        ordered_pairs > 0.0 ? closeness_total / ordered_pairs : 0.0;
    for (stats::PhaseReport& p : result.phase_reports) {
      obs::TreeStatsOptions wopt = topt;
      wopt.window_start = p.start;
      wopt.window_end = p.end;
      const obs::TreeStats w = obs::analyze_trees(*trace_log, wopt);
      p.tree_edges = w.edges;
      p.tree_eager_edges = w.eager_edges;
      p.tree_eager_hop_share = w.eager_hop_share();
      p.tree_mean_edge_latency_ms = w.mean_edge_latency_ms();
    }
    result.tree_stats = std::move(tree);
  }

  // The whole run's path-model footprint and work, replicas included.
  result.path_model_bytes = metrics.memory_bytes();
  result.path_rows_computed = metrics.rows_computed();
  result.path_row_evictions = metrics.row_evictions();
  for (const auto& replica : shard_paths) {
    result.path_model_bytes += replica->memory_bytes();
    result.path_rows_computed += replica->rows_computed();
    result.path_row_evictions += replica->row_evictions();
  }
  if (trk) {
    // Deterministic memory gauges (peak RSS is process-wide and
    // scheduling-dependent, so it stays out of the metrics document).
    run_metrics->aggregate.gauge_max(
        "path_model.bytes", static_cast<double>(result.path_model_bytes));
    run_metrics->aggregate.gauge_max(
        "path_model.rows_computed",
        static_cast<double>(result.path_rows_computed));
    run_metrics->aggregate.gauge_max(
        "path_model.row_evictions",
        static_cast<double>(result.path_row_evictions));
    // Arena high-water marks: the intern table never shrinks, so the
    // final size IS the run's peak — exactly what matters under many
    // concurrent messages.
    const core::MessageArena& arena = arenas.front();
    run_metrics->aggregate.gauge_max("arena.messages",
                                     static_cast<double>(arena.size()));
    run_metrics->aggregate.gauge_max("arena.bytes",
                                     static_cast<double>(arena.bytes()));
    // Goodput/saturation and egress serialization, for --metrics-out
    // consumers (counters sum, gauges max across --reps merges).
    obs::MetricsRegistry& gagg = run_metrics->aggregate;
    gagg.add_counter("goodput.offered_msgs", gp.offered_msgs);
    gagg.add_counter("goodput.expected_deliveries", gp.expected_deliveries);
    gagg.add_counter("goodput.deliveries", gp.deliveries);
    gagg.add_counter("goodput.payload_sends", gp.payload_sends);
    gagg.add_counter("goodput.offtopic_deliveries", offtopic_deliveries);
    gagg.gauge_max("goodput.offered_msgs_per_s", gp.offered_msgs_per_s);
    gagg.gauge_max("goodput.goodput_msgs_per_s", gp.goodput_msgs_per_s);
    gagg.gauge_max("goodput.redundancy_ratio", gp.redundancy_ratio);
    gagg.gauge_max("goodput.knee_time_ms", gp.knee_time_ms);
    gagg.add_counter("transport.egress_serialized_packets",
                     egress_totals.serialized_packets);
    gagg.add_counter("transport.buffer_drops", result.buffer_drops);
    gagg.gauge_max("transport.egress_peak_depth",
                   static_cast<double>(egress_totals.peak_depth));
    gagg.gauge_max("transport.egress_peak_queued_bytes",
                   static_cast<double>(egress_totals.peak_queued_bytes));
    gagg.gauge_max("transport.egress_max_sojourn_us",
                   static_cast<double>(egress_totals.max_sojourn_us));
    if (config.backpressure) {
      // Keyed only when the feature is on, so metrics documents of
      // backpressure-off runs stay byte-identical with older builds.
      gagg.add_counter("backpressure.eager_deferred", result.eager_deferred);
      gagg.add_counter("backpressure.replies_deferred",
                       result.replies_deferred);
      gagg.add_counter("backpressure.drops_readvertised",
                       result.drops_readvertised);
      gagg.add_counter("backpressure.iwants_purged", result.iwants_purged);
      gagg.add_counter("backpressure.watermark_episodes",
                       gp.watermark_episodes);
      gagg.gauge_max("backpressure.watermark_residency_ms",
                     gp.watermark_residency_ms);
    }
    if (result.tree_stats) {
      // Only merge-exact quantities go into the metrics document: counters
      // (sum), histograms (bucket-add) and one max-semantics gauge, so the
      // tree.* keys stay byte-identical across --reps at any --jobs.
      const obs::TreeStats& t = *result.tree_stats;
      obs::MetricsRegistry& agg = run_metrics->aggregate;
      agg.add_counter("tree.messages", t.messages);
      agg.add_counter("tree.edges", t.edges);
      agg.add_counter("tree.eager_edges", t.eager_edges);
      agg.add_counter("tree.eager_edges_from_top", t.eager_edges_from_top);
      agg.add_counter("tree.orphan_deliveries", t.orphan_deliveries);
      agg.add_counter("tree.interior_nodes", t.interior_nodes);
      agg.add_counter("tree.interior_top_ranked", t.interior_top_ranked);
      agg.add_counter("tree.jaccard_pairs", t.jaccard_pairs);
      agg.gauge_max("tree.overlay_mean_link_us", t.overlay_mean_link_us);
      agg.histogram("tree.edge_latency_us").merge(t.edge_latency_us);
      agg.histogram("tree.link_latency_us").merge(t.link_latency_us);
      agg.histogram("tree.depth").merge(t.depth);
      agg.histogram("tree.fanout").merge(t.fanout);
      agg.histogram("tree.stretch_pct").merge(t.stretch_pct);
      agg.histogram("tree.jaccard_permille").merge(t.jaccard_permille);
    }
    trk->finalize();
  }

  // Sharded: conservative-window execution accounting. Windows/mailbox
  // counters and the lookahead are deterministic; the busy/wait wall-clock
  // split is a diagnostic that varies run to run.
  if (sim::ShardedSimulator* world = engine.sharded()) {
    const sim::ShardedSimulator::Stats shard_stats = world->stats();
    result.shards_used = num_shards;
    result.shard_windows = shard_stats.windows;
    result.shard_mailbox_packets = shard_stats.mailbox_packets;
    result.shard_mailbox_bytes = shard_stats.mailbox_bytes;
    result.shard_lookahead_ms = to_ms(lookahead);
    for (std::uint64_t ns : shard_stats.busy_ns) {
      result.shard_busy_ms += static_cast<double>(ns) / 1e6;
    }
    for (std::uint64_t ns : shard_stats.wait_ns) {
      result.shard_barrier_wait_ms += static_cast<double>(ns) / 1e6;
    }
    if (run_metrics) {
      obs::MetricsRegistry& agg = run_metrics->aggregate;
      agg.add_counter("sim.shard.windows", shard_stats.windows);
      agg.add_counter("sim.shard.mailbox_packets",
                      shard_stats.mailbox_packets);
      agg.add_counter("sim.shard.mailbox_bytes", shard_stats.mailbox_bytes);
      agg.gauge_max("sim.shard.count", static_cast<double>(num_shards));
      agg.gauge_max("sim.shard.lookahead_us", static_cast<double>(lookahead));
      agg.gauge_max("sim.shard.busy_ms", result.shard_busy_ms);
      agg.gauge_max("sim.shard.barrier_wait_ms",
                    result.shard_barrier_wait_ms);
    }
  }
  result.metrics = run_metrics;
  return result;
}

}  // namespace esm::harness
