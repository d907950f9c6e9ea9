#include "harness/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "common/line_grammar.hpp"
#include "harness/scenario_text.hpp"
#include "load/workload_text.hpp"

namespace esm::harness {

std::string cli_help_text() {
  return R"(esm_run — run one emergent-structure multicast experiment

Strategy selection:
  --strategy NAME     flat | ttl | radius | ranked | hybrid | adaptive
                                                               (default flat)
  --pi P              flat: eager probability                  (default 1.0)
  --u N               ttl/hybrid: eager while round < N
  --rho MS            radius/hybrid: metric radius (ms, or coordinate units
                      with --monitor distance)
  --best F            ranked/hybrid: best-node fraction        (default 0.2)
  --gossip-rank       estimate the best set epidemically instead of oracle
  --monitor NAME      oracle | distance | ping | piggyback    (default oracle)
  --noise O           noise ratio of Eager? decisions, 0..1    (default 0)
  --t0 MS             radius/hybrid first-request delay (0 = 2*rho)

Workload and network:
  --nodes N           virtual nodes                            (default 100)
  --messages N        multicasts                               (default 400)
  --payload BYTES     application payload per message          (default 256)
  --interval-ms MS    mean multicast spacing                   (default 500)
  --seed S            experiment seed                          (default 42)
  --path-model M      dense | ondemand | auto: pairwise path-metric storage.
                      dense keeps the N^2 latency/hop matrix; ondemand
                      computes per-router rows lazily (same layered-BFS
                      routing kernel) under an LRU byte budget (same
                      values, bounded memory — required for large
                      --nodes). auto = dense up to 2048 nodes
                                                               (default auto)
  --path-cache-mb MB  on-demand row-cache budget               (default 256)
  --sender N          single-source mode: node N sends everything
  --loss P            packet loss probability                  (default 0)
  --bandwidth BPS     per-node egress bandwidth                (default 100M)
  --buffer BYTES      egress buffer bound, 0 = unbounded       (default 0)
  --purge POLICY      newest | oldest: what to drop when full  (default newest)
  --backpressure M    on | off: egress watermark backpressure into the
                      scheduler — defer eager pushes to IHAVE above the
                      high watermark, cap IWANT replies per destination,
                      re-advertise purged payloads. Needs --buffer > 0
                                                               (default off)
  --bp-high F         high watermark, fraction of --buffer     (default 0.75)
  --bp-low F          low watermark, fraction of --buffer      (default 0.50)
  --bp-replies N      IWANT replies per destination while congested
                                                               (default 4)
  --pull-sched P      random | rarest: pull-request scheduling (default random)
  --slow F            fraction of nodes provisioned slow       (default 0)
  --slow-bandwidth B  bandwidth of slow nodes
  --adaptive-fanout   scale fanout by node bandwidth

Heavy-traffic workload (replaces --messages/--interval-ms when present):
  --workload FILE     workload spec file: topics + publishers with their own
                      arrival processes (grammar in src/load/workload_text.hpp)
  --senders K         K concurrent publishers, round-robin origins
  --arrival KIND      poisson | fixed | burst arrival process (default poisson)
  --rate R            per-publisher rate, messages/s           (default 10)
  --duration-ms MS    workload length after warm-up            (default 20000)
  --burst-on-ms MS    burst arrivals: on-window length         (default 500)
  --burst-off-ms MS   burst arrivals: off-window length        (default 1500)
  --topics N          N topics; publisher p publishes to topic p mod N
  --topic-fraction F  fraction of nodes subscribed per topic   (default 0.25)

Protocol parameters:
  --fanout F          gossip fanout                            (default 11)
  --rounds T          max relay rounds                         (default 8)
  --degree D          overlay view size                        (default 15)
  --period-ms MS      retransmission period T                  (default 400)
  --retry-rounds N    max full passes over a message's advertisers before
                      its lazy recovery is abandoned; passes after the
                      first re-ask already-asked sources       (default 5)
  --batch-ms MS       IHAVE aggregation window                 (default 0)
  --overlay NAME      cyclon | static | hyparview | neem | oracle
                                                               (default cyclon)
  --oracle-sampler    alias for --overlay oracle
  --static-overlay    alias for --overlay static
  --exclude-sender    never relay a message back to the peer it came from
  --wire              serialize every packet through the real wire codec

Failures:
  --kill F            fraction of nodes silenced after warm-up (default 0)
  --kill-mode MODE    random | best                            (default random)
  --churn RATE        continuous churn: RATE membership events per second
  --scenario FILE     scripted fault timeline (crashes, partitions, loss
                      bursts, churn, noise ramps, phase markers); see
                      docs/PROTOCOL.md for the grammar. Event times are
                      relative to the end of warm-up. Adds per-phase
                      windowed metrics to the output.

Execution:
  --reps N            replications with seeds seed..seed+N-1   (default 1)
  --jobs N            worker threads for --reps and sweeps; 0 or absent =
                      hardware concurrency. Results are bit-for-bit
                      identical at every job count.
  --shards N          partition the nodes of EACH run across N worker
                      threads advancing through conservative time windows
                      (default 1 = the single-threaded engine). Results
                      are bit-for-bit identical at every shard count >= 2;
                      composes with --jobs. Incompatible with --scenario,
                      --churn, --noise, --trace* and --tree-stats. Adds
                      sim_shard_* output lines; --metrics-out emits the
                      sim.shard.* execution block (no per-node lifecycle
                      metrics).

Output:
  --kv                print key=value lines instead of the table
  --tree-stats        reconstruct per-message first-delivery dissemination
                      trees from the run's trace and report their structure
                      metrics (eager-hop share, tree-edge latency vs the
                      overlay baseline, interior-node concentration on
                      top-ranked nodes, depth, stretch, consecutive-tree
                      Jaccard overlap); adds tree_* output lines, tree.*
                      metrics JSON keys and per-phase tree columns
  --metrics-out FILE  write per-node + aggregated metrics and recovery
                      lifecycle accounting as JSON (schema esm-metrics-v1;
                      merged across --reps, bit-for-bit identical at every
                      --jobs count). FILE may be - for stdout (the summary
                      is suppressed there).
  --trace FILE        buffer the run's event trace and write it as CSV at
                      the end (single run only); feed it to esm_trees for
                      offline tree analysis
  --trace-stream FILE stream trace rows to FILE while the run executes;
                      memory stays bounded at large N (single run only,
                      incompatible with --trace and --tree-stats). FILE may
                      be - for stdout (the summary is suppressed there).
  --expect FILE       evaluate the declarative expectations in FILE (.exp,
                      PROTOCOL.md section 7c) against the finished run:
                      per-phase delivery/latency bounds, recovery bounds,
                      structure assertions, tree-shape recognizers, scalar
                      metric bounds. Repeatable (files compose); prints a
                      per-expectation pass/fail report, adds expect.*
                      counters to --metrics-out JSON, exits 3 on violation.
                      Trace predicates imply buffered trace collection and
                      need --shards 1; metric/recovery counter bounds work
                      at any shard count. Single run only.
  --help              this text
)";
}

namespace {

/// One value of an enum-valued flag, by name.
template <class T>
struct Choice {
  const char* name;
  T value;
};

}  // namespace

std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error) {
  CliOptions options;
  ExperimentConfig& c = options.config;
  StrategySpec& s = c.strategy;

  // Inline heavy-traffic workload flags, assembled into config.workload
  // after the loop (only when --senders was given).
  std::uint32_t wl_senders = 0;
  double wl_rate = 10.0;
  load::ArrivalKind wl_arrival = load::ArrivalKind::poisson;
  SimTime wl_duration = 20 * kSecond;
  SimTime wl_burst_on = 500 * kMillisecond;
  SimTime wl_burst_off = 1500 * kMillisecond;
  std::uint32_t wl_topics = 0;
  double wl_topic_fraction = 0.25;
  std::string wl_aux_flag;  // the last workload flag other than --senders

  std::size_t i = 0;
  auto next_value = [&](const std::string& flag, std::string& out) {
    if (i + 1 >= args.size()) {
      error = flag + " requires a value";
      return false;
    }
    out = args[++i];
    return true;
  };
  auto next_double = [&](const std::string& flag, double& out) {
    std::string v;
    if (!next_value(flag, v)) return false;
    const std::optional<double> d = text::finite_number(v);
    if (!d) {
      error = flag + ": not a finite number: " + v;
      return false;
    }
    out = *d;
    return true;
  };
  auto next_int = [&](const std::string& flag, std::uint64_t max,
                      std::uint64_t& out) {
    std::string v;
    if (!next_value(flag, v)) return false;
    const std::optional<std::uint64_t> n = text::bounded_integer(v, max);
    if (!n) {
      error = flag + ": not an integer in [0, " + std::to_string(max) +
              "]: " + v;
      return false;
    }
    out = *n;
    return true;
  };
  // An unsigned integer that fits the field it is stored in.
  auto next_uint = [&]<class T>(const std::string& flag, T& out) {
    std::uint64_t n = 0;
    if (!next_int(flag, std::numeric_limits<T>::max(), n)) return false;
    out = static_cast<T>(n);
    return true;
  };
  // Milliseconds as a SimTime, rejected by name when out of range.
  auto to_time = [&](const std::string& flag, double ms, SimTime& out) {
    const std::optional<SimTime> t = text::to_sim_time(ms, kMillisecond);
    if (!t) {
      error = flag + ": must be a non-negative time in range (ms)";
      return false;
    }
    out = *t;
    return true;
  };
  auto next_ms = [&](const std::string& flag, SimTime& out) {
    std::uint64_t ms = 0;
    return next_uint(flag, ms) &&
           to_time(flag, static_cast<double>(ms), out);
  };
  auto reject = [&](const char* what) {
    error = what;
    return false;
  };
  // An enum-valued flag; an unknown name fails as "<flag>: <unknown><v>".
  auto next_choice = [&]<class T>(const std::string& flag,
                                  const char* unknown,
                                  std::initializer_list<Choice<T>> choices,
                                  T& out) {
    std::string v;
    if (!next_value(flag, v)) return false;
    for (const Choice<T>& choice : choices) {
      if (v == choice.name) {
        out = choice.value;
        return true;
      }
    }
    error = flag + ": " + unknown + v;
    return false;
  };

  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    std::uint64_t u64 = 0;
    double d = 0.0;
    bool ok = true;
    if (flag == "--help") {
      options.help = true;
      return options;
    } else if (flag == "--kv") {
      options.json = true;
    } else if (flag == "--strategy") {
      ok = next_choice(flag, "unknown strategy: ",
                       {{"flat", StrategyKind::flat},
                        {"ttl", StrategyKind::ttl},
                        {"radius", StrategyKind::radius},
                        {"ranked", StrategyKind::ranked},
                        {"hybrid", StrategyKind::hybrid},
                        {"adaptive", StrategyKind::adaptive}},
                       s.kind);
    } else if (flag == "--monitor") {
      ok = next_choice(flag, "unknown monitor: ",
                       {{"oracle", MonitorKind::oracle_latency},
                        {"distance", MonitorKind::distance},
                        {"ping", MonitorKind::ping},
                        {"piggyback", MonitorKind::piggyback}},
                       s.monitor);
    } else if (flag == "--kill-mode") {
      ok = next_choice(flag, "unknown mode: ",
                       {{"random", KillMode::random},
                        {"best", KillMode::best_ranked}},
                       c.kill_mode);
    } else if (flag == "--pi") {
      ok = next_double(flag, s.pi);
    } else if (flag == "--u") {
      ok = next_uint(flag, s.u);
    } else if (flag == "--rho") {
      ok = next_double(flag, s.rho);
    } else if (flag == "--best") {
      ok = next_double(flag, s.best_fraction);
    } else if (flag == "--noise") {
      ok = next_double(flag, s.noise);
    } else if (flag == "--t0") {
      ok = next_double(flag, d) && to_time(flag, d, s.t0);
    } else if (flag == "--gossip-rank") {
      s.use_gossip_rank = true;
    } else if (flag == "--nodes") {
      ok = next_uint(flag, c.num_nodes);
    } else if (flag == "--messages") {
      ok = next_uint(flag, c.num_messages);
    } else if (flag == "--payload") {
      ok = next_uint(flag, c.payload_bytes);
    } else if (flag == "--interval-ms") {
      ok = next_ms(flag, c.mean_interval);
    } else if (flag == "--seed") {
      ok = next_uint(flag, c.seed);
    } else if (flag == "--shards") {
      ok = next_uint(flag, c.shards) &&
           (c.shards >= 1 || reject("--shards: must be >= 1"));
    } else if (flag == "--path-model") {
      ok = next_choice(flag, "unknown model: ",
                       {{"dense", net::PathModelKind::dense},
                        {"ondemand", net::PathModelKind::ondemand},
                        {"auto", net::PathModelKind::automatic}},
                       c.path_model);
    } else if (flag == "--path-cache-mb") {
      ok = next_int(flag, std::numeric_limits<std::size_t>::max() >> 20, u64);
      c.path_cache_bytes = static_cast<std::size_t>(u64) << 20;
    } else if (flag == "--sender") {
      ok = next_uint(flag, c.single_sender);
    } else if (flag == "--loss") {
      ok = next_double(flag, c.loss_rate);
    } else if (flag == "--bandwidth") {
      ok = next_uint(flag, c.bandwidth_bps);
    } else if (flag == "--buffer") {
      ok = next_uint(flag, c.egress_buffer_bytes);
    } else if (flag == "--purge") {
      using Purge = net::TransportOptions::PurgePolicy;
      ok = next_choice(flag, "unknown policy: ",
                       {{"newest", Purge::drop_newest},
                        {"oldest", Purge::drop_oldest}},
                       c.purge_policy);
    } else if (flag == "--backpressure") {
      ok = next_choice(flag, "expected on or off, got: ",
                       {{"on", true}, {"off", false}}, c.backpressure);
    } else if (flag == "--bp-high") {
      ok = next_double(flag, c.bp_high_watermark);
    } else if (flag == "--bp-low") {
      ok = next_double(flag, c.bp_low_watermark);
    } else if (flag == "--bp-replies") {
      ok = next_uint(flag, c.bp_max_replies_per_dst);
    } else if (flag == "--pull-sched") {
      ok = next_choice(flag, "unknown policy: ",
                       {{"random", core::PullOrder::random},
                        {"rarest", core::PullOrder::rarest}},
                       c.pull_sched);
    } else if (flag == "--slow") {
      ok = next_double(flag, c.slow_fraction);
    } else if (flag == "--slow-bandwidth") {
      ok = next_uint(flag, c.slow_bandwidth_bps);
    } else if (flag == "--adaptive-fanout") {
      c.adaptive_fanout = true;
    } else if (flag == "--fanout") {
      ok = next_uint(flag, c.gossip.fanout);
    } else if (flag == "--rounds") {
      ok = next_uint(flag, c.gossip.max_rounds);
    } else if (flag == "--degree") {
      ok = next_uint(flag, c.overlay.view_size);
    } else if (flag == "--period-ms") {
      ok = next_ms(flag, c.retransmission_period);
    } else if (flag == "--retry-rounds") {
      ok = next_uint(flag, c.max_request_rounds);
    } else if (flag == "--batch-ms") {
      ok = next_ms(flag, c.ihave_batch_window);
    } else if (flag == "--overlay") {
      ok = next_choice(flag, "unknown overlay: ",
                       {{"cyclon", OverlayKind::cyclon},
                        {"static", OverlayKind::static_random},
                        {"hyparview", OverlayKind::hyparview},
                        {"neem", OverlayKind::neem},
                        {"oracle", OverlayKind::oracle}},
                       c.overlay_kind);
    } else if (flag == "--oracle-sampler") {  // alias for --overlay oracle
      c.overlay_kind = OverlayKind::oracle;
    } else if (flag == "--wire") {
      c.use_wire_codec = true;
    } else if (flag == "--static-overlay") {  // alias for --overlay static
      c.overlay_kind = OverlayKind::static_random;
    } else if (flag == "--exclude-sender") {
      c.gossip.exclude_sender = true;
    } else if (flag == "--tree-stats") {
      c.collect_tree_stats = true;
    } else if (flag == "--churn") {
      ok = next_double(flag, c.churn_rate);
    } else if (flag == "--scenario") {
      ok = next_value(flag, options.scenario_path);
    } else if (flag == "--kill") {
      ok = next_double(flag, c.kill_fraction);
      if (c.kill_mode == KillMode::none) c.kill_mode = KillMode::random;
    } else if (flag == "--workload") {
      ok = next_value(flag, options.workload_path);
    } else if (flag == "--senders") {
      ok = next_uint(flag, wl_senders) &&
           (wl_senders >= 1 || reject("--senders: must be >= 1"));
    } else if (flag == "--rate") {
      ok = next_double(flag, wl_rate) &&
           (wl_rate > 0.0 || reject("--rate: must be > 0"));
      wl_aux_flag = flag;
    } else if (flag == "--arrival") {
      ok = next_choice(flag, "unknown kind: ",
                       {{"poisson", load::ArrivalKind::poisson},
                        {"fixed", load::ArrivalKind::fixed_rate},
                        {"burst", load::ArrivalKind::burst}},
                       wl_arrival);
      wl_aux_flag = flag;
    } else if (flag == "--duration-ms") {
      ok = next_ms(flag, wl_duration) &&
           (wl_duration > 0 || reject("--duration-ms: must be > 0"));
      wl_aux_flag = flag;
    } else if (flag == "--burst-on-ms") {
      ok = next_ms(flag, wl_burst_on) &&
           (wl_burst_on > 0 || reject("--burst-on-ms: must be > 0"));
      wl_aux_flag = flag;
    } else if (flag == "--burst-off-ms") {
      ok = next_ms(flag, wl_burst_off);
      wl_aux_flag = flag;
    } else if (flag == "--topics") {
      ok = next_uint(flag, wl_topics) &&
           (wl_topics >= 1 || reject("--topics: must be >= 1"));
      wl_aux_flag = flag;
    } else if (flag == "--topic-fraction") {
      ok = next_double(flag, wl_topic_fraction) &&
           ((wl_topic_fraction > 0.0 && wl_topic_fraction <= 1.0) ||
            reject("--topic-fraction: must be in (0, 1]"));
      wl_aux_flag = flag;
    } else {
      error = "unknown flag: " + flag;
      ok = false;
    }
    if (!ok) return std::nullopt;
  }

  if (!wl_aux_flag.empty() && wl_senders == 0 &&
      options.workload_path.empty()) {
    error = wl_aux_flag + ": requires --senders";
    return std::nullopt;
  }
  if (c.backpressure && c.egress_buffer_bytes == 0) {
    error = "--backpressure on: requires a bounded egress buffer (--buffer)";
    return std::nullopt;
  }
  // --shards gates: the predicate run_experiment enforces on the final
  // config (tools apply some flags after parsing). A scenario file is only
  // loaded after parsing, so until then its path stands in for it.
  if (std::string gate = shard_gate_error(c); !gate.empty()) {
    error = std::move(gate);
    return std::nullopt;
  }
  if (c.shards >= 2 && !options.scenario_path.empty()) {
    error = "--shards >= 2: scenario scripts need the single-threaded engine";
    return std::nullopt;
  }
  if ((wl_senders > 0 || !wl_aux_flag.empty()) &&
      !options.workload_path.empty()) {
    error = "--workload: cannot be combined with inline workload flags";
    return std::nullopt;
  }
  if (wl_senders > 0) {
    load::WorkloadSpec& wl = c.workload;
    wl.duration = wl_duration;
    for (std::uint64_t t = 0; t < wl_topics; ++t) {
      load::TopicSpec topic;
      topic.name = "t" + std::to_string(t);
      topic.fraction = wl_topic_fraction;
      wl.topics.push_back(topic);
    }
    for (std::uint64_t p = 0; p < wl_senders; ++p) {
      load::PublisherSpec pub;
      pub.arrival = wl_arrival;
      pub.rate = wl_rate;
      pub.burst_on = wl_burst_on;
      pub.burst_off = wl_burst_off;
      if (wl_topics > 0) pub.topic = static_cast<std::uint32_t>(p % wl_topics);
      wl.publishers.push_back(pub);
    }
    try {
      wl.validate(c.num_nodes);
    } catch (const std::exception& ex) {
      error = ex.what();
      return std::nullopt;
    }
  }
  return options;
}

bool load_input_files(CliOptions& options, std::string& error) {
  ExperimentConfig& c = options.config;
  try {
    if (!options.scenario_path.empty()) {
      c.scenario = load_scenario_file(options.scenario_path, c.num_nodes);
      c.scenario.validate(c.num_nodes);
    }
    if (!options.workload_path.empty()) {
      c.workload = load::load_workload_file(options.workload_path, c.num_nodes);
      c.workload.validate(c.num_nodes);
    }
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  return true;
}

std::optional<std::vector<ExperimentConfig>> sweep_configs(
    const std::vector<std::string>& args, const std::string& param,
    const std::vector<std::string>& values, std::string& error) {
  std::vector<ExperimentConfig> configs;
  std::vector<std::string> point = args;
  point.push_back("--" + param);
  point.emplace_back();
  for (const std::string& value : values) {
    point.back() = value;
    std::optional<CliOptions> options = parse_cli(point, error);
    if (options && options->help) error = "--help: cannot be swept";
    if (!options || options->help || !load_input_files(*options, error)) {
      return std::nullopt;
    }
    configs.push_back(std::move(options->config));
  }
  return configs;
}

std::string format_result_kv(const ExperimentResult& result) {
  std::ostringstream os;
  os << "mean_latency_ms=" << result.mean_latency_ms << "\n"
     << "latency_ci95_ms=" << result.latency_ci95_ms << "\n"
     << "p50_latency_ms=" << result.p50_latency_ms << "\n"
     << "p95_latency_ms=" << result.p95_latency_ms << "\n"
     << "payload_per_delivery=" << result.payload_per_delivery << "\n"
     << "payload_per_msg_all=" << result.load_all.payload_per_msg << "\n"
     << "payload_per_msg_low=" << result.load_low.payload_per_msg << "\n"
     << "payload_per_msg_best=" << result.load_best.payload_per_msg << "\n"
     << "mean_delivery_fraction=" << result.mean_delivery_fraction << "\n"
     << "atomic_delivery_fraction=" << result.atomic_delivery_fraction << "\n"
     << "top5_connection_share=" << result.top5_connection_share << "\n"
     << "payload_packets=" << result.payload_packets << "\n"
     << "control_packets=" << result.control_packets << "\n"
     << "total_bytes=" << result.total_bytes << "\n"
     << "duplicate_payloads=" << result.duplicate_payloads << "\n"
     << "requests_sent=" << result.requests_sent << "\n"
     << "iwant_retries=" << result.iwant_retries << "\n"
     << "recovery_gave_up=" << result.recovery_gave_up << "\n"
     << "recovery_stalled=" << result.recovery_stalled << "\n"
     << "packets_lost=" << result.packets_lost << "\n"
     << "buffer_drops=" << result.buffer_drops << "\n"
     << "live_nodes=" << result.live_nodes << "\n"
     << "events_executed=" << result.events_executed << "\n"
     << "path_model_bytes=" << result.path_model_bytes << "\n"
     << "path_rows_computed=" << result.path_rows_computed << "\n"
     << "path_row_evictions=" << result.path_row_evictions << "\n"
     << "offered_msgs=" << result.offered_msgs << "\n"
     << "offered_msgs_per_s=" << result.offered_msgs_per_s << "\n"
     << "goodput_msgs_per_s=" << result.goodput_msgs_per_s << "\n"
     << "redundancy_ratio=" << result.redundancy_ratio << "\n"
     << "knee_time_ms=" << result.knee_time_ms << "\n"
     << "offtopic_deliveries=" << result.offtopic_deliveries << "\n"
     << "egress_serialized_packets=" << result.egress_serialized_packets
     << "\n"
     << "egress_queue_delay_mean_ms=" << result.egress_queue_delay_mean_ms
     << "\n"
     << "egress_queue_delay_max_ms=" << result.egress_queue_delay_max_ms
     << "\n"
     << "egress_peak_depth=" << result.egress_peak_depth << "\n"
     << "egress_peak_queued_bytes=" << result.egress_peak_queued_bytes
     << "\n"
     << "eager_deferred=" << result.eager_deferred << "\n"
     << "replies_deferred=" << result.replies_deferred << "\n"
     << "drops_readvertised=" << result.drops_readvertised << "\n"
     << "iwants_purged=" << result.iwants_purged << "\n"
     << "watermark_episodes=" << result.watermark_episodes << "\n"
     << "watermark_residency_ms=" << result.watermark_residency_ms << "\n";
  if (result.shards_used >= 2) {
    // Conservative-window execution accounting. busy/barrier_wait are
    // wall-clock diagnostics (nondeterministic); the rest is exact.
    os << "sim_shard_count=" << result.shards_used << "\n"
       << "sim_shard_windows=" << result.shard_windows << "\n"
       << "sim_shard_lookahead_ms=" << result.shard_lookahead_ms << "\n"
       << "sim_shard_mailbox_packets=" << result.shard_mailbox_packets << "\n"
       << "sim_shard_mailbox_bytes=" << result.shard_mailbox_bytes << "\n"
       << "sim_shard_busy_ms=" << result.shard_busy_ms << "\n"
       << "sim_shard_barrier_wait_ms=" << result.shard_barrier_wait_ms
       << "\n";
  }
  if (result.tree_stats) os << format_tree_kv(*result.tree_stats);
  if (!result.phase_reports.empty()) {
    os << "faults_injected=" << result.faults_injected << "\n"
       << "phases=" << result.phase_reports.size() << "\n";
    for (std::size_t i = 0; i < result.phase_reports.size(); ++i) {
      const auto& p = result.phase_reports[i];
      const std::string prefix = "phase" + std::to_string(i) + "_";
      os << prefix << "label=" << p.label << "\n"
         << prefix << "start_ms=" << to_ms(p.start) << "\n"
         << prefix << "end_ms=" << to_ms(p.end) << "\n"
         << prefix << "messages=" << p.messages << "\n"
         << prefix << "reliability=" << p.reliability << "\n"
         << prefix << "atomic_fraction=" << p.atomic_fraction << "\n"
         << prefix << "mean_latency_ms=" << p.mean_latency_ms << "\n"
         << prefix << "p95_latency_ms=" << p.p95_latency_ms << "\n"
         << prefix << "payload_per_msg=" << p.payload_per_msg << "\n"
         << prefix << "top5_connection_share=" << p.top5_connection_share
         << "\n"
         << prefix << "offered_per_s=" << p.offered_per_s << "\n"
         << prefix << "goodput_per_s=" << p.goodput_per_s << "\n";
      if (result.tree_stats) {
        os << prefix << "tree_edges=" << p.tree_edges << "\n"
           << prefix << "tree_eager_hop_share=" << p.tree_eager_hop_share
           << "\n"
           << prefix << "tree_edge_latency_ms=" << p.tree_mean_edge_latency_ms
           << "\n";
      }
    }
  }
  return os.str();
}

std::string format_tree_kv(const obs::TreeStats& stats) {
  std::ostringstream os;
  os << "tree_messages=" << stats.messages << "\n"
     << "tree_edges=" << stats.edges << "\n"
     << "tree_eager_edges=" << stats.eager_edges << "\n"
     << "tree_orphan_deliveries=" << stats.orphan_deliveries << "\n"
     << "tree_eager_hop_share=" << stats.eager_hop_share() << "\n"
     << "tree_edge_latency_ms_mean=" << stats.mean_edge_latency_ms() << "\n"
     << "tree_edge_latency_ms_p95="
     << static_cast<double>(stats.edge_latency_us.quantile(0.95)) / 1000.0
     << "\n"
     << "tree_link_latency_ms_mean=" << stats.mean_link_latency_ms() << "\n"
     << "tree_overlay_latency_ms_mean=" << stats.overlay_mean_link_ms()
     << "\n"
     << "tree_mean_depth=" << stats.mean_depth() << "\n"
     << "tree_max_depth=" << stats.max_depth() << "\n"
     << "tree_mean_stretch_pct=" << stats.mean_stretch() << "\n"
     << "tree_mean_jaccard=" << stats.mean_jaccard() << "\n"
     << "tree_interior_top_share=" << stats.interior_top_share() << "\n"
     << "tree_eager_from_top_share=" << stats.eager_from_top_share() << "\n"
     << "tree_top_fraction=" << stats.top_fraction << "\n"
     << "tree_eager_child_top5_share="
     << stats.eager_child_concentration(0.05) << "\n";
  return os.str();
}

namespace {

// %.17g round-trips doubles exactly and is locale-independent for the
// values we emit, so the JSON is byte-stable across runs and platforms.
std::string json_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

}  // namespace

std::string format_metrics_json(
    const obs::RunMetrics& metrics,
    const std::vector<std::vector<stats::PhaseReport>>& phase_runs) {
  std::string out;
  out += "{\"schema\":\"esm-metrics-v1\",\"runs\":";
  out += std::to_string(metrics.runs);
  out += ",\"aggregate\":";
  metrics.aggregate.append_json(out);
  out += ",\"nodes\":[";
  for (std::size_t i = 0; i < metrics.per_node.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"id\":";
    out += std::to_string(i);
    out += ",\"metrics\":";
    metrics.per_node[i].append_json(out);
    out += '}';
  }
  out += ']';

  std::size_t num_phases = 0;
  for (const auto& run : phase_runs) {
    num_phases = std::max(num_phases, run.size());
  }
  if (num_phases > 0) {
    out += ",\"phases\":[";
    for (std::size_t p = 0; p < num_phases; ++p) {
      if (p > 0) out += ',';
      std::string label;
      SimTime start = 0;
      SimTime end = 0;
      std::uint64_t messages = 0;
      std::uint64_t deliveries = 0;
      std::uint64_t payload_packets = 0;
      std::uint64_t tree_edges = 0;
      std::uint64_t tree_eager_edges = 0;
      bool first = true;
      for (const auto& run : phase_runs) {
        if (p >= run.size()) continue;
        const stats::PhaseReport& report = run[p];
        if (first) {
          label = report.label;
          start = report.start;
          first = false;
        }
        end = std::max(end, report.end);
        messages += report.messages;
        deliveries += report.deliveries;
        payload_packets += report.payload_packets;
        tree_edges += report.tree_edges;
        tree_eager_edges += report.tree_eager_edges;
      }
      out += "{\"label\":";
      append_json_string(out, label);
      out += ",\"start_ms\":";
      out += json_double(to_ms(start));
      out += ",\"end_ms\":";
      out += json_double(to_ms(end));
      out += ",\"messages\":";
      out += std::to_string(messages);
      out += ",\"deliveries\":";
      out += std::to_string(deliveries);
      out += ",\"payload_packets\":";
      out += std::to_string(payload_packets);
      out += ",\"tree_edges\":";
      out += std::to_string(tree_edges);
      out += ",\"tree_eager_edges\":";
      out += std::to_string(tree_eager_edges);
      out += '}';
    }
    out += ']';
  }
  out += "}\n";
  return out;
}

}  // namespace esm::harness
