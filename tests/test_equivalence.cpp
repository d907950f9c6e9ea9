// Old-vs-compact node-core equivalence goldens.
//
// These fingerprints were captured from the pre-compaction node core (the
// per-node unordered_map/deque layout) and pin the *entire* observable
// output of representative runs: every scalar metric at full precision
// plus an FNV-1a digest over the per-node and per-message payload vectors
// and the esm-metrics-v1 JSON document. The slab/SoA/interned node core
// must reproduce them bit-for-bit — any drift means the compaction changed
// protocol behavior, not just its memory layout.
//
// Coverage: flat and oracle-ranked strategies, IHAVE batching, all four
// canned fault scenarios (examples/*.scn, inlined below), the adaptive
// strategy over HyParView, and N=2048 over the CSR static overlay — the
// scales and paths the goldens requirement names. Gossip-rank runs are
// deliberately *not* pinned across the refactor: the rank sample store's
// iteration order (previously unordered_map bucket order) is part of its
// sampling behavior and changed with the compact insertion-ordered store;
// those runs are covered by the determinism (run-to-run and cross-jobs)
// tests instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenario_text.hpp"

namespace esm::harness {
namespace {

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(14695981039346656037ULL, s.data(), s.size());
}

void add(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g\n", key, v);
  out += buf;
}

void add(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%llu\n", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Canonical full-precision rendering of everything a run reports.
std::string render(const ExperimentResult& r) {
  std::string out;
  add(out, "mean_latency_ms", r.mean_latency_ms);
  add(out, "latency_ci95_ms", r.latency_ci95_ms);
  add(out, "p50_latency_ms", r.p50_latency_ms);
  add(out, "p95_latency_ms", r.p95_latency_ms);
  add(out, "payload_per_delivery", r.payload_per_delivery);
  add(out, "load_all", r.load_all.payload_per_msg);
  add(out, "load_low", r.load_low.payload_per_msg);
  add(out, "load_best", r.load_best.payload_per_msg);
  add(out, "mean_delivery_fraction", r.mean_delivery_fraction);
  add(out, "atomic_delivery_fraction", r.atomic_delivery_fraction);
  add(out, "delivery_ci95", r.delivery_ci95);
  add(out, "top5_connection_share", r.top5_connection_share);
  add(out, "payload_packets", r.payload_packets);
  add(out, "control_packets", r.control_packets);
  add(out, "total_bytes", r.total_bytes);
  add(out, "duplicate_payloads", r.duplicate_payloads);
  add(out, "requests_sent", r.requests_sent);
  add(out, "iwant_retries", r.iwant_retries);
  add(out, "recovery_gave_up", r.recovery_gave_up);
  add(out, "recovery_stalled", r.recovery_stalled);
  add(out, "packets_lost", r.packets_lost);
  add(out, "buffer_drops", r.buffer_drops);
  add(out, "prunes_sent", r.prunes_sent);
  add(out, "faults_injected", r.faults_injected);
  add(out, "events_executed", r.events_executed);
  add(out, "live_nodes", static_cast<std::uint64_t>(r.live_nodes));
  add(out, "max_known_messages",
      static_cast<std::uint64_t>(r.max_known_messages));
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(h, r.node_payloads.data(),
            r.node_payloads.size() * sizeof(std::uint64_t));
  add(out, "node_payloads_fnv", h);
  h = 14695981039346656037ULL;
  h = fnv1a(h, r.payload_tx_per_message.data(),
            r.payload_tx_per_message.size() * sizeof(std::uint32_t));
  add(out, "payload_tx_fnv", h);
  h = 14695981039346656037ULL;
  for (const auto& [link, count] : r.connection_payloads) {
    h = fnv1a(h, &link.first, sizeof link.first);
    h = fnv1a(h, &link.second, sizeof link.second);
    h = fnv1a(h, &count, sizeof count);
  }
  add(out, "connection_payloads_fnv", h);
  for (const auto& p : r.phase_reports) {
    out += "phase " + p.label + " ";
    add(out, "messages", p.messages);
    add(out, "deliveries", p.deliveries);
    add(out, "reliability", p.reliability);
    add(out, "atomic_fraction", p.atomic_fraction);
    add(out, "mean_latency_ms", p.mean_latency_ms);
    add(out, "p95_latency_ms", p.p95_latency_ms);
    add(out, "payload_per_msg", p.payload_per_msg);
    add(out, "top5_connection_share", p.top5_connection_share);
  }
  if (r.tree_stats) {
    const obs::TreeStats& t = *r.tree_stats;
    add(out, "tree_messages", t.messages);
    add(out, "tree_edges", t.edges);
    add(out, "tree_eager_edges", t.eager_edges);
    add(out, "tree_interior_nodes", t.interior_nodes);
    add(out, "tree_interior_top_ranked", t.interior_top_ranked);
    add(out, "tree_eager_hop_share", t.eager_hop_share());
    add(out, "tree_mean_edge_latency_ms", t.mean_edge_latency_ms());
  }
  return out;
}

/// FNV-1a of the rendering — the pinned quantity. On mismatch the test
/// prints the full rendering so the drift is inspectable.
std::uint64_t fingerprint(const ExperimentResult& r) {
  return fnv1a(render(r));
}

/// The goodput/egress block the heavy-workload golden appends to the base
/// rendering. Kept out of render() so the pre-compaction legacy
/// fingerprints above stay byte-identical to their original capture.
std::string render_goodput(const ExperimentResult& r) {
  std::string out;
  add(out, "offered_msgs", r.offered_msgs);
  add(out, "offered_msgs_per_s", r.offered_msgs_per_s);
  add(out, "goodput_msgs_per_s", r.goodput_msgs_per_s);
  add(out, "redundancy_ratio", r.redundancy_ratio);
  add(out, "knee_time_ms", r.knee_time_ms);
  add(out, "offtopic_deliveries", r.offtopic_deliveries);
  add(out, "egress_serialized_packets", r.egress_serialized_packets);
  add(out, "egress_queue_delay_mean_ms", r.egress_queue_delay_mean_ms);
  add(out, "egress_queue_delay_max_ms", r.egress_queue_delay_max_ms);
  add(out, "egress_peak_depth", r.egress_peak_depth);
  add(out, "egress_peak_queued_bytes", r.egress_peak_queued_bytes);
  return out;
}

/// The backpressure block appended by the backpressure-on goldens. Kept
/// out of render()/render_goodput() so every pre-backpressure fingerprint
/// stays byte-identical to its original capture.
std::string render_backpressure(const ExperimentResult& r) {
  std::string out;
  add(out, "eager_deferred", r.eager_deferred);
  add(out, "replies_deferred", r.replies_deferred);
  add(out, "drops_readvertised", r.drops_readvertised);
  add(out, "iwants_purged", r.iwants_purged);
  add(out, "watermark_episodes", r.watermark_episodes);
  add(out, "watermark_residency_ms", r.watermark_residency_ms);
  return out;
}

ExperimentConfig base100() {
  ExperimentConfig c;
  c.seed = 4242;
  c.num_nodes = 100;
  c.num_messages = 120;
  c.warmup = 15 * kSecond;
  c.topology.num_underlay_vertices = 800;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  return c;
}

void expect_fingerprint(const ExperimentConfig& c, std::uint64_t want,
                        const char* label) {
  const ExperimentResult r = run_experiment(c);
  const std::uint64_t got = fingerprint(r);
  EXPECT_EQ(got, want) << label << " drifted; new rendering:\n" << render(r);
}

TEST(Equivalence, FlatWithBatching) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.2);
  c.ihave_batch_window = 20 * kMillisecond;
  expect_fingerprint(c, 16375138207662801473ULL, "flat pi=0.2 batched");
}

TEST(Equivalence, RankedOracleStaticOverlay) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_ranked(0.2);
  c.overlay_kind = OverlayKind::static_random;
  c.collect_tree_stats = true;
  expect_fingerprint(c, 13359896267698936417ULL, "ranked static+tree");
}

TEST(Equivalence, AdaptiveHyParView) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_adaptive();
  c.overlay_kind = OverlayKind::hyparview;
  c.num_messages = 80;
  expect_fingerprint(c, 3814070407888660252ULL, "adaptive hyparview");
}

TEST(Equivalence, LossyWithGc) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_flat(0.0);
  c.loss_rate = 0.15;
  c.message_lifetime = 20 * kSecond;
  expect_fingerprint(c, 16973191000109404136ULL, "lossy gc flat");
}

// --- the four canned scenarios (examples/*.scn, inlined) -----------------

ExperimentConfig scenario_config(const char* script) {
  ExperimentConfig c = base100();
  c.strategy = StrategySpec::make_ranked(0.2);
  c.num_messages = 300;
  c.scenario = parse_scenario(std::string(script));
  return c;
}

TEST(Equivalence, ScenarioBurstDegrade) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "40s   phase lossy\n"
      "40s   loss rate=0.10 for=30s\n"
      "70s   phase slow\n"
      "70s   latency factor=4 for=30s\n"
      "100s  phase noisy\n"
      "100s  loss rate=0.05 for=40s\n"
      "100s  latency factor=2 for=40s\n"
      "100s  noise to=0.5 over=20s\n"
      "140s  phase recovered\n");
  expect_fingerprint(c, 2798792596775614741ULL, "burst_degrade.scn");
}

TEST(Equivalence, ScenarioChurnFlux) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "45s   phase churn\n"
      "45s   churn rate=2 for=60s\n"
      "105s  phase settled\n");
  expect_fingerprint(c, 10013326134724673829ULL, "churn_flux.scn");
}

TEST(Equivalence, ScenarioKillBest) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "60s   phase kill\n"
      "60s   crash best 5\n"
      "120s  phase recovered\n");
  expect_fingerprint(c, 3746080100577579667ULL, "kill_best_nodes.scn");
}

TEST(Equivalence, ScenarioPartitionHeal) {
  const ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "45s   phase split\n"
      "45s   partition 0..24\n"
      "105s  phase healed\n"
      "105s  heal\n");
  expect_fingerprint(c, 11348456874638963812ULL, "partition_heal.scn");
}

// --- N=2048 over the shared CSR static overlay ---------------------------

TEST(Equivalence, N2048StaticLazy) {
  ExperimentConfig c;
  c.seed = 2007;
  c.num_nodes = 2048;
  c.num_messages = 10;
  c.mean_interval = 100 * kMillisecond;
  c.overlay_kind = OverlayKind::static_random;
  c.strategy = StrategySpec::make_flat(0.0);
  expect_fingerprint(c, 6413417638893343736ULL, "2048-node static lazy");
}

// --- heavy-traffic workload golden ---------------------------------------

ExperimentConfig heavy_config() {
  ExperimentConfig c = base100();
  c.num_messages = 0;  // workload replaces the legacy source loop
  c.bandwidth_bps = 4'000'000;
  c.egress_buffer_bytes = 48 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  load::WorkloadSpec wl;
  wl.duration = 6 * kSecond;
  load::TopicSpec topic;
  topic.name = "hot";
  topic.fraction = 0.3;
  wl.topics.push_back(topic);
  for (int p = 0; p < 4; ++p) {
    load::PublisherSpec pub;
    pub.arrival = (p == 3)   ? load::ArrivalKind::burst
                  : (p == 2) ? load::ArrivalKind::fixed_rate
                             : load::ArrivalKind::poisson;
    pub.rate = 25.0;
    if (p == 0) pub.topic = 0;
    wl.publishers.push_back(pub);
  }
  c.workload = wl;
  return c;
}

TEST(Equivalence, HeavyWorkloadSaturated) {
  // Canned heavy-load run: four publishers (poisson/fixed/burst mix, one
  // pinned into a fraction topic) pushing through a tight serialized
  // egress with a drop-oldest buffer. Pins the full rendering including
  // the goodput/egress block — covers the workload generator, bandwidth
  // serialization and goodput tracker end to end.
  const ExperimentResult r = run_experiment(heavy_config());
  const std::string rendering = render(r) + render_goodput(r);
  EXPECT_EQ(fnv1a(rendering), 10260051092629557157ULL)
      << "heavy 4-publisher saturated workload drifted; new rendering:\n"
      << rendering;
}

/// heavy_config() pushed past its knee: half the bandwidth, half the
/// buffer. The legacy golden's egress peaks at ~26 KB of its 48 KB bound
/// (a near miss, no purges), so the backpressure goldens tighten both to
/// make watermark crossings and purges actually happen.
ExperimentConfig saturated_heavy_config() {
  ExperimentConfig c = heavy_config();
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 24 * 1024;
  return c;
}

TEST(Equivalence, HeavyWorkloadSaturatedBackpressure) {
  // Backpressure-on twin of HeavyWorkloadSaturated: same publisher mix
  // over a genuinely saturated egress, with the watermark loop closed.
  // Pins the full rendering plus the backpressure block.
  ExperimentConfig c = saturated_heavy_config();
  c.backpressure = true;
  const ExperimentResult r = run_experiment(c);
  const std::string rendering =
      render(r) + render_goodput(r) + render_backpressure(r);
  EXPECT_EQ(fnv1a(rendering), 8385663769898990067ULL)
      << "backpressure-on heavy workload drifted; new rendering:\n"
      << rendering;
  // The twin must actually exercise the fix, not coast under the knee.
  EXPECT_GT(r.eager_deferred, 0u);
  EXPECT_GT(r.watermark_episodes, 0u);
}

// --- metrics JSON byte-identity ------------------------------------------

TEST(Equivalence, MetricsJsonScenario) {
  ExperimentConfig c = scenario_config(
      "0s    phase baseline\n"
      "60s   phase kill\n"
      "60s   crash best 5\n"
      "120s  phase recovered\n");
  c.collect_metrics = true;
  const ExperimentResult r = run_experiment(c);
  ASSERT_NE(r.metrics, nullptr);
  const std::string json =
      format_metrics_json(*r.metrics, {r.phase_reports});
  EXPECT_EQ(fnv1a(json), 13068026143548039115ULL)
      << "metrics JSON drifted (" << json.size() << " bytes)";
}

// --- determinism: cross-jobs and run-to-run ------------------------------

TEST(Equivalence, JobsInvariance) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    ExperimentConfig c = base100();
    c.seed = seed;
    c.num_messages = 60;
    c.strategy = StrategySpec::make_flat(0.1);
    configs.push_back(c);
  }
  const auto serial = run_experiments(configs, 1);
  const auto parallel = run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(fingerprint(serial[i]), fingerprint(parallel[i]))
        << "run " << i << " differs across --jobs";
  }
}

TEST(Equivalence, JobsInvarianceBackpressureModes) {
  // Every --backpressure × --pull-sched combination is bit-for-bit
  // identical at any --jobs count, and turning the pull-sched knob with
  // backpressure OFF changes nothing at all (rarest-first only reorders
  // congestion-deferred work, which cannot exist without backpressure).
  std::vector<ExperimentConfig> configs;
  for (const bool bp : {false, true}) {
    for (const core::PullOrder order :
         {core::PullOrder::random, core::PullOrder::rarest}) {
      ExperimentConfig c = saturated_heavy_config();
      c.backpressure = bp;
      c.pull_sched = order;
      configs.push_back(c);
    }
  }
  const auto full_print = [](const ExperimentResult& r) {
    return fnv1a(render(r) + render_goodput(r) + render_backpressure(r));
  };
  const auto serial = run_experiments(configs, 1);
  const auto parallel = run_experiments(configs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(full_print(serial[i]), full_print(parallel[i]))
        << "combination " << i << " differs across --jobs";
  }
  // off/random == off/rarest: the knob is inert without backpressure.
  EXPECT_EQ(full_print(serial[0]), full_print(serial[1]));
  // on-runs really diverge from off-runs (the fix engages).
  EXPECT_NE(full_print(serial[0]), full_print(serial[2]));
}

// --- sharded engine: shard-count × jobs invariance matrix -----------------

/// The control-sim block the newer shard-matrix scenarios append: GC
/// sweeps and the NeEM connection census run as run-global actors, which
/// the sharded engine moves onto its control simulator. Kept out of
/// render() so the older matrix fingerprints stay byte-identical.
std::string render_control(const ExperimentResult& r) {
  std::string out;
  add(out, "messages_garbage_collected", r.messages_garbage_collected);
  add(out, "peak_simultaneous_connections", r.peak_simultaneous_connections);
  add(out, "connections_opened", r.connections_opened);
  return out;
}

TEST(Equivalence, ShardCountInvarianceMatrix) {
  // Six canned scenarios × --shards {1, 2, 4, 8} × --jobs {1, 4}. The
  // pinned contract:
  //   * the sharded engine (shards >= 2) is bit-identical at EVERY shard
  //     count and EVERY jobs count — one absolute fingerprint per
  //     scenario pins its canonical event order;
  //   * shards == 1 is the single-threaded engine byte-for-byte; it may
  //     differ from the sharded engine only in same-microsecond arrival
  //     tie ordering, so no cross-engine equality is asserted. The first
  //     three scenarios' shards == 1 output is pinned by the goldens
  //     above; the last three pin it here (single_fp).
  // The last three reach engine branches no golden covers: per-shard
  // on-demand path replicas and oracle monitors with HyParView joins on
  // shard sims; closeness ranking, best-ranked kills and GC sweeps on the
  // control sim; the NeEM connection census.
  struct Scenario {
    const char* label;
    std::uint64_t sharded_fp;
    std::uint64_t single_fp;  // 0 = pinned by a golden above
    bool control_block;       // fingerprint includes render_control()
    ExperimentConfig config;
  };
  std::vector<Scenario> scenarios;
  {
    ExperimentConfig c = base100();
    c.strategy = StrategySpec::make_flat(0.2);
    c.ihave_batch_window = 20 * kMillisecond;
    scenarios.push_back({"flat batched", 9375248610818417151ULL, 0, false, c});
  }
  scenarios.push_back(
      {"heavy saturated", 7599652059359661393ULL, 0, false, heavy_config()});
  {
    ExperimentConfig c = saturated_heavy_config();
    c.backpressure = true;
    scenarios.push_back({"heavy saturated backpressure",
                         571881640632054520ULL, 0, false, c});
  }
  {
    ExperimentConfig c = base100();
    c.num_messages = 40;
    c.strategy = StrategySpec::make_radius(60.0);
    c.overlay_kind = OverlayKind::hyparview;
    c.path_model = net::PathModelKind::ondemand;
    scenarios.push_back({"radius oracle on-demand hyparview",
                         12253004247891434459ULL, 3909117172495218310ULL,
                         true, c});
  }
  {
    ExperimentConfig c = base100();
    c.num_messages = 80;
    c.strategy = StrategySpec::make_ranked(0.2);
    c.overlay_kind = OverlayKind::static_random;
    c.kill_fraction = 0.1;
    c.kill_mode = KillMode::best_ranked;
    c.message_lifetime = 10 * kSecond;
    scenarios.push_back({"ranked static best-kill gc",
                         17057250226430260897ULL, 15749396141388371302ULL,
                         true, c});
  }
  {
    ExperimentConfig c = base100();
    c.num_messages = 40;
    c.strategy = StrategySpec::make_flat(0.3);
    c.overlay_kind = OverlayKind::neem;
    scenarios.push_back({"flat neem census", 3739953557886530746ULL,
                         2210224479579050069ULL, true, c});
  }
  const std::uint32_t shard_counts[] = {1, 2, 4, 8};
  for (const Scenario& sc : scenarios) {
    const auto rendering = [&sc](const ExperimentResult& r) {
      return render(r) + render_goodput(r) + render_backpressure(r) +
             (sc.control_block ? render_control(r) : std::string());
    };
    const auto full_print = [&rendering](const ExperimentResult& r) {
      return fnv1a(rendering(r));
    };
    std::vector<ExperimentConfig> configs;
    for (const std::uint32_t shards : shard_counts) {
      ExperimentConfig c = sc.config;
      c.shards = shards;
      configs.push_back(c);
    }
    // jobs=4 over sharded runs is the composition case: worker threads of
    // concurrent runs and shard workers within each run coexist.
    const auto serial = run_experiments(configs, 1);
    const auto parallel = run_experiments(configs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(full_print(serial[i]), full_print(parallel[i]))
          << sc.label << ": shards=" << shard_counts[i]
          << " differs across --jobs";
    }
    for (std::size_t i = 2; i < serial.size(); ++i) {
      EXPECT_EQ(full_print(serial[i]), full_print(serial[1]))
          << sc.label << ": sharded engine differs between shards="
          << shard_counts[1] << " and shards=" << shard_counts[i];
    }
    EXPECT_EQ(full_print(serial[1]), sc.sharded_fp)
        << sc.label << " (sharded engine) drifted; new rendering:\n"
        << rendering(serial[1]);
    if (sc.single_fp != 0) {
      EXPECT_EQ(full_print(serial[0]), sc.single_fp)
          << sc.label << " (single-threaded engine) drifted; new rendering:\n"
          << rendering(serial[0]);
    }
  }
}

TEST(Equivalence, GossipRankDeterminism) {
  // Gossip-rank runs are not pinned across the layout change (see header
  // comment) but must stay deterministic: identical runs, identical
  // results, at any job count.
  ExperimentConfig c = base100();
  c.num_messages = 60;
  c.strategy = StrategySpec::make_ranked(0.2);
  c.strategy.use_gossip_rank = true;
  const auto a = run_experiments({c, c}, 2);
  const ExperimentResult b = run_experiment(c);
  EXPECT_EQ(fingerprint(a[0]), fingerprint(a[1]));
  EXPECT_EQ(fingerprint(a[0]), fingerprint(b));
}

}  // namespace
}  // namespace esm::harness
