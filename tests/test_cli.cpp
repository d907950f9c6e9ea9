#include "harness/cli.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>

namespace esm::harness {
namespace {

std::optional<CliOptions> parse(std::vector<std::string> args) {
  std::string error;
  auto result = parse_cli(args, error);
  EXPECT_TRUE(result.has_value()) << error;
  return result;
}

TEST(Cli, DefaultsMatchPaperConfiguration) {
  const auto options = parse({});
  ASSERT_TRUE(options);
  const ExperimentConfig& c = options->config;
  EXPECT_EQ(c.num_nodes, 100u);
  EXPECT_EQ(c.num_messages, 400u);
  EXPECT_EQ(c.gossip.fanout, 11u);
  EXPECT_EQ(c.overlay.view_size, 15u);
  EXPECT_EQ(c.retransmission_period, 400 * kMillisecond);
  EXPECT_EQ(c.payload_bytes, 256u);
  EXPECT_EQ(c.strategy.kind, StrategyKind::flat);
  EXPECT_FALSE(options->json);
  EXPECT_FALSE(options->help);
}

TEST(Cli, ParsesStrategySelection) {
  const auto options = parse({"--strategy", "hybrid", "--rho", "12.5", "--u",
                              "3", "--best", "0.05", "--noise", "0.4",
                              "--monitor", "ping", "--gossip-rank"});
  ASSERT_TRUE(options);
  const StrategySpec& s = options->config.strategy;
  EXPECT_EQ(s.kind, StrategyKind::hybrid);
  EXPECT_DOUBLE_EQ(s.rho, 12.5);
  EXPECT_EQ(s.u, 3u);
  EXPECT_DOUBLE_EQ(s.best_fraction, 0.05);
  EXPECT_DOUBLE_EQ(s.noise, 0.4);
  EXPECT_EQ(s.monitor, MonitorKind::ping);
  EXPECT_TRUE(s.use_gossip_rank);
}

TEST(Cli, ParsesWorkloadAndNetwork) {
  const auto options = parse(
      {"--nodes", "60", "--messages", "99", "--payload", "1024",
       "--interval-ms", "250", "--seed", "7", "--loss", "0.02", "--bandwidth",
       "2000000", "--buffer", "65536", "--slow", "0.3", "--slow-bandwidth",
       "500000", "--adaptive-fanout", "--fanout", "9", "--rounds", "6",
       "--degree", "20", "--period-ms", "200", "--oracle-sampler"});
  ASSERT_TRUE(options);
  const ExperimentConfig& c = options->config;
  EXPECT_EQ(c.num_nodes, 60u);
  EXPECT_EQ(c.num_messages, 99u);
  EXPECT_EQ(c.payload_bytes, 1024u);
  EXPECT_EQ(c.mean_interval, 250 * kMillisecond);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.loss_rate, 0.02);
  EXPECT_EQ(c.bandwidth_bps, 2'000'000u);
  EXPECT_EQ(c.egress_buffer_bytes, 65536u);
  EXPECT_DOUBLE_EQ(c.slow_fraction, 0.3);
  EXPECT_EQ(c.slow_bandwidth_bps, 500'000u);
  EXPECT_TRUE(c.adaptive_fanout);
  EXPECT_EQ(c.gossip.fanout, 9u);
  EXPECT_EQ(c.gossip.max_rounds, 6u);
  EXPECT_EQ(c.overlay.view_size, 20u);
  EXPECT_EQ(c.retransmission_period, 200 * kMillisecond);
  EXPECT_EQ(c.overlay_kind, OverlayKind::oracle);
}

TEST(Cli, PurgePolicyAndChurn) {
  const auto options = parse({"--purge", "oldest", "--churn", "1.5"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->config.purge_policy,
            net::TransportOptions::PurgePolicy::drop_oldest);
  EXPECT_DOUBLE_EQ(options->config.churn_rate, 1.5);
  std::string error;
  EXPECT_FALSE(parse_cli({"--purge", "everything"}, error));
}

TEST(Cli, OverlaySelection) {
  EXPECT_EQ(parse({"--overlay", "hyparview"})->config.overlay_kind,
            OverlayKind::hyparview);
  EXPECT_EQ(parse({"--overlay", "static"})->config.overlay_kind,
            OverlayKind::static_random);
  EXPECT_EQ(parse({"--overlay", "cyclon"})->config.overlay_kind,
            OverlayKind::cyclon);
  EXPECT_EQ(parse({"--static-overlay"})->config.overlay_kind,
            OverlayKind::static_random);
  std::string error;
  EXPECT_FALSE(parse_cli({"--overlay", "mesh"}, error));
}

TEST(Cli, KillDefaultsToRandomMode) {
  const auto options = parse({"--kill", "0.3"});
  ASSERT_TRUE(options);
  EXPECT_DOUBLE_EQ(options->config.kill_fraction, 0.3);
  EXPECT_EQ(options->config.kill_mode, KillMode::random);
}

TEST(Cli, KillModeBest) {
  const auto options = parse({"--kill", "0.2", "--kill-mode", "best"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->config.kill_mode, KillMode::best_ranked);
}

TEST(Cli, HelpShortCircuits) {
  const auto options = parse({"--help", "--bogus-flag-after-help"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->help);
  EXPECT_FALSE(cli_help_text().empty());
}

TEST(Cli, KvFlag) {
  const auto options = parse({"--kv"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->json);
}

TEST(Cli, TreeStatsFlag) {
  EXPECT_FALSE(parse({})->config.collect_tree_stats);
  const auto options = parse({"--tree-stats"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->config.collect_tree_stats);
}

TEST(Cli, RejectsUnknownFlag) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--frobnicate"}, error));
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST(Cli, RejectsMissingValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--nodes"}, error));
  EXPECT_NE(error.find("--nodes"), std::string::npos);
}

TEST(Cli, RejectsNonNumericValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--pi", "abc"}, error));
  EXPECT_NE(error.find("--pi"), std::string::npos);
  EXPECT_FALSE(parse_cli({"--nodes", "-5"}, error));
  EXPECT_FALSE(parse_cli({"--nodes", "5x"}, error));
}

TEST(Cli, RejectsUnknownEnumValues) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--strategy", "magic"}, error));
  EXPECT_FALSE(parse_cli({"--monitor", "tea-leaves"}, error));
  EXPECT_FALSE(parse_cli({"--kill-mode", "all"}, error));
}

TEST(Cli, BackpressureFlagsParseAndValidate) {
  const auto options =
      parse({"--buffer", "32768", "--backpressure", "on", "--bp-high", "0.8",
             "--bp-low", "0.4", "--bp-replies", "2", "--pull-sched", "rarest"});
  ASSERT_TRUE(options);
  EXPECT_TRUE(options->config.backpressure);
  EXPECT_DOUBLE_EQ(options->config.bp_high_watermark, 0.8);
  EXPECT_DOUBLE_EQ(options->config.bp_low_watermark, 0.4);
  EXPECT_EQ(options->config.bp_max_replies_per_dst, 2u);
  EXPECT_EQ(options->config.pull_sched, core::PullOrder::rarest);
  // Defaults: off, legacy pull order.
  EXPECT_FALSE(parse({})->config.backpressure);
  EXPECT_EQ(parse({})->config.pull_sched, core::PullOrder::random);

  std::string error;
  EXPECT_FALSE(parse_cli({"--backpressure", "maybe"}, error));
  EXPECT_FALSE(parse_cli({"--pull-sched", "newest"}, error));
  // Backpressure needs a bounded buffer to watch.
  EXPECT_FALSE(parse_cli({"--backpressure", "on"}, error));
  EXPECT_NE(error.find("--buffer"), std::string::npos);
  // Flag order must not matter for the cross-flag check.
  EXPECT_TRUE(parse({"--backpressure", "on", "--buffer", "16384"}));
}

TEST(Cli, ShardsFlagParsesAndGates) {
  EXPECT_EQ(parse({})->config.shards, 1u);
  EXPECT_EQ(parse({"--shards", "4"})->config.shards, 4u);
  // Composes with --scenario/--churn/--tree-stats only at shards == 1.
  EXPECT_TRUE(parse({"--shards", "1", "--churn", "2"}));

  std::string error;
  EXPECT_FALSE(parse_cli({"--shards", "0"}, error));
  EXPECT_FALSE(parse_cli({"--shards", "2", "--scenario", "x.scn"}, error));
  EXPECT_NE(error.find("--shards"), std::string::npos);
  EXPECT_FALSE(parse_cli({"--shards", "2", "--churn", "2"}, error));
  EXPECT_FALSE(parse_cli({"--shards", "2", "--tree-stats"}, error));
  // The shared noise calibration is order-dependent — single-threaded only.
  EXPECT_FALSE(parse_cli({"--shards", "2", "--noise", "0.5"}, error));
  EXPECT_NE(error.find("--noise"), std::string::npos);
  EXPECT_TRUE(parse({"--shards", "1", "--noise", "0.5"}));
  // Flag order must not matter for the cross-flag gates.
  EXPECT_FALSE(parse_cli({"--churn", "2", "--shards", "2"}, error));
  EXPECT_FALSE(parse_cli({"--noise", "0.5", "--shards", "2"}, error));
}

TEST(Cli, RunExperimentEnforcesTheCliShardGate) {
  // Tools set some fields after parsing (esm_run applies --trace itself),
  // so run_experiment re-checks the same predicate and fails with the
  // message the CLI prints.
  std::string cli_error;
  EXPECT_FALSE(parse_cli({"--shards", "2", "--tree-stats"}, cli_error));
  const auto options = parse({"--shards", "2", "--nodes", "10"});
  ASSERT_TRUE(options);
  ExperimentConfig c = options->config;
  EXPECT_EQ(shard_gate_error(c), "");
  c.collect_trace = true;
  EXPECT_EQ(shard_gate_error(c), cli_error);
  try {
    run_experiment(c);
    ADD_FAILURE() << "run_experiment accepted a gated config";
  } catch (const CheckFailure& e) {
    EXPECT_EQ(std::string(e.what()), cli_error);
  }
}

TEST(Cli, ScenarioFlagStoresPath) {
  const auto options = parse({"--scenario", "examples/kill_best_nodes.scn"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->scenario_path, "examples/kill_best_nodes.scn");
  // The parser is pure: no file IO, the scenario script stays empty.
  EXPECT_TRUE(options->config.scenario.empty());
}

TEST(Cli, ScenarioFlagRequiresValue) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--scenario"}, error));
  EXPECT_NE(error.find("--scenario"), std::string::npos);
}

TEST(Cli, FormatResultKvIncludesPhaseLines) {
  ExperimentResult r;
  r.faults_injected = 3;
  stats::PhaseReport p;
  p.label = "kill";
  p.start = 60 * kSecond;
  p.end = 120 * kSecond;
  p.messages = 10;
  p.reliability = 0.5;
  r.phase_reports.push_back(p);
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("faults_injected=3"), std::string::npos);
  EXPECT_NE(kv.find("phases=1"), std::string::npos);
  EXPECT_NE(kv.find("phase0_label=kill"), std::string::npos);
  EXPECT_NE(kv.find("phase0_start_ms=60000"), std::string::npos);
  EXPECT_NE(kv.find("phase0_reliability=0.5"), std::string::npos);
  // Still one key per line, every line contains '='.
  std::istringstream stream(kv);
  std::string line;
  while (std::getline(stream, line)) {
    EXPECT_NE(line.find('='), std::string::npos);
  }
}

TEST(Cli, FormatResultKvIsParseable) {
  ExperimentResult r;
  r.mean_latency_ms = 123.5;
  r.live_nodes = 80;
  r.payload_packets = 999;
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("mean_latency_ms=123.5"), std::string::npos);
  EXPECT_NE(kv.find("live_nodes=80"), std::string::npos);
  EXPECT_NE(kv.find("payload_packets=999"), std::string::npos);
  // One key per line, every line contains '='.
  std::istringstream stream(kv);
  std::string line;
  int lines = 0;
  while (std::getline(stream, line)) {
    EXPECT_NE(line.find('='), std::string::npos);
    ++lines;
  }
  EXPECT_GE(lines, 15);
}

TEST(Cli, WorkloadFlagsBuildSpec) {
  const auto options = parse({"--senders", "4", "--arrival", "burst",
                              "--rate", "20", "--duration-ms", "5000",
                              "--burst-on-ms", "250", "--burst-off-ms", "750",
                              "--topics", "2", "--topic-fraction", "0.5"});
  ASSERT_TRUE(options);
  const load::WorkloadSpec& wl = options->config.workload;
  ASSERT_EQ(wl.publishers.size(), 4u);
  EXPECT_EQ(wl.duration, 5 * kSecond);
  ASSERT_EQ(wl.topics.size(), 2u);
  EXPECT_DOUBLE_EQ(wl.topics[0].fraction, 0.5);
  for (std::size_t p = 0; p < wl.publishers.size(); ++p) {
    EXPECT_EQ(wl.publishers[p].arrival, load::ArrivalKind::burst);
    EXPECT_DOUBLE_EQ(wl.publishers[p].rate, 20.0);
    EXPECT_EQ(wl.publishers[p].burst_on, 250 * kMillisecond);
    EXPECT_EQ(wl.publishers[p].burst_off, 750 * kMillisecond);
    EXPECT_EQ(wl.publishers[p].topic, static_cast<std::uint32_t>(p % 2));
  }
}

TEST(Cli, NoWorkloadFlagsLeaveSpecEmpty) {
  // Legacy configurations must stay bit-for-bit unchanged: without any
  // workload flag, config.workload is empty and the light loop runs.
  EXPECT_TRUE(parse({})->config.workload.empty());
  EXPECT_TRUE(parse({"--messages", "50"})->config.workload.empty());
}

TEST(Cli, RejectsZeroSenders) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "0"}, error));
  EXPECT_EQ(error, "--senders: must be >= 1");
}

TEST(Cli, RejectsNonPositiveRate) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "0"}, error));
  EXPECT_EQ(error, "--rate: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "-3.5"}, error));
  EXPECT_EQ(error, "--rate: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "2", "--rate", "nan"}, error));
}

TEST(Cli, RejectsUnknownArrivalKind) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "2", "--arrival", "warp"}, error));
  EXPECT_EQ(error, "--arrival: unknown kind: warp");
}

TEST(Cli, RejectsBadWorkloadWindows) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "1", "--duration-ms", "0"}, error));
  EXPECT_EQ(error, "--duration-ms: must be > 0");
  EXPECT_FALSE(parse_cli({"--senders", "1", "--burst-on-ms", "0"}, error));
  EXPECT_EQ(error, "--burst-on-ms: must be > 0");
  // Milliseconds past the SimTime range are rejected, not wrapped.
  for (const char* flag : {"--duration-ms", "--burst-on-ms", "--burst-off-ms",
                           "--interval-ms", "--period-ms", "--batch-ms"}) {
    EXPECT_FALSE(parse_cli({"--senders", "1", flag, "18446744073709551615"},
                           error));
    EXPECT_EQ(error.rfind(std::string(flag) + ": ", 0), 0u) << error;
  }
  for (const char* t0 : {"-5", "1e300", "nan"}) {
    EXPECT_FALSE(parse_cli({"--t0", t0}, error));
    EXPECT_EQ(error.rfind("--t0: ", 0), 0u) << error;
  }
}

TEST(Cli, RejectsEmptyTopicConfiguration) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--senders", "1", "--topics", "0"}, error));
  EXPECT_EQ(error, "--topics: must be >= 1");
  EXPECT_FALSE(
      parse_cli({"--senders", "1", "--topics", "2", "--topic-fraction", "0"},
                error));
  EXPECT_EQ(error, "--topic-fraction: must be in (0, 1]");
  EXPECT_FALSE(
      parse_cli({"--senders", "1", "--topics", "2", "--topic-fraction", "1.5"},
                error));
  EXPECT_EQ(error, "--topic-fraction: must be in (0, 1]");
}

TEST(Cli, WorkloadAuxFlagsRequireSenders) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--rate", "20"}, error));
  EXPECT_NE(error.find("--senders"), std::string::npos);
}

TEST(Cli, WorkloadFileExcludesInlineFlags) {
  const auto options = parse({"--workload", "examples/saturation.wl"});
  ASSERT_TRUE(options);
  EXPECT_EQ(options->workload_path, "examples/saturation.wl");
  // The parser is pure: no file IO, the spec stays empty.
  EXPECT_TRUE(options->config.workload.empty());
  std::string error;
  EXPECT_FALSE(
      parse_cli({"--workload", "x.wl", "--senders", "2"}, error));
  EXPECT_NE(error.find("--workload"), std::string::npos);
}

TEST(Cli, FormatResultKvIncludesGoodputLines) {
  ExperimentResult r;
  r.offered_msgs = 1234;
  r.goodput_msgs_per_s = 87.5;
  r.redundancy_ratio = 1.25;
  r.knee_time_ms = 4000;
  r.egress_peak_depth = 17;
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("offered_msgs=1234"), std::string::npos);
  EXPECT_NE(kv.find("goodput_msgs_per_s=87.5"), std::string::npos);
  EXPECT_NE(kv.find("redundancy_ratio=1.25"), std::string::npos);
  EXPECT_NE(kv.find("knee_time_ms=4000"), std::string::npos);
  EXPECT_NE(kv.find("egress_peak_depth=17"), std::string::npos);
  EXPECT_NE(kv.find("egress_queue_delay_mean_ms=0"), std::string::npos);
}

TEST(Cli, PhaseKvIncludesLoadRates) {
  ExperimentResult r;
  stats::PhaseReport p;
  p.label = "burst";
  p.offered_per_s = 42.5;
  p.goodput_per_s = 40.0;
  r.phase_reports.push_back(p);
  const std::string kv = format_result_kv(r);
  EXPECT_NE(kv.find("phase0_offered_per_s=42.5"), std::string::npos);
  EXPECT_NE(kv.find("phase0_goodput_per_s=40"), std::string::npos);
}

/// The config of point `value` of a sweep of `param` over `base`.
ExperimentConfig sweep_point(const std::vector<std::string>& base,
                             const std::string& param,
                             const std::string& value) {
  std::string error;
  const auto configs = sweep_configs(base, param, {value}, error);
  EXPECT_TRUE(configs) << param << "=" << value << ": " << error;
  return configs ? configs->front() : ExperimentConfig{};
}

/// The error of a sweep point that must fail.
std::string sweep_error(const std::vector<std::string>& base,
                        const std::string& param, const std::string& value) {
  std::string error;
  EXPECT_FALSE(sweep_configs(base, param, {value}, error))
      << param << "=" << value;
  return error;
}

/// A temporary file holding `text`, removed when it goes out of scope.
struct TempFile {
  TempFile(const std::string& name, const std::string& text)
      : path(::testing::TempDir() + "esm_test_cli_" + name) {
    std::ofstream(path) << text;
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Cli, SweepConfigsCoverEveryFormerName) {
  EXPECT_DOUBLE_EQ(sweep_point({}, "pi", "0.3").strategy.pi, 0.3);
  EXPECT_EQ(sweep_point({}, "u", "4").strategy.u, 4u);
  EXPECT_DOUBLE_EQ(sweep_point({}, "rho", "12.5").strategy.rho, 12.5);
  EXPECT_DOUBLE_EQ(sweep_point({}, "best", "0.1").strategy.best_fraction,
                   0.1);
  EXPECT_DOUBLE_EQ(sweep_point({}, "noise", "0.4").strategy.noise, 0.4);
  EXPECT_EQ(sweep_point({}, "t0", "50").strategy.t0, 50 * kMillisecond);
  EXPECT_DOUBLE_EQ(sweep_point({}, "loss", "0.01").loss_rate, 0.01);
  const ExperimentConfig kill = sweep_point({}, "kill", "0.2");
  EXPECT_DOUBLE_EQ(kill.kill_fraction, 0.2);
  EXPECT_EQ(kill.kill_mode, KillMode::random);  // auto-defaulted
  EXPECT_DOUBLE_EQ(sweep_point({}, "churn", "1").churn_rate, 1.0);
  EXPECT_EQ(sweep_point({}, "batch-ms", "25").ihave_batch_window,
            25 * kMillisecond);
  EXPECT_EQ(sweep_point({}, "interval-ms", "200").mean_interval,
            200 * kMillisecond);
  EXPECT_EQ(sweep_point({}, "period-ms", "300").retransmission_period,
            300 * kMillisecond);
  EXPECT_EQ(sweep_point({}, "retry-rounds", "1").max_request_rounds, 1u);
  EXPECT_EQ(sweep_point({}, "fanout", "7").gossip.fanout, 7u);
  EXPECT_EQ(sweep_point({}, "nodes", "64").num_nodes, 64u);
  EXPECT_EQ(sweep_point({}, "messages", "99").num_messages, 99u);
  EXPECT_EQ(sweep_point({}, "seed", "5").seed, 5u);
  EXPECT_TRUE(sweep_point({"--buffer", "4096"}, "backpressure", "on")
                  .backpressure);
  EXPECT_NE(sweep_error({}, "flux-capacitor", "1.21").find("flux-capacitor"),
            std::string::npos);
  // Millisecond values outside the SimTime range are rejected by name.
  for (const char* name : {"t0", "batch-ms", "interval-ms", "period-ms"}) {
    const std::string prefix = std::string("--") + name + ": ";
    for (const char* bad : {"1e300", "-1"}) {
      EXPECT_EQ(sweep_error({}, name, bad).rfind(prefix, 0), 0u);
    }
  }
}

TEST(Cli, SweepConfigsShards) {
  EXPECT_EQ(sweep_point({}, "shards", "8").shards, 8u);
  EXPECT_EQ(sweep_error({}, "shards", "0"), "--shards: must be >= 1");
}

TEST(Cli, SweepConfigsWorkloadNames) {
  // rate/burst knobs need a workload to act on.
  const std::string no_workload = sweep_error({}, "rate", "20");
  EXPECT_NE(no_workload.find("rate"), std::string::npos) << no_workload;
  EXPECT_NE(no_workload.find("--senders"), std::string::npos) << no_workload;
  EXPECT_EQ(sweep_point({}, "senders", "8").workload.publishers.size(), 8u);
  const std::vector<std::string> eight = {"--senders", "8"};
  for (const auto& pub : sweep_point(eight, "rate", "20").workload.publishers) {
    EXPECT_DOUBLE_EQ(pub.rate, 20.0);
  }
  EXPECT_EQ(sweep_point(eight, "duration-ms", "4000").workload.duration,
            4 * kSecond);
  EXPECT_EQ(sweep_point(eight, "burst-on-ms", "250")
                .workload.publishers[0]
                .burst_on,
            250 * kMillisecond);
  EXPECT_EQ(sweep_point(eight, "burst-off-ms", "750")
                .workload.publishers[0]
                .burst_off,
            750 * kMillisecond);
  // Resizing keeps the base's publisher as the template, topics included.
  const ExperimentConfig two =
      sweep_point({"--senders", "8", "--arrival", "burst", "--rate", "99",
                   "--topics", "2"},
                  "senders", "3");
  ASSERT_EQ(two.workload.publishers.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_DOUBLE_EQ(two.workload.publishers[p].rate, 99.0);
    EXPECT_EQ(two.workload.publishers[p].arrival, load::ArrivalKind::burst);
    EXPECT_EQ(two.workload.publishers[p].topic, p % 2);
  }
  EXPECT_EQ(sweep_error({}, "senders", "0"), "--senders: must be >= 1");
  EXPECT_EQ(sweep_error(eight, "rate", "-1"), "--rate: must be > 0");
  for (const char* name : {"duration-ms", "burst-on-ms", "burst-off-ms"}) {
    EXPECT_EQ(sweep_error(eight, name, "1e300")
                  .rfind(std::string("--") + name + ": ", 0),
              0u);
  }
  // A .wl base cannot take inline workload knobs, swept or not.
  EXPECT_EQ(sweep_error({"--workload", "examples/saturation.wl"}, "rate", "5"),
            "--workload: cannot be combined with inline workload flags");
}

TEST(Cli, SweepConfigsParseEachValue) {
  std::string error;
  const auto ok = sweep_configs({}, "pi", {"0", "0.5", "1e2", "-3"}, error);
  ASSERT_TRUE(ok) << error;
  ASSERT_EQ(ok->size(), 4u);
  EXPECT_EQ((*ok)[0].strategy.pi, 0.0);
  EXPECT_EQ((*ok)[1].strategy.pi, 0.5);
  EXPECT_EQ((*ok)[2].strategy.pi, 100.0);
  EXPECT_EQ((*ok)[3].strategy.pi, -3.0);
  EXPECT_FALSE(sweep_configs({}, "pi", {"1", "two", "3"}, error));
  EXPECT_EQ(error, "--pi: not a finite number: two");
  EXPECT_FALSE(sweep_configs({}, "pi", {""}, error));
  EXPECT_FALSE(sweep_configs({}, "help", {"1"}, error));
}

TEST(Cli, SweepConfigsRejectMalformedIntegers) {
  EXPECT_EQ(sweep_error({}, "fanout", "1e300").rfind("--fanout: ", 0), 0u);
  EXPECT_EQ(sweep_error({}, "seed", "-1").rfind("--seed: ", 0), 0u);
  EXPECT_EQ(sweep_error({}, "nodes", "0.5").rfind("--nodes: ", 0), 0u);
  EXPECT_EQ(sweep_error({}, "u", "1e3").rfind("--u: ", 0), 0u);
}

TEST(Cli, SweepConfigsSweepNonNumericFlags) {
  std::string error;
  const auto configs = sweep_configs({}, "strategy", {"flat", "ranked"}, error);
  ASSERT_TRUE(configs) << error;
  ASSERT_EQ(configs->size(), 2u);
  EXPECT_EQ((*configs)[0].strategy.kind, StrategyKind::flat);
  EXPECT_EQ((*configs)[1].strategy.kind, StrategyKind::ranked);
  EXPECT_FALSE(sweep_configs({}, "strategy", {"flat", "magic"}, error));
  EXPECT_EQ(error, "--strategy: unknown strategy: magic");
}

TEST(Cli, SweepConfigsLoadFilesAtEachPointsNodeCount) {
  const TempFile scn("sweep_node_count.scn", "0s crash nodes 30..39\n");
  std::string error;
  const auto configs =
      sweep_configs({"--scenario", scn.path}, "nodes", {"40", "60"}, error);
  ASSERT_TRUE(configs) << error;
  EXPECT_EQ((*configs)[1].scenario.events.size(), 1u);
  EXPECT_FALSE(
      sweep_configs({"--scenario", scn.path}, "nodes", {"40", "35"}, error));
  EXPECT_NE(error.find("scenario line 1: node 39 out of range"),
            std::string::npos)
      << error;
}

TEST(Cli, RejectsIntegersWiderThanTheirField) {
  std::string error;
  EXPECT_FALSE(parse_cli({"--nodes", "4294967298"}, error));
  EXPECT_EQ(error.rfind("--nodes: ", 0), 0u) << error;
  EXPECT_EQ(parse({"--nodes", "4294967295"})->config.num_nodes, 4294967295u);
  EXPECT_FALSE(parse_cli({"--path-cache-mb", "18446744073709551615"}, error));
  EXPECT_EQ(error.rfind("--path-cache-mb: ", 0), 0u) << error;
  EXPECT_EQ(parse({"--path-cache-mb", "512"})->config.path_cache_bytes,
            std::size_t{512} << 20);
  for (const char* flag : {"--fanout", "--u", "--degree", "--senders",
                           "--topics", "--shards", "--sender"}) {
    EXPECT_FALSE(parse_cli({flag, "4294967296"}, error)) << flag;
    EXPECT_EQ(error.rfind(std::string(flag) + ": ", 0), 0u) << error;
  }
}

TEST(Cli, RejectsNonFiniteNumbers) {
  std::string error;
  for (const char* flag : {"--pi", "--rho", "--best", "--noise", "--loss",
                           "--kill", "--churn", "--slow", "--bp-high"}) {
    for (const char* bad : {"nan", "inf", "-inf"}) {
      EXPECT_FALSE(parse_cli({flag, bad}, error)) << flag << " " << bad;
      EXPECT_EQ(error, std::string(flag) + ": not a finite number: " + bad);
    }
  }
}

TEST(Cli, InputFilesRejectNodesOutsideTheRun) {
  std::string error;
  // Loads `text` as the --scenario (or --workload) of a 20-node run.
  auto load = [&](const char* flag, const std::string& text) {
    CliOptions options = *parse({"--nodes", "20"});
    const TempFile file("input", text);
    (std::string(flag) == "--scenario" ? options.scenario_path
                                       : options.workload_path) = file.path;
    return load_input_files(options, error);
  };
  // Node ranges are checked before they are expanded: neither of the
  // huge ranges is allocated.
  EXPECT_FALSE(load("--scenario", "0s crash nodes 0..4294967295\n"));
  EXPECT_NE(error.find("scenario line 1: node 4294967295 out of range"),
            std::string::npos)
      << error;
  EXPECT_FALSE(load("--scenario", "0s crash nodes 25\n"));
  EXPECT_NE(error.find("scenario line 1: node 25 out of range (20 nodes)"),
            std::string::npos)
      << error;
  EXPECT_FALSE(load("--scenario", "1s loss rate=0.5 link=3-25\n"));
  EXPECT_NE(error.find("scenario line 1:"), std::string::npos) << error;
  // Semantic checks run at load time too, not first inside the run.
  EXPECT_FALSE(load("--scenario", "0s crash best 20\n"));
  EXPECT_NE(error.find("count >= num_nodes"), std::string::npos) << error;
  EXPECT_TRUE(load("--scenario", "0s crash nodes 0..19\n")) << error;

  EXPECT_FALSE(load("--workload",
                    "duration 1s\ntopic t nodes=0..50000000\n"
                    "publisher poisson rate=1 topic=t\n"));
  EXPECT_NE(error.find("workload line 2: node 50000000 out of range"),
            std::string::npos)
      << error;
  EXPECT_FALSE(load("--workload", "publisher poisson rate=1 node=20\n"));
  EXPECT_NE(error.find("workload line 1: node 20 out of range"),
            std::string::npos)
      << error;
}

/// Exit status of a tool run with its output discarded.
int tool_status(const std::string& command) {
  const int status = std::system(
      (std::string(ESM_TOOLS_DIR) + "/" + command + " >/dev/null 2>&1")
          .c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, ToolsExitTwoOnMalformedValues) {
  EXPECT_EQ(tool_status("esm_run --reps -1"), 2);
  EXPECT_EQ(tool_status("esm_run --reps 2x"), 2);
  EXPECT_EQ(tool_status("esm_run --nodes 4294967298"), 2);
  EXPECT_EQ(tool_status("esm_run --pi nan"), 2);
  EXPECT_EQ(tool_status("esm_sweep --param fanout --values 1e300"), 2);
  EXPECT_EQ(tool_status("esm_sweep --param seed --values -1"), 2);
  EXPECT_EQ(tool_status("esm_sweep --param nodes --values 0.5"), 2);
  EXPECT_EQ(tool_status("esm_topo --clients 20x"), 2);
  EXPECT_EQ(tool_status("esm_topo --clients 20 --seed abc"), 2);
  EXPECT_EQ(tool_status("esm_topo --clients 4294967296"), 2);
  // The offline tools get valid files, so only the flag value is at fault.
  const std::string dir = ::testing::TempDir();
  const std::string exp = dir + "esm_cli_relay.exp";
  const std::string trace = dir + "esm_cli_trace.csv";
  std::ofstream(exp) << "tree relay_within=2r\n";
  std::ofstream(trace)
      << "kind,time_us,node,peer,seq,latency_us,eager,from,recv_time_us\n"
      << "delivery,1000,1,0,0,1000,1,0,\n";
  const std::string expect = "esm_expect --expect " + exp + " ";
  EXPECT_NE(tool_status(expect + trace), 2);
  for (const char* round : {"nan", "inf", "1e300", "-1", "0", "1e-9"}) {
    EXPECT_EQ(tool_status(expect + "--round-ms " + round + " " + trace), 2)
        << "--round-ms " << round;
  }
  for (const char* nodes : {"+5", "0", "-1", "5x", "4294967296"}) {
    EXPECT_EQ(tool_status(expect + "--nodes " + nodes + " " + trace), 2)
        << "--nodes " << nodes;
  }
  EXPECT_NE(tool_status("esm_trees " + trace), 2);
  EXPECT_EQ(tool_status("esm_trees --window-start 1e300 " + trace), 2);
  EXPECT_EQ(tool_status("esm_trees --window-end inf " + trace), 2);
  EXPECT_EQ(tool_status("esm_trees --window-end nan " + trace), 2);
  EXPECT_EQ(tool_status("esm_trees --top nan " + trace), 2);
  const std::string bench = dir + "esm_cli_bench.json";
  std::ofstream(bench) << "{}\n";
  const std::string guard = "esm_bench_guard " + bench + " " + bench;
  EXPECT_EQ(tool_status(guard + " --max-drop 0.2"), 0);
  for (const char* drop : {"nan", "0.5x", "inf"}) {
    EXPECT_EQ(tool_status(guard + " --max-drop " + drop), 2)
        << "--max-drop " << drop;
  }
}

TEST(Cli, EndToEndSmallRun) {
  const auto options =
      parse({"--nodes", "25", "--messages", "20", "--strategy", "ttl", "--u",
             "2", "--seed", "1"});
  ASSERT_TRUE(options);
  ExperimentConfig c = options->config;
  c.warmup = 10 * kSecond;
  c.topology.num_underlay_vertices = 400;
  c.topology.num_transit_domains = 3;
  c.topology.transit_per_domain = 6;
  const ExperimentResult r = run_experiment(c);
  EXPECT_DOUBLE_EQ(r.mean_delivery_fraction, 1.0);
}

}  // namespace
}  // namespace esm::harness
