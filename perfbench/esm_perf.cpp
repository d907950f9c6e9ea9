// esm_perf: one repetition of one benchmark workload, printed as a single
// JSON record on stdout.
//
// This file builds two programs (see CMakeLists.txt):
//   esm_perf         the timed repetitions. The counting allocator is not
//                    linked, so the timed calls run on the stock allocator.
//   esm_perf_traced  the traced run (ESM_PERF_TRACED). It records a span
//                    around every public call the benchmark makes, counts
//                    allocations with common/alloc_counter, and runs sweep
//                    points serially so per-point time and allocations
//                    attribute exactly.
// perfbench/run.py starts each repetition in a fresh process, aggregates
// the records and checks them; perfbench/README.md documents the metrics.
//
//   esm_perf --workload NAME --seed N [--size full|toy] [--jobs N]
//            [--spans FILE]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "load/workload.hpp"
#include "net/path_model.hpp"
#include "net/topology.hpp"
#include "obs/tree_stats.hpp"
#ifdef ESM_PERF_TRACED
#include "common/alloc_counter.hpp"
#endif

namespace {

using namespace esm;
using harness::ExperimentConfig;
using harness::ExperimentResult;
using harness::StrategyKind;
using harness::StrategySpec;
using Clock = std::chrono::steady_clock;

#ifdef ESM_PERF_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- workloads -------------------------------------------------------------

struct Workload {
  std::vector<ExperimentConfig> configs;
  /// Runner pool size. A sweep's timed call is one run_experiments over
  /// every config; a single-run workload times one run_experiment.
  unsigned jobs = 1;
  bool sweep = false;
  /// World builds timed per repetition; a cheap world is timed several
  /// times so its median is steady.
  int setup_reps = 1;
};

/// saturation: the load_sweep_bp point of esm_bench_report with
/// backpressure on — 8 burst publishers at 40 msg/s for 10 s over 2 Mb/s
/// egress and a 32 KiB drop-oldest buffer, eager push (Flat pi = 1).
/// saturation_sharded runs the same inputs on 4 shards.
ExperimentConfig saturation_config(std::uint64_t seed, bool toy,
                                   std::uint32_t shards) {
  ExperimentConfig c;
  c.seed = seed;
  c.shards = shards;
  c.num_nodes = toy ? 60 : 300;
  c.num_messages = 0;
  c.overlay_kind = harness::OverlayKind::static_random;
  c.strategy = StrategySpec::make_flat(1.0);
  c.bandwidth_bps = 2'000'000;
  c.egress_buffer_bytes = 32 * 1024;
  c.purge_policy = net::TransportOptions::PurgePolicy::drop_oldest;
  c.backpressure = true;
  c.workload.duration = (toy ? 2 : 10) * kSecond;
  for (int p = 0; p < (toy ? 2 : 8); ++p) {
    load::PublisherSpec pub;
    pub.arrival = load::ArrivalKind::burst;
    pub.rate = 40.0;
    c.workload.publishers.push_back(pub);
  }
  return c;
}

/// paper_sweep: the 23 points of Fig. 5(a) on one seeded 100-node world,
/// with tree stats and metrics collected on every point.
Workload paper_sweep(std::uint64_t seed, bool toy) {
  ExperimentConfig base;
  base.seed = seed;
  base.num_nodes = toy ? 30 : 100;
  base.num_messages = toy ? 40 : 400;
  base.collect_tree_stats = true;
  base.collect_metrics = true;

  // Radius rho at pairwise-latency quantiles of this seed's world (input
  // preparation, not timed).
  net::TopologyParams params = base.topology;
  params.num_clients = base.num_nodes;
  const net::Topology topo = net::generate_topology(params, base.seed);
  const auto paths = net::make_path_model(topo, base.path_model);

  std::vector<StrategySpec> specs;
  for (const double pi : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    specs.push_back(StrategySpec::make_flat(pi));
  }
  for (Round u = 0; u <= 6; ++u) specs.push_back(StrategySpec::make_ttl(u));
  for (const double q : {0.10, 0.25, 0.50, 0.75}) {
    specs.push_back(StrategySpec::make_radius(to_ms(paths->latency_quantile(q))));
  }
  for (const double best : {0.05, 0.10, 0.20, 0.30, 0.40}) {
    specs.push_back(StrategySpec::make_ranked(best));
  }
  Workload w;
  w.sweep = true;
  w.jobs = 4;
  w.setup_reps = 3;
  for (const StrategySpec& spec : specs) {
    ExperimentConfig c = base;
    c.strategy = spec;
    w.configs.push_back(c);
  }
  return w;
}

bool make_workload(const std::string& name, std::uint64_t seed, bool toy,
                   Workload& w) {
  if (name == "paper_sweep") {
    w = paper_sweep(seed, toy);
  } else if (name == "saturation" || name == "saturation_sharded") {
    w.configs = {saturation_config(seed, toy, name == "saturation" ? 1 : 4)};
  } else {
    return false;
  }
  return true;
}

// --- spans -----------------------------------------------------------------

/// In-memory span log: name, start, end, parent and run id, written out
/// once the workload has finished. run -1 marks spans not tied to one run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    int run;
  };

  int open(const char* name, int parent, int run) {
    spans_.push_back({name, now(), -1.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  /// Summed duration of every span called `name`.
  double total(const char* name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) sum += s.end_s - s.start_s;
    }
    return sum;
  }
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id,name,start_s,end_s,parent,run\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%zu,%s,%.9f,%.9f,%d,%d\n", i, s.name,
                    s.start_s, s.end_s, s.parent, s.run);
      out << buf;
    }
    return static_cast<bool>(out);
  }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span only in the traced build; the timed build records nothing.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int parent, int run)
      : log_(log), id_(kTraced ? log.open(name, parent, run) : -1) {}
  ~Scope() {
    if (id_ >= 0) log_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// --- world build (setup_s) ---------------------------------------------------

/// Mirrors run_experiment's condition for computing closeness sums.
bool needs_closeness(const ExperimentConfig& c) {
  const bool ranks = c.strategy.kind == StrategyKind::ranked ||
                     c.strategy.kind == StrategyKind::hybrid;
  const bool kills_best = c.kill_fraction > 0.0 &&
                          c.kill_mode == harness::KillMode::best_ranked;
  if (c.shards >= 2) return ranks || kills_best;
  return ranks || kills_best || !c.scenario.empty() || c.collect_tree_stats;
}

/// What one run builds before its event loop, through the same public
/// calls run_experiment makes, on the run's own inputs.
struct World {
  net::Topology topo;
  std::unique_ptr<net::PathModel> paths;
  std::vector<double> closeness;
  std::size_t arrivals = 0;
};

World build_world(const ExperimentConfig& c, SpanLog& spans, int parent) {
  World w;
  if (!c.workload.empty()) {
    const Scope s(spans, "load.build_plan", parent, -1);
    w.arrivals = load::build_plan(c.workload, c.num_nodes,
                                  Rng(c.seed).split(0x776b6c64ULL))  // "wkld"
                     .size();
  }
  net::TopologyParams params = c.topology;
  params.num_clients = c.num_nodes;
  {
    const Scope s(spans, "net.generate_topology", parent, -1);
    w.topo = net::generate_topology(params, c.seed);
  }
  {
    const Scope s(spans, "net.make_path_model", parent, -1);
    w.paths = net::make_path_model(w.topo, c.path_model, c.path_cache_bytes);
  }
  if (needs_closeness(c)) {
    const Scope s(spans, "net.closeness_sums", parent, -1);
    w.closeness = w.paths->closeness_sums();
  }
  return w;
}

// --- tree-stats cross-check ------------------------------------------------

/// Re-derives a point's tree stats from its trace with the options
/// run_experiment passes: closeness order as `ranked`, the report
/// fraction, the path model, and the all-pairs overlay baseline.
obs::TreeStats analyze_point(const ExperimentConfig& c,
                             const ExperimentResult& r, const World& world) {
  obs::TreeStatsOptions opt;
  opt.ranked = harness::rank_by_closeness(*world.paths);
  opt.top_fraction = c.report_best_fraction > 0.0 ? c.report_best_fraction
                                                  : c.strategy.best_fraction;
  opt.paths = world.paths.get();
  obs::TreeStats t = obs::analyze_trees(*r.trace, opt);
  double total = 0.0;
  for (const double s : world.closeness) total += s;
  const double pairs = static_cast<double>(c.num_nodes) *
                       static_cast<double>(c.num_nodes - 1);
  t.overlay_mean_link_us = pairs > 0.0 ? total / pairs : 0.0;
  return t;
}

bool same_tree_stats(const obs::TreeStats& a, const obs::TreeStats& b) {
  return a.messages == b.messages && a.edges == b.edges &&
         a.eager_edges == b.eager_edges &&
         a.orphan_deliveries == b.orphan_deliveries &&
         a.interior_nodes == b.interior_nodes &&
         a.interior_top_ranked == b.interior_top_ranked &&
         a.eager_edges_from_top == b.eager_edges_from_top &&
         a.has_rank_info == b.has_rank_info &&
         a.top_fraction == b.top_fraction &&
         a.overlay_mean_link_us == b.overlay_mean_link_us &&
         a.edge_latency_us == b.edge_latency_us &&
         a.link_latency_us == b.link_latency_us && a.depth == b.depth &&
         a.fanout == b.fanout && a.stretch_pct == b.stretch_pct &&
         a.jaccard_permille == b.jaccard_permille &&
         a.jaccard_sum == b.jaccard_sum &&
         a.jaccard_pairs == b.jaccard_pairs &&
         a.eager_children == b.eager_children;
}

// --- JSON output -----------------------------------------------------------

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (const char ch : v) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

template <typename T, typename Format>
std::string json_list(const std::vector<T>& items, Format format) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += format(items[i]);
  }
  return out + "]";
}

/// Flat JSON object writer; doubles keep all 17 significant digits so the
/// fingerprint compares exactly after a round trip.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& num(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_.append(body_.empty() ? "{\"" : ", \"").append(key);
    body_.append("\": ").append(json);
    return *this;
  }
  std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

/// Deterministic outputs of one run: identical on every repetition and
/// between the timed and traced runs, at any host speed.
std::string fingerprint(const ExperimentResult& r) {
  JsonObject f;
  f.num("events", r.events_executed)
      .num("payload_packets", r.payload_packets)
      .num("control_packets", r.control_packets)
      .num("total_bytes", r.total_bytes)
      .num("duplicate_payloads", r.duplicate_payloads)
      .num("requests_sent", r.requests_sent)
      .num("iwant_retries", r.iwant_retries)
      .num("recovery_stalled", r.recovery_stalled)
      .num("packets_lost", r.packets_lost)
      .num("buffer_drops", r.buffer_drops)
      .num("eager_deferred", r.eager_deferred)
      .num("replies_deferred", r.replies_deferred)
      .num("egress_serialized", r.egress_serialized_packets)
      .num("egress_peak_depth", r.egress_peak_depth)
      .num("offered_msgs", r.offered_msgs)
      .num("live_nodes", std::uint64_t{r.live_nodes})
      .num("path_rows", r.path_rows_computed)
      .num("shard_windows", r.shard_windows)
      .num("shard_mailbox_packets", r.shard_mailbox_packets)
      .num("delivery_fraction", r.mean_delivery_fraction)
      .num("atomic_delivery_fraction", r.atomic_delivery_fraction)
      .num("latency_mean_ms", r.mean_latency_ms)
      .num("latency_p50_ms", r.p50_latency_ms)
      .num("latency_p95_ms", r.p95_latency_ms)
      .num("payload_per_delivery", r.payload_per_delivery)
      .num("redundancy_ratio", r.redundancy_ratio)
      .num("goodput_msgs_per_s", r.goodput_msgs_per_s)
      .num("queue_delay_mean_ms", r.egress_queue_delay_mean_ms);
  if (r.tree_stats) {
    const obs::TreeStats& t = *r.tree_stats;
    f.num("tree_messages", t.messages)
        .num("tree_edges", t.edges)
        .num("tree_eager_edges", t.eager_edges)
        .num("tree_orphans", t.orphan_deliveries)
        .num("tree_interior", t.interior_nodes)
        .num("tree_interior_top", t.interior_top_ranked)
        .num("tree_eager_from_top", t.eager_edges_from_top)
        .num("tree_depth_sum", t.depth.sum())
        .num("tree_jaccard_sum", t.jaccard_sum)
        .num("tree_overlay_mean_link_us", t.overlay_mean_link_us);
  }
  return f.text();
}

/// The model_* metrics: a single run's value, or the mean over sweep points.
std::string model_metrics(const std::vector<ExperimentResult>& rs) {
  double delivery = 0.0, p50 = 0.0, p95 = 0.0, ppd = 0.0, goodput = 0.0;
  for (const ExperimentResult& r : rs) {
    delivery += r.mean_delivery_fraction;
    p50 += r.p50_latency_ms;
    p95 += r.p95_latency_ms;
    ppd += r.payload_per_delivery;
    goodput += r.goodput_msgs_per_s;
  }
  const auto n = static_cast<double>(rs.size());
  return JsonObject{}
      .num("model_delivery_fraction", delivery / n)
      .num("model_latency_p50_ms", p50 / n)
      .num("model_latency_p95_ms", p95 / n)
      .num("model_payload_per_delivery", ppd / n)
      .num("model_goodput_msgs_per_s", goodput / n)
      .text();
}

/// Per-layer counters read from ExperimentResult: sums over sweep points
/// for counts, means for ratios, maxima for high-water marks.
JsonObject counters(const std::vector<ExperimentResult>& rs) {
  std::uint64_t events = 0, payload = 0, control = 0, bytes = 0, serialized = 0,
                drops = 0, lost = 0, dups = 0, requests = 0, retries = 0,
                stalled = 0, eager_deferred = 0, replies_deferred = 0,
                peak_depth = 0, path_rows = 0, windows = 0, mailbox = 0,
                trace_rows = 0;
  double queue_delay = 0.0, redundancy = 0.0, lookahead = 0.0, busy_ms = 0.0,
         wait_ms = 0.0, path_mb = 0.0;
  for (const ExperimentResult& r : rs) {
    events += r.events_executed;
    payload += r.payload_packets;
    control += r.control_packets;
    bytes += r.total_bytes;
    serialized += r.egress_serialized_packets;
    drops += r.buffer_drops;
    lost += r.packets_lost;
    dups += r.duplicate_payloads;
    requests += r.requests_sent;
    retries += r.iwant_retries;
    stalled += r.recovery_stalled;
    eager_deferred += r.eager_deferred;
    replies_deferred += r.replies_deferred;
    peak_depth = std::max(peak_depth, r.egress_peak_depth);
    path_rows = std::max(path_rows, r.path_rows_computed);
    path_mb = std::max(path_mb,
                       static_cast<double>(r.path_model_bytes) / 1048576.0);
    windows += r.shard_windows;
    mailbox += r.shard_mailbox_packets;
    lookahead = std::max(lookahead, r.shard_lookahead_ms);
    busy_ms += r.shard_busy_ms;
    wait_ms += r.shard_barrier_wait_ms;
    queue_delay += r.egress_queue_delay_mean_ms;
    redundancy += r.redundancy_ratio;
    if (r.trace) {
      trace_rows += r.trace->deliveries().size() + r.trace->payloads().size() +
                    r.trace->phases().size();
    }
  }
  const auto n = static_cast<double>(rs.size());
  const double packets = static_cast<double>(payload + control);
  JsonObject c;
  c.num("sim.events", events)
      .num("sim.shard_windows", windows)
      .num("sim.shard_lookahead_ms", lookahead)
      .num("sim.shard_cross_fraction",
           packets > 0.0 ? static_cast<double>(mailbox) / packets : 0.0)
      .num("sim.shard_busy_s", busy_ms / 1000.0)
      .num("sim.shard_wait_s", wait_ms / 1000.0)
      .num("sim.shard_wait_share",
           busy_ms + wait_ms > 0.0 ? wait_ms / (busy_ms + wait_ms) : 0.0)
      .num("net.path_rows", path_rows)
      .num("net.path_model_mb", path_mb)
      .num("net.payload_packets", payload)
      .num("net.control_packets", control)
      .num("net.bytes_mb", static_cast<double>(bytes) / 1048576.0)
      .num("net.egress_serialized", serialized)
      .num("net.queue_delay_mean_ms", queue_delay / n)
      .num("net.egress_peak_depth", peak_depth)
      .num("net.buffer_drops", drops)
      .num("net.packets_lost", lost)
      .num("core.redundancy_ratio", redundancy / n)
      .num("core.duplicate_payloads", dups)
      .num("core.requests_sent", requests)
      .num("core.iwant_retries", retries)
      .num("core.recovery_stalled", stalled)
      .num("core.eager_deferred", eager_deferred)
      .num("core.replies_deferred", replies_deferred)
      .num("trace.rows", trace_rows);
  return c;
}

std::string build_refusal() {
#if !defined(NDEBUG)
  return "assertions are enabled (not an NDEBUG build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#elif defined(ESM_PERF_UNFIT)
  return ESM_PERF_UNFIT;
#else
  return "";
#endif
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "esm_perf: %s\nusage: esm_perf --workload "
               "paper_sweep|saturation|saturation_sharded --seed N "
               "[--size full|toy] [--jobs N] [--spans FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, size = "full", spans_path;
  std::uint64_t seed = 2007;
  unsigned jobs_override = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--size") {
        size = value;
      } else if (flag == "--jobs") {
        jobs_override = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--spans") {
        spans_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (size != "full" && size != "toy") return usage("--size is full or toy");
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "esm_perf: refusing to time this build: %s\n",
                 refusal.c_str());
    return 3;
  }

  Workload w;
  if (!make_workload(workload_name, seed, size == "toy", w)) {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (jobs_override > 0) w.jobs = jobs_override;
  // The traced run executes sweep points one at a time so each point's
  // span and allocation delta are its own.
  if (kTraced) w.jobs = 1;

  SpanLog spans;
  std::vector<std::string> checks;  // failed output checks, as messages
  std::vector<ExperimentResult> results;
  std::vector<double> point_s;  // timed sweep: per-point busy time
  std::vector<double> setup_s;
  World world;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t allocs = 0, alloc_bytes = 0;
  try {
    const Scope root(spans, "bench.workload", -1, -1);
    if (kTraced) {
      for (std::size_t i = 0; i < w.configs.size(); ++i) {
#ifdef ESM_PERF_TRACED
        const alloc::Snapshot before = alloc::snapshot();
#endif
        {
          const Scope s(spans, "harness.run_experiment", root.id(),
                        static_cast<int>(i));
          results.push_back(harness::run_experiment(w.configs[i]));
        }
#ifdef ESM_PERF_TRACED
        const alloc::Snapshot after = alloc::snapshot();
        allocs += after.count - before.count;
        alloc_bytes += after.bytes - before.bytes;
#endif
      }
      wall_s = spans.total("harness.run_experiment");
    } else if (w.sweep) {
      // Per-point busy time from completion stamps: a worker thread starts
      // its next point as soon as it has reported the previous one (the
      // runner serializes these callbacks).
      std::map<std::thread::id, Clock::time_point> last_done;
      point_s.assign(w.configs.size(), 0.0);
      const Clock::time_point start = Clock::now();
      results = harness::run_experiments(
          w.configs, w.jobs, [&](std::size_t i, const ExperimentResult&) {
            const Clock::time_point now = Clock::now();
            auto it = last_done.try_emplace(std::this_thread::get_id(), start)
                          .first;
            point_s[i] = seconds_between(it->second, now);
            it->second = now;
          });
      wall_s = seconds_between(start, Clock::now());
    } else {
      const Clock::time_point start = Clock::now();
      results.push_back(harness::run_experiment(w.configs.front()));
      wall_s = seconds_between(start, Clock::now());
    }
    rss_mb = peak_rss_mb();

    // World builds come after the timed call, so that call runs cold as a
    // user's run does. Every point of a sweep builds the same world.
    const int reps = kTraced ? 1 : w.setup_reps;
    for (int rep = 0; rep < reps; ++rep) {
      const Scope s(spans, "bench.setup", root.id(), -1);
      const Clock::time_point start = Clock::now();
      world = build_world(w.configs.front(), spans, s.id());
      setup_s.push_back(seconds_between(start, Clock::now()));
    }

    // The benchmark's own analysis of each point's trace must equal the
    // tree stats the point's run returned.
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!w.configs[i].collect_tree_stats) continue;
      const Scope s(spans, "obs.analyze_trees", root.id(),
                    static_cast<int>(i));
      const ExperimentResult& r = results[i];
      if (!r.trace || !r.tree_stats ||
          !same_tree_stats(analyze_point(w.configs[i], r, world),
                           *r.tree_stats)) {
        checks.push_back("run " + std::to_string(i) +
                         ": obs::analyze_trees differs from the run's "
                         "tree stats");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esm_perf: %s: %s\n", workload_name.c_str(),
                 e.what());
    return 1;
  }

  JsonObject record;
  record.str("workload", workload_name)
      .num("seed", seed)
      .str("size", size)
      .str("mode", kTraced ? "traced" : "timed")
      .str("build", ESM_PERF_BUILD_TYPE)
      .str("compiler", "g++ " __VERSION__)
      .num("jobs", std::uint64_t{w.jobs})
      .num("points", std::uint64_t{w.configs.size()})
      .num("wall_s", wall_s)
      .raw("setup_s", json_list(setup_s, json_number))
      .num("peak_rss_mb", rss_mb)
      .raw("model", model_metrics(results))
      .raw("counters", counters(results).text());
  if (!point_s.empty()) record.raw("point_s", json_list(point_s, json_number));
  if (kTraced) {
    std::uint64_t events = 0;
    for (const ExperimentResult& r : results) events += r.events_executed;
    // Loop time is an estimate: the run spans minus the benchmark's own
    // timing of the same world build (and, on a sweep, tree analysis).
    const double trees = spans.total("obs.analyze_trees");
    const double loop_s =
        wall_s -
        spans.total("bench.setup") * static_cast<double>(results.size()) -
        (w.sweep ? trees : 0.0);
    JsonObject layers;
    layers.num("net.topology_s", spans.total("net.generate_topology"))
        .num("net.path_model_s", spans.total("net.make_path_model"))
        .num("net.closeness_s", spans.total("net.closeness_sums"))
        .num("load.plan_s", spans.total("load.build_plan"))
        .num("load.arrivals", std::uint64_t{world.arrivals})
        .raw("harness.point_s",
             json_list(spans.durations("harness.run_experiment"), json_number))
        .num("sim.loop_s", loop_s)
        .num("sim.ns_per_event",
             events > 0 ? loop_s * 1e9 / static_cast<double>(events) : 0.0)
        .num("obs.tree_stats_s", trees)
        .num("common.allocs_per_event",
             events > 0 ? static_cast<double>(allocs) /
                              static_cast<double>(events)
                        : 0.0)
        .num("common.alloc_mb", static_cast<double>(alloc_bytes) / 1048576.0);
    record.raw("layers", layers.text());
    if (!spans_path.empty() && !spans.write_csv(spans_path)) {
      checks.push_back("cannot write spans to " + spans_path);
    }
  }
  record.raw("fingerprint", json_list(results, fingerprint))
      .raw("failed_checks", json_list(checks, json_string));
  std::printf("%s\n", record.text().c_str());
  return 0;
}
