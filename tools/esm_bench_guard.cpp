// esm_bench_guard: cross-commit regression gate for BENCH_sweep.json.
//
// Compares a freshly generated report against the baseline committed in
// the repository and fails (exit 1) on either gated regression:
//
//   * scale_50k.events_per_second dropped more than the allowed fraction
//     (throughput gate — machine-relative, hence the generous margin);
//   * load_sweep.goodput_msgs_per_s dropped more than the allowed
//     fraction at the 50k-node / 32-publisher heavy-traffic point. This
//     is a *deterministic simulation output*, so any drop at all is a
//     behavioral change; the shared margin merely absorbs intentional
//     protocol tuning between baseline refreshes;
//   * load_sweep_bp.goodput_on_msgs_per_s dropped more than the allowed
//     fraction at the saturated burst point with --backpressure on —
//     the same determinism argument applies, and this gate specifically
//     protects the egress-backpressure + drop-recovery path.
//
// CI runs:
//
//   esm_bench_report --scale --load-sweep --out bench-fresh.json
//   esm_bench_guard bench-fresh.json BENCH_sweep.json          # 15% gate
//   esm_bench_guard fresh.json base.json --max-drop 0.25       # custom
//
// Both files are esm_bench_report output, so a purpose-built field
// extractor is enough — no JSON library needed. A baseline without a
// scale_50k (or load_sweep) section passes that gate with a note
// (bootstrap case: each gate arms itself once its baseline section is
// committed). RSS is reported for context but not gated: CI machines
// vary more in memory layout than in relative throughput.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/line_grammar.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Extracts `"field": <number>` from the object that follows
/// `"section": {`. Returns false when the section or field is absent.
bool extract(const std::string& json, const std::string& section,
             const std::string& field, double& value) {
  const auto sec = json.find("\"" + section + "\"");
  if (sec == std::string::npos) return false;
  const auto open = json.find('{', sec);
  const auto close = json.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  const std::string body = json.substr(open, close - open);
  const auto key = body.find("\"" + field + "\"");
  if (key == std::string::npos) return false;
  const auto colon = body.find(':', key);
  if (colon == std::string::npos) return false;
  value = std::strtod(body.c_str() + colon + 1, nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  double max_drop = 0.15;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == "--max-drop" && i + 1 < args.size()) {
      // A NaN fraction would make every floor NaN and every gate pass.
      const std::optional<double> v = esm::text::finite_number(args[i + 1]);
      if (!v) {
        std::fprintf(stderr,
                     "esm_bench_guard: --max-drop: not a finite number: %s\n",
                     args[i + 1].c_str());
        return 2;
      }
      max_drop = *v;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  if (args.size() != 2 || max_drop <= 0.0 || max_drop >= 1.0) {
    std::fprintf(stderr,
                 "usage: esm_bench_guard FRESH.json BASELINE.json "
                 "[--max-drop 0.15]\n");
    return 2;
  }

  std::string fresh_json, base_json;
  if (!read_file(args[0], fresh_json)) {
    std::fprintf(stderr, "esm_bench_guard: cannot read %s\n",
                 args[0].c_str());
    return 2;
  }
  if (!read_file(args[1], base_json)) {
    std::fprintf(stderr, "esm_bench_guard: cannot read %s\n",
                 args[1].c_str());
    return 2;
  }

  int failures = 0;

  // Gate 1: 50k-node scale throughput.
  double base_eps = 0.0;
  if (!extract(base_json, "scale_50k", "events_per_second", base_eps)) {
    std::printf(
        "esm_bench_guard: baseline %s has no scale_50k section — "
        "throughput gate not armed yet\n",
        args[1].c_str());
  } else {
    double fresh_eps = 0.0;
    if (!extract(fresh_json, "scale_50k", "events_per_second", fresh_eps)) {
      std::fprintf(stderr,
                   "esm_bench_guard: %s has no scale_50k section — run "
                   "esm_bench_report with --scale\n",
                   args[0].c_str());
      return 2;
    }
    double base_rss = 0.0, fresh_rss = 0.0;
    extract(base_json, "scale_50k", "peak_rss_mb", base_rss);
    extract(fresh_json, "scale_50k", "peak_rss_mb", fresh_rss);
    const double floor = base_eps * (1.0 - max_drop);
    std::printf(
        "50k point: fresh %.0f ev/s vs baseline %.0f ev/s (floor %.0f, "
        "max drop %.0f%%) | RSS %.0f MB vs %.0f MB\n",
        fresh_eps, base_eps, floor, 100.0 * max_drop, fresh_rss, base_rss);
    if (fresh_eps < floor) {
      std::fprintf(stderr,
                   "esm_bench_guard: REGRESSION — 50k events/s dropped "
                   "%.1f%% (allowed %.0f%%)\n",
                   100.0 * (1.0 - fresh_eps / base_eps), 100.0 * max_drop);
      ++failures;
    }
  }

  // Gate 1b: 50k-node scale throughput through the sharded engine
  // (--shards 4). Same machine-relative argument as gate 1; this one
  // additionally catches barrier-overhead regressions that leave the
  // serial engine untouched.
  double base_seps = 0.0;
  if (!extract(base_json, "scale_50k_sharded4", "events_per_second",
               base_seps)) {
    std::printf(
        "esm_bench_guard: baseline %s has no scale_50k_sharded4 section — "
        "sharded throughput gate not armed yet\n",
        args[1].c_str());
  } else {
    double fresh_seps = 0.0;
    if (!extract(fresh_json, "scale_50k_sharded4", "events_per_second",
                 fresh_seps)) {
      std::fprintf(stderr,
                   "esm_bench_guard: %s has no scale_50k_sharded4 section — "
                   "run esm_bench_report with --scale\n",
                   args[0].c_str());
      return 2;
    }
    const double floor = base_seps * (1.0 - max_drop);
    std::printf(
        "50k sharded point: fresh %.0f ev/s vs baseline %.0f ev/s "
        "(floor %.0f, max drop %.0f%%)\n",
        fresh_seps, base_seps, floor, 100.0 * max_drop);
    if (fresh_seps < floor) {
      std::fprintf(stderr,
                   "esm_bench_guard: REGRESSION — 50k sharded events/s "
                   "dropped %.1f%% (allowed %.0f%%)\n",
                   100.0 * (1.0 - fresh_seps / base_seps), 100.0 * max_drop);
      ++failures;
    }
  }

  // Gate 2: goodput at the 50k-node / 32-publisher heavy-traffic point.
  double base_gp = 0.0;
  if (!extract(base_json, "load_sweep", "goodput_msgs_per_s", base_gp)) {
    std::printf(
        "esm_bench_guard: baseline %s has no load_sweep section — "
        "goodput gate not armed yet\n",
        args[1].c_str());
  } else {
    double fresh_gp = 0.0;
    if (!extract(fresh_json, "load_sweep", "goodput_msgs_per_s", fresh_gp)) {
      std::fprintf(stderr,
                   "esm_bench_guard: %s has no load_sweep section — run "
                   "esm_bench_report with --load-sweep\n",
                   args[0].c_str());
      return 2;
    }
    const double floor = base_gp * (1.0 - max_drop);
    std::printf(
        "load point: fresh %.1f goodput msgs/s vs baseline %.1f "
        "(floor %.1f, max drop %.0f%%)\n",
        fresh_gp, base_gp, floor, 100.0 * max_drop);
    if (fresh_gp < floor) {
      std::fprintf(stderr,
                   "esm_bench_guard: REGRESSION — heavy-traffic goodput "
                   "dropped %.1f%% (allowed %.0f%%)\n",
                   100.0 * (1.0 - fresh_gp / base_gp), 100.0 * max_drop);
      ++failures;
    }
  }

  // Gate 3: backpressure-on goodput at the saturated burst point. Like
  // gate 2 this is a deterministic simulation output; a drop means the
  // backpressure path itself regressed (deferrals too aggressive, drop
  // recovery broken), not that the machine got slower.
  double base_bp = 0.0;
  if (!extract(base_json, "load_sweep_bp", "goodput_on_msgs_per_s",
               base_bp)) {
    std::printf(
        "esm_bench_guard: baseline %s has no load_sweep_bp section — "
        "backpressure gate not armed yet\n",
        args[1].c_str());
  } else {
    double fresh_bp = 0.0;
    if (!extract(fresh_json, "load_sweep_bp", "goodput_on_msgs_per_s",
                 fresh_bp)) {
      std::fprintf(stderr,
                   "esm_bench_guard: %s has no load_sweep_bp section — run "
                   "esm_bench_report with --load-sweep\n",
                   args[0].c_str());
      return 2;
    }
    const double floor = base_bp * (1.0 - max_drop);
    std::printf(
        "backpressure point: fresh %.1f goodput msgs/s vs baseline %.1f "
        "(floor %.1f, max drop %.0f%%)\n",
        fresh_bp, base_bp, floor, 100.0 * max_drop);
    if (fresh_bp < floor) {
      std::fprintf(stderr,
                   "esm_bench_guard: REGRESSION — backpressure-on goodput "
                   "dropped %.1f%% (allowed %.0f%%)\n",
                   100.0 * (1.0 - fresh_bp / base_bp), 100.0 * max_drop);
      ++failures;
    }
  }

  if (failures > 0) return 1;
  std::printf("esm_bench_guard: OK\n");
  return 0;
}
