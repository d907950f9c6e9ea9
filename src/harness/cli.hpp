// Command-line front end for the experiment harness.
//
// Parsing is a pure function from argv to ExperimentConfig so it can be
// unit-tested; the `esm_run` tool is a thin wrapper that parses, runs and
// prints. Flags mirror the paper's knobs one-to-one.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"

namespace esm::harness {

struct CliOptions {
  ExperimentConfig config;
  /// Print machine-readable key=value lines instead of the table.
  bool json = false;
  /// --help was requested; `help_text` should be printed.
  bool help = false;
  /// --scenario FILE: fault-scenario script to load into config.scenario.
  /// The parser stays pure (no file IO); tools load the file themselves
  /// via load_input_files().
  std::string scenario_path;
  /// --workload FILE: heavy-traffic workload spec (src/load) to load into
  /// config.workload via load_input_files(). Mutually exclusive with the
  /// inline --senders/--rate/... flags, which build config.workload
  /// directly in the parser.
  std::string workload_path;
};

/// Usage text for `esm_run --help`.
std::string cli_help_text();

/// Parses CLI arguments (excluding argv[0]). Numbers must be finite and
/// integers must fit their field (the text-input rules of
/// common/line_grammar). On error returns nullopt and sets `error` to a
/// one-line diagnostic naming the offending flag.
std::optional<CliOptions> parse_cli(const std::vector<std::string>& args,
                                    std::string& error);

/// Loads the --scenario and --workload files named in `options` into its
/// config and validates both against the node count: a node id outside
/// it fails with its line number, before any node range is expanded. On
/// failure returns false and sets `error` to the file's diagnostic.
bool load_input_files(CliOptions& options, std::string& error);

/// Renders an ExperimentResult as `key=value` lines (stable interface for
/// scripts; one metric per line).
std::string format_result_kv(const ExperimentResult& result);

/// Renders emergent-structure tree metrics as `tree_*=value` lines.
/// Appended to format_result_kv output automatically when the result
/// carries tree stats; exposed so tools can print stats merged across
/// --reps the same way.
std::string format_tree_kv(const obs::TreeStats& stats);

/// Renders merged run metrics as one deterministic JSON document (schema
/// "esm-metrics-v1"): schema tag, replication count, aggregate registry,
/// per-node registries, and (when scenarios ran) per-phase windows merged
/// by index using only the merge-exact fields (start from the first run,
/// end = max, message/delivery/payload counts summed). Every map is
/// emitted in sorted key order and doubles are printed with %.17g, so the
/// output is byte-identical however the runs were scheduled.
/// `phase_runs` holds one phase-report vector per replication (empty
/// vectors allowed; the "phases" key is omitted when none has phases).
std::string format_metrics_json(
    const obs::RunMetrics& metrics,
    const std::vector<std::vector<stats::PhaseReport>>& phase_runs);

/// The configs of an `esm_sweep`: point k is `args` followed by
/// `--<param> <values[k]>`, run through parse_cli and load_input_files as
/// `esm_run` would run it. So every flag that takes a value can be swept,
/// each value gets that flag's checks and error text, and each point loads
/// its --scenario/--workload files against its own node count. On the
/// first failing point returns nullopt and sets `error`.
std::optional<std::vector<ExperimentConfig>> sweep_configs(
    const std::vector<std::string>& args, const std::string& param,
    const std::vector<std::string>& values, std::string& error);

}  // namespace esm::harness
