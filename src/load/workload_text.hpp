// Text format for workload specs (the `.wl` companion of `.scn`):
//
//   # one directive per line, '#' comments
//   duration 20s
//   limit 5000                      # optional cap on generated arrivals
//   topic feeds fraction=0.25       # random 25% of nodes
//   topic ops nodes=0..7,32         # explicit member list
//   publisher poisson rate=40 topic=feeds
//   publisher fixed rate=10 node=3 payload=512
//   publisher burst rate=200 on=250ms off=750ms start=2s stop=12s
//
// Topics are referenced by name and must be declared before use. Times
// require a unit (us/ms/s) and unknown keys are errors, as in scenario
// scripts (docs/PROTOCOL.md §7d).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/line_grammar.hpp"
#include "load/workload.hpp"

namespace esm::load {

/// Parses a workload script. Throws std::runtime_error with a
/// "workload line N: ..." diagnostic on the first syntax error, including
/// a node id >= `num_nodes`. The remaining semantic checks happen in
/// WorkloadSpec::validate.
WorkloadSpec parse_workload(std::istream& is,
                            std::uint64_t num_nodes = text::kAnyNodeCount);
WorkloadSpec parse_workload(const std::string& text,
                            std::uint64_t num_nodes = text::kAnyNodeCount);

/// Reads and parses `path` for a run of `num_nodes` nodes; errors are
/// prefixed with the path.
WorkloadSpec load_workload_file(const std::string& path,
                                std::uint64_t num_nodes);

}  // namespace esm::load
