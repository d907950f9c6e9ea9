#include "harness/scenario_text.hpp"

#include <sstream>

#include "common/line_grammar.hpp"

namespace esm::harness {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::ScenarioScript;
using fault::SelectorKind;
using text::KvArgs;
using text::Lexer;

/// Optional link=A-B scope.
void parse_link_scope(const Lexer& lex, const KvArgs& args,
                      FaultEvent& event) {
  const std::string* link = args.find("link");
  if (link == nullptr) return;
  const std::size_t dash = link->find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= link->size()) {
    lex.fail("link scope must be link=A-B, got '" + *link + "'");
  }
  event.link_a = lex.node(link->substr(0, dash));
  event.link_b = lex.node(link->substr(dash + 1));
}

/// `<command> <value_key>=V [<duration_key>=DUR]`, plus `[link=A-B]`
/// when `linkable`.
void parse_value_args(const Lexer& lex, const std::vector<std::string>& tokens,
                      const char* command, const char* value_key,
                      const char* duration_key, bool linkable,
                      FaultEvent& event) {
  const KvArgs args = lex.kv(tokens, 2);
  event.value = lex.number(args.require(value_key, command));
  if (linkable) {
    args.check_known(command, {value_key, duration_key, "link"});
    parse_link_scope(lex, args, event);
  } else {
    args.check_known(command, {value_key, duration_key});
  }
  if (const std::string* d = args.find(duration_key)) {
    event.duration = lex.time(*d);
  }
}

void parse_selector(const Lexer& lex, const std::vector<std::string>& tokens,
                    bool is_recover, FaultEvent& event) {
  const char* what = is_recover ? "recover" : "crash";
  if (tokens.size() < 3) {
    lex.fail(std::string(what) + " needs a selector");
  }
  const std::string& sel = tokens[2];
  if (sel == "nodes") {
    if (tokens.size() != 4) {
      lex.fail(std::string(what) + " nodes needs one node list");
    }
    event.selector = SelectorKind::ids;
    event.ids = lex.node_list(tokens[3]);
    return;
  }
  if (is_recover && sel == "all") {
    if (tokens.size() != 3) lex.fail("recover all takes no arguments");
    event.selector = SelectorKind::all_crashed;
    return;
  }
  SelectorKind kind;
  if (sel == "best") {
    kind = SelectorKind::best;
  } else if (sel == "worst") {
    kind = SelectorKind::worst;
  } else if (sel == "random") {
    kind = SelectorKind::random;
  } else {
    lex.fail(std::string(what) + ": unknown selector '" + sel + "'");
  }
  if (tokens.size() != 4) {
    lex.fail(std::string(what) + " " + sel + " needs a count");
  }
  event.selector = kind;
  event.count = lex.u32(tokens[3]);
  if (event.count == 0) lex.fail("count must be > 0");
}

}  // namespace

fault::ScenarioScript parse_scenario(std::istream& is,
                                     std::uint64_t num_nodes) {
  ScenarioScript script;
  Lexer lex("scenario", num_nodes);
  std::vector<std::string> tokens;
  while (lex.next_line(is, tokens)) {
    if (tokens.size() < 2) lex.fail("expected '<time> <command> ...'");

    FaultEvent event;
    event.at = lex.time(tokens[0]);
    const std::string& command = tokens[1];

    if (command == "phase") {
      event.kind = FaultKind::phase;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (i > 2) event.label += ' ';
        event.label += tokens[i];
      }
      if (event.label.empty()) lex.fail("phase needs a label");
      if (event.label.find(',') != std::string::npos) {
        // Caught here so the diagnostic names the scenario line instead of
        // a "bad field count" error deep in a later trace-CSV parse.
        lex.fail("phase label must not contain commas (it becomes a "
                 "trace CSV field): '" + event.label + "'");
      }
    } else if (command == "crash" || command == "recover") {
      event.kind =
          command == "crash" ? FaultKind::crash : FaultKind::recover;
      parse_selector(lex, tokens, command == "recover", event);
    } else if (command == "partition") {
      event.kind = FaultKind::partition;
      // Re-split the remainder of the line on '|' so each group is one
      // comma-separated list; groups may contain spaces around '|'.
      std::string rest;
      for (std::size_t i = 2; i < tokens.size(); ++i) rest += tokens[i];
      if (rest.empty()) lex.fail("partition needs at least one group");
      std::istringstream groups(rest);
      std::string group;
      while (std::getline(groups, group, '|')) {
        if (group.empty()) lex.fail("empty partition group");
        event.groups.push_back(lex.node_list(group));
      }
    } else if (command == "heal") {
      if (tokens.size() != 2) lex.fail("heal takes no arguments");
      event.kind = FaultKind::heal;
    } else if (command == "loss") {
      event.kind = FaultKind::loss_burst;
      parse_value_args(lex, tokens, "loss", "rate", "for", true, event);
    } else if (command == "latency") {
      event.kind = FaultKind::latency_spike;
      parse_value_args(lex, tokens, "latency", "factor", "for", true, event);
    } else if (command == "churn") {
      event.kind = FaultKind::churn;
      parse_value_args(lex, tokens, "churn", "rate", "for", false, event);
    } else if (command == "noise") {
      event.kind = FaultKind::noise_ramp;
      parse_value_args(lex, tokens, "noise", "to", "over", false, event);
    } else {
      lex.fail("unknown command '" + command + "'");
    }
    script.events.push_back(std::move(event));
  }
  script.sort();
  return script;
}

fault::ScenarioScript parse_scenario(const std::string& text,
                                     std::uint64_t num_nodes) {
  std::istringstream stream(text);
  return parse_scenario(stream, num_nodes);
}

fault::ScenarioScript load_scenario_file(const std::string& path,
                                         std::uint64_t num_nodes) {
  return text::load_file(path, "scenario", [&](std::istream& is) {
    return parse_scenario(is, num_nodes);
  });
}

}  // namespace esm::harness
