#include "load/workload_text.hpp"

#include <sstream>
#include <stdexcept>

#include "common/line_grammar.hpp"

namespace esm::load {
namespace {

std::uint32_t topic_index(const text::Lexer& lex, const WorkloadSpec& spec,
                          const std::string& name) {
  for (std::size_t i = 0; i < spec.topics.size(); ++i) {
    if (spec.topics[i].name == name) return static_cast<std::uint32_t>(i);
  }
  lex.fail("unknown topic '" + name + "' (declare it before use)");
}

}  // namespace

WorkloadSpec parse_workload(std::istream& is, std::uint64_t num_nodes) {
  WorkloadSpec spec;
  text::Lexer lex("workload", num_nodes);
  std::vector<std::string> tokens;
  while (lex.next_line(is, tokens)) {
    const std::string& command = tokens[0];

    if (command == "duration") {
      if (tokens.size() != 2) lex.fail("duration takes one time");
      spec.duration = lex.time(tokens[1]);
      if (spec.duration <= 0) lex.fail("duration must be > 0");
    } else if (command == "limit") {
      if (tokens.size() != 2) lex.fail("limit takes one count");
      spec.max_messages = lex.u32(tokens[1]);
      if (spec.max_messages == 0) lex.fail("limit must be > 0");
    } else if (command == "topic") {
      if (tokens.size() < 3) {
        lex.fail("topic needs a name and nodes=/fraction=");
      }
      TopicSpec topic;
      topic.name = tokens[1];
      if (topic.name.find('=') != std::string::npos) {
        lex.fail("topic needs a name before its arguments");
      }
      for (const TopicSpec& existing : spec.topics) {
        if (existing.name == topic.name) {
          lex.fail("duplicate topic '" + topic.name + "'");
        }
      }
      const text::KvArgs args = lex.kv(tokens, 2);
      args.check_known("topic", {"nodes", "fraction"});
      const std::string* nodes = args.find("nodes");
      const std::string* fraction = args.find("fraction");
      if ((nodes != nullptr) == (fraction != nullptr)) {
        lex.fail("topic needs exactly one of nodes=... or fraction=...");
      }
      if (nodes != nullptr) {
        topic.members = lex.node_list(*nodes);
      } else {
        topic.fraction = lex.number(*fraction);
        if (!(topic.fraction > 0.0 && topic.fraction <= 1.0)) {
          lex.fail("fraction must be in (0, 1]");
        }
      }
      spec.topics.push_back(std::move(topic));
    } else if (command == "publisher") {
      if (tokens.size() < 2) {
        lex.fail("publisher needs an arrival kind (poisson/fixed/burst)");
      }
      PublisherSpec pub;
      const std::string& kind = tokens[1];
      if (kind == "poisson") {
        pub.arrival = ArrivalKind::poisson;
      } else if (kind == "fixed") {
        pub.arrival = ArrivalKind::fixed_rate;
      } else if (kind == "burst") {
        pub.arrival = ArrivalKind::burst;
      } else {
        lex.fail("unknown arrival kind '" + kind +
                 "' (poisson, fixed or burst)");
      }
      const text::KvArgs args = lex.kv(tokens, 2);
      pub.rate = lex.number(args.require("rate", "publisher"));
      args.check_known("publisher", {"rate", "topic", "node", "payload",
                                     "start", "stop", "on", "off"});
      if (!(pub.rate > 0.0)) lex.fail("rate must be > 0");
      if (const std::string* v = args.find("topic")) {
        pub.topic = topic_index(lex, spec, *v);
      }
      if (const std::string* v = args.find("node")) {
        pub.node = lex.node(*v);
      }
      if (const std::string* v = args.find("payload")) {
        pub.payload_bytes = lex.u32(*v);
      }
      if (const std::string* v = args.find("start")) {
        pub.start = lex.time(*v);
      }
      if (const std::string* v = args.find("stop")) {
        pub.stop = lex.time(*v);
      }
      if (const std::string* v = args.find("on")) {
        if (pub.arrival != ArrivalKind::burst) {
          lex.fail("on= only applies to burst publishers");
        }
        pub.burst_on = lex.time(*v);
      }
      if (const std::string* v = args.find("off")) {
        if (pub.arrival != ArrivalKind::burst) {
          lex.fail("off= only applies to burst publishers");
        }
        pub.burst_off = lex.time(*v);
      }
      spec.publishers.push_back(pub);
    } else {
      lex.fail("unknown directive '" + command + "'");
    }
  }
  if (spec.publishers.empty()) {
    throw std::runtime_error("workload: no publishers declared");
  }
  return spec;
}

WorkloadSpec parse_workload(const std::string& text, std::uint64_t num_nodes) {
  std::istringstream stream(text);
  return parse_workload(stream, num_nodes);
}

WorkloadSpec load_workload_file(const std::string& path,
                                std::uint64_t num_nodes) {
  return text::load_file(path, "workload", [&](std::istream& is) {
    return parse_workload(is, num_nodes);
  });
}

}  // namespace esm::load
