#include "fault/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace esm::fault {
namespace {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::crash: return "crash";
    case FaultKind::recover: return "recover";
    case FaultKind::partition: return "partition";
    case FaultKind::heal: return "heal";
    case FaultKind::loss_burst: return "loss_burst";
    case FaultKind::latency_spike: return "latency_spike";
    case FaultKind::churn: return "churn";
    case FaultKind::noise_ramp: return "noise_ramp";
    case FaultKind::phase: return "phase";
  }
  return "?";
}

void validate_selector(const FaultEvent& e, std::uint32_t num_nodes) {
  switch (e.selector) {
    case SelectorKind::ids:
      ESM_CHECK(!e.ids.empty(), "crash/recover with empty node list");
      for (const NodeId id : e.ids) {
        ESM_CHECK(id < num_nodes, "scenario references node id out of range");
      }
      break;
    case SelectorKind::best:
    case SelectorKind::worst:
    case SelectorKind::random:
      ESM_CHECK(e.count > 0, "crash/recover selector needs count > 0");
      ESM_CHECK(e.count < num_nodes,
                "cannot select every node (count >= num_nodes)");
      break;
    case SelectorKind::all_crashed:
      ESM_CHECK(e.kind == FaultKind::recover,
                "selector 'all_crashed' is recover-only");
      break;
  }
}

}  // namespace

void ScenarioScript::sort() {
  std::stable_sort(
      events.begin(), events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
}

bool ScenarioScript::has_noise_events() const {
  return std::any_of(events.begin(), events.end(), [](const FaultEvent& e) {
    return e.kind == FaultKind::noise_ramp;
  });
}

void ScenarioScript::validate(std::uint32_t num_nodes) const {
  for (const FaultEvent& e : events) {
    ESM_CHECK(e.at >= 0, "scenario event time must be >= 0");
    switch (e.kind) {
      case FaultKind::crash:
        ESM_CHECK(e.selector != SelectorKind::all_crashed,
                  "selector 'all_crashed' is recover-only");
        validate_selector(e, num_nodes);
        break;
      case FaultKind::recover:
        validate_selector(e, num_nodes);
        break;
      case FaultKind::partition: {
        ESM_CHECK(!e.groups.empty(), "partition with no groups");
        std::vector<bool> seen(num_nodes, false);
        for (const auto& group : e.groups) {
          ESM_CHECK(!group.empty(), "partition with an empty group");
          for (const NodeId id : group) {
            ESM_CHECK(id < num_nodes,
                      "scenario references node id out of range");
            ESM_CHECK(!seen[id], "node listed in two partition groups");
            seen[id] = true;
          }
        }
        break;
      }
      case FaultKind::heal:
        break;
      case FaultKind::loss_burst:
        ESM_CHECK(e.value >= 0.0 && e.value < 1.0,
                  "loss_burst rate must be in [0, 1)");
        ESM_CHECK((e.link_a == kInvalidNode) == (e.link_b == kInvalidNode),
                  "link scope needs both endpoints");
        if (e.link_a != kInvalidNode) {
          ESM_CHECK(e.link_a < num_nodes && e.link_b < num_nodes,
                    "scenario references node id out of range");
          ESM_CHECK(e.link_a != e.link_b, "link endpoints must differ");
        }
        ESM_CHECK(e.duration >= 0, "burst duration must be >= 0");
        break;
      case FaultKind::latency_spike:
        ESM_CHECK(e.value > 0.0 && std::isfinite(e.value),
                  "latency_spike factor must be > 0 and finite");
        ESM_CHECK((e.link_a == kInvalidNode) == (e.link_b == kInvalidNode),
                  "link scope needs both endpoints");
        if (e.link_a != kInvalidNode) {
          ESM_CHECK(e.link_a < num_nodes && e.link_b < num_nodes,
                    "scenario references node id out of range");
          ESM_CHECK(e.link_a != e.link_b, "link endpoints must differ");
        }
        ESM_CHECK(e.duration >= 0, "burst duration must be >= 0");
        break;
      case FaultKind::churn:
        ESM_CHECK(e.value >= 0.0, "churn rate must be >= 0");
        ESM_CHECK(e.duration >= 0, "churn duration must be >= 0");
        break;
      case FaultKind::noise_ramp:
        ESM_CHECK(e.value >= 0.0 && e.value <= 1.0,
                  "noise target must be in [0, 1]");
        ESM_CHECK(e.duration >= 0, "ramp duration must be >= 0");
        break;
      case FaultKind::phase:
        ESM_CHECK(!e.label.empty(), "phase marker needs a label");
        ESM_CHECK(e.label.find(',') == std::string::npos,
                  "phase label must not contain commas (CSV field)");
        break;
    }
  }
}

std::string describe(const FaultEvent& e) {
  std::string out = kind_name(e.kind);
  switch (e.kind) {
    case FaultKind::crash:
    case FaultKind::recover:
      switch (e.selector) {
        case SelectorKind::ids:
          out += " nodes";
          for (const NodeId id : e.ids) out += " " + std::to_string(id);
          break;
        case SelectorKind::best:
          out += " best " + std::to_string(e.count);
          break;
        case SelectorKind::worst:
          out += " worst " + std::to_string(e.count);
          break;
        case SelectorKind::random:
          out += " random " + std::to_string(e.count);
          break;
        case SelectorKind::all_crashed:
          out += " all";
          break;
      }
      break;
    case FaultKind::partition:
      out += " into " + std::to_string(e.groups.size() + 1) + " groups";
      break;
    case FaultKind::heal:
      break;
    case FaultKind::loss_burst:
    case FaultKind::latency_spike:
      out += " " + std::to_string(e.value);
      if (e.link_a != kInvalidNode) {
        out += " on link " + std::to_string(e.link_a) + "-" +
               std::to_string(e.link_b);
      }
      break;
    case FaultKind::churn:
      out += " rate " + std::to_string(e.value);
      break;
    case FaultKind::noise_ramp:
      out += " to " + std::to_string(e.value);
      break;
    case FaultKind::phase:
      out += " \"" + e.label + "\"";
      break;
  }
  return out;
}

}  // namespace esm::fault
