#include "common/line_grammar.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <sstream>

namespace esm::text {

std::optional<SimTime> to_sim_time(double value, SimTime unit) {
  const double t = value * static_cast<double>(unit);
  // 2^63 is the first double past the SimTime range; the negated
  // comparisons also reject NaN.
  if (!(value >= 0.0) || !(t < 9223372036854775808.0)) return std::nullopt;
  return static_cast<SimTime>(t);
}

std::optional<double> finite_number(const std::string& token) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> bounded_integer(const std::string& token,
                                             std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

namespace {

bool listed(const std::string& word,
            std::initializer_list<const char*> vocabulary) {
  return std::any_of(vocabulary.begin(), vocabulary.end(),
                     [&](const char* w) { return word == w; });
}

}  // namespace

bool Lexer::next_line(std::istream& is, std::vector<std::string>& tokens) {
  std::string line;
  while (next_raw_line(is, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    tokens.clear();
    std::istringstream stream(line);
    std::string token;
    while (stream >> token) tokens.push_back(token);
    if (!tokens.empty()) return true;
  }
  return false;
}

bool Lexer::next_raw_line(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  ++line_;
  return true;
}

void Lexer::fail(const std::string& what) const {
  throw std::runtime_error(std::string(grammar_) + " line " +
                           std::to_string(line_) + ": " + what);
}

SimTime Lexer::time(const std::string& token) const {
  const std::size_t unit_pos =
      std::min(token.find_first_not_of("0123456789."), token.size());
  const std::optional<double> value = finite_number(token.substr(0, unit_pos));
  if (!value) fail("bad time '" + token + "'");
  const std::string unit = token.substr(unit_pos);
  SimTime scale = 0;
  if (unit == "us") {
    scale = kMicrosecond;
  } else if (unit == "ms") {
    scale = kMillisecond;
  } else if (unit == "s") {
    scale = kSecond;
  } else {
    fail("time '" + token + "' needs a unit (us, ms or s)");
  }
  const std::optional<SimTime> t = to_sim_time(*value, scale);
  if (!t) fail("time '" + token + "' is out of range");
  return *t;
}

double Lexer::number(const std::string& token) const {
  const std::optional<double> v = finite_number(token);
  if (!v) fail("bad number '" + token + "' (expected a finite number)");
  return *v;
}

std::uint64_t Lexer::integer(const std::string& token,
                             std::uint64_t max) const {
  const std::optional<std::uint64_t> v = bounded_integer(token, max);
  if (!v) fail("bad integer '" + token + "'");
  return *v;
}

NodeId Lexer::node(const std::string& token) const {
  const NodeId id = u32(token);
  if (id >= num_nodes_) {
    fail("node " + token + " out of range (" + std::to_string(num_nodes_) +
         " nodes)");
  }
  return id;
}

std::vector<NodeId> Lexer::node_list(const std::string& text) const {
  std::vector<NodeId> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) fail("empty entry in node list '" + text + "'");
    const std::size_t dots = item.find("..");
    if (dots == std::string::npos) {
      out.push_back(node(item));
    } else {
      const NodeId lo = node(item.substr(0, dots));
      const NodeId hi = node(item.substr(dots + 2));
      if (lo > hi) fail("backwards range '" + item + "'");
      // 64-bit counter: `hi` may be the largest NodeId.
      for (std::uint64_t id = lo; id <= hi; ++id) {
        out.push_back(static_cast<NodeId>(id));
      }
    }
  }
  if (out.empty()) fail("empty node list");
  return out;
}

KvArgs Lexer::kv(const std::vector<std::string>& tokens, std::size_t first,
                 std::initializer_list<const char*> bare) const {
  KvArgs args;
  args.lexer = this;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos && listed(tokens[i], bare)) {
      args.flags.push_back(tokens[i]);
    } else if (eq == std::string::npos || eq == 0) {
      fail("expected key=value, got '" + tokens[i] + "'");
    } else {
      args.pairs.emplace_back(tokens[i].substr(0, eq),
                              tokens[i].substr(eq + 1));
    }
  }
  return args;
}

const std::string* KvArgs::find(const std::string& key) const {
  for (const auto& [k, v] : pairs) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::string& KvArgs::require(const std::string& key,
                                   const char* command) const {
  const std::string* v = find(key);
  if (v == nullptr) {
    lexer->fail(std::string(command) + " needs " + key + "=...");
  }
  return *v;
}

void KvArgs::check_known(const char* command,
                         std::initializer_list<const char*> keys) const {
  for (const auto& [k, v] : pairs) {
    if (!listed(k, keys)) {
      lexer->fail(std::string(command) + ": unknown key '" + k + "='");
    }
  }
}

}  // namespace esm::text
