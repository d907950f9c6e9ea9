// The lexer shared by the line-oriented text inputs (`.scn`, `.wl`,
// `.exp`, and the integer fields of the trace CSV): one copy of each
// lexical rule and of the "<grammar> line N: ..." diagnostic. The rules
// are documented in docs/PROTOCOL.md, "Text inputs".
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <istream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace esm::text {

/// `value * unit` as a SimTime, or nullopt when `value` is negative or
/// not finite, or the product does not fit a SimTime.
std::optional<SimTime> to_sim_time(double value, SimTime unit);

/// The whole token as a finite number, else nullopt (`inf` and `nan` are
/// rejected). The number rule of every text input and of the CLI.
std::optional<double> finite_number(const std::string& token);

/// The whole token as a decimal integer in [0, max], else nullopt (no
/// sign, no exponent). The integer rule of every text input and the CLI.
std::optional<std::uint64_t> bounded_integer(const std::string& token,
                                             std::uint64_t max);

/// Node ids are below this when a grammar is not told the node count.
inline constexpr std::uint64_t kAnyNodeCount = std::uint64_t{1} << 32;

struct KvArgs;

/// Reads the lines of one grammar and parses their tokens. Every failure
/// throws std::runtime_error("<grammar> line N: <what>"). Node ids must
/// be below `num_nodes`.
class Lexer {
 public:
  explicit Lexer(const char* grammar, std::uint64_t num_nodes = kAnyNodeCount)
      : grammar_(grammar), num_nodes_(num_nodes) {}

  /// Reads the next line that holds a token into `tokens`: `#` starts a
  /// comment, whitespace separates tokens, blank lines are skipped.
  /// Returns false at the end of input.
  bool next_line(std::istream& is, std::vector<std::string>& tokens);
  /// Reads the next line verbatim (for formats with their own field
  /// syntax, such as CSV). Returns false at the end of input.
  bool next_raw_line(std::istream& is, std::string& line);
  /// 1-based number of the line read last.
  std::size_t line() const { return line_; }

  [[noreturn]] void fail(const std::string& what) const;

  /// "30s" / "500ms" / "250us" / "2.5s": a non-negative number with a
  /// mandatory unit, which keeps scripts self-documenting.
  SimTime time(const std::string& token) const;
  /// A finite number; `inf` and `nan` are rejected.
  double number(const std::string& token) const;
  /// A decimal integer in [0, max].
  std::uint64_t integer(const std::string& token, std::uint64_t max) const;
  std::uint32_t u32(const std::string& token) const {
    return static_cast<std::uint32_t>(integer(token, 0xffffffffU));
  }
  /// A node id below the node count.
  NodeId node(const std::string& token) const;
  /// "0..4,9,12..13" -> {0,1,2,3,4,9,12,13}; never empty. Both ends of a
  /// range are checked against the node count before it is expanded.
  std::vector<NodeId> node_list(const std::string& text) const;
  /// tokens[first..] as key=value pairs. A bare token is accepted as a
  /// flag only when `bare` lists it.
  KvArgs kv(const std::vector<std::string>& tokens, std::size_t first,
            std::initializer_list<const char*> bare = {}) const;

 private:
  const char* grammar_;
  std::uint64_t num_nodes_;
  std::size_t line_ = 0;
};

/// key=value arguments and bare flags after a command. Points at the
/// Lexer that parsed it (for diagnostics), so it must not outlive it.
struct KvArgs {
  const Lexer* lexer = nullptr;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::string> flags;

  const std::string* find(const std::string& key) const;
  /// The value of `key`; fails "<command> needs <key>=..." when absent.
  const std::string& require(const std::string& key,
                             const char* command) const;
  bool has_flag(const std::string& flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }
  /// Rejects keys outside the command's vocabulary, so a typo fails at
  /// parse time instead of silently taking a default.
  void check_known(const char* command,
                   std::initializer_list<const char*> keys) const;
};

/// Opens `path` and returns `parse(stream)`. Errors name the path:
/// "cannot open <what> file: <path>", or "<path>: <parse error>".
template <class Parse>
auto load_file(const std::string& path, const char* what, Parse parse)
    -> decltype(parse(std::declval<std::istream&>())) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error(std::string("cannot open ") + what +
                             " file: " + path);
  }
  try {
    return parse(file);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace esm::text
