#include "expect/expect_text.hpp"

#include <sstream>
#include <utility>

#include "common/line_grammar.hpp"

namespace esm::expect {
namespace {

using text::KvArgs;
using text::Lexer;

double parse_fraction(const Lexer& lex, const std::string& token,
                      const char* key) {
  const double v = lex.number(token);
  if (v < 0.0 || v > 1.0) {
    lex.fail(std::string(key) + " must be a fraction in [0, 1], got '" +
             token + "'");
  }
  return v;
}

std::string parse_phase(const KvArgs& args) {
  const std::string* v = args.find("phase");
  if (v == nullptr) return {};
  if (v->empty()) args.lexer->fail("phase label must not be empty");
  if (v->find(',') != std::string::npos) {
    args.lexer->fail("phase label must not contain commas: '" + *v + "'");
  }
  return *v;
}

Cmp parse_cmp(const Lexer& lex, const std::string& token) {
  if (token == "<=") return Cmp::le;
  if (token == ">=") return Cmp::ge;
  if (token == "<") return Cmp::lt;
  if (token == ">") return Cmp::gt;
  if (token == "==") return Cmp::eq;
  if (token == "!=") return Cmp::ne;
  lex.fail("metric: unknown comparison '" + token +
           "' (expected <=, >=, <, >, == or !=)");
}

}  // namespace

ExpectationSet parse_expectations(std::istream& is) {
  ExpectationSet set;
  Lexer lex("expectation");
  std::vector<std::string> tokens;
  while (lex.next_line(is, tokens)) {
    Expectation e;
    e.line = lex.line();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) e.text += ' ';
      e.text += tokens[i];
    }
    const std::string& predicate = tokens[0];

    if (predicate == "deliver") {
      const KvArgs args = lex.kv(tokens, 1);
      args.check_known("deliver", {"phase", "min", "within"});
      e.kind = Kind::deliver;
      e.phase = parse_phase(args);
      e.min_fraction =
          parse_fraction(lex, args.require("min", "deliver"), "min");
      if (const std::string* w = args.find("within")) {
        e.within = lex.time(*w);
        if (e.within <= 0) lex.fail("within must be > 0");
      }
      set.items.push_back(std::move(e));
    } else if (predicate == "latency") {
      const KvArgs args = lex.kv(tokens, 1);
      args.check_known("latency", {"phase", "p", "max"});
      e.kind = Kind::latency;
      e.phase = parse_phase(args);
      if (const std::string* p = args.find("p")) {
        if (*p == "mean") {
          e.use_mean = true;
        } else {
          e.percentile = lex.number(*p);
          if (e.percentile <= 0.0 || e.percentile > 100.0) {
            lex.fail("percentile must be in (0, 100] or 'mean', got '" + *p +
                     "'");
          }
        }
      }
      e.max_ms = to_ms(lex.time(args.require("max", "latency")));
      set.items.push_back(std::move(e));
    } else if (predicate == "recovery") {
      const KvArgs args = lex.kv(tokens, 1);
      args.check_known("recovery", {"max_stalled", "max_gave_up",
                                    "max_episodes", "max_iwants", "max_ms"});
      if (args.pairs.empty()) {
        lex.fail("recovery needs at least one bound (max_stalled=, "
                 "max_gave_up=, max_episodes=, max_iwants= or max_ms=)");
      }
      // Each bound becomes its own expectation so every bound gets its own
      // pass/fail row in the report.
      for (const auto& [k, v] : args.pairs) {
        Expectation r = e;
        r.kind = Kind::recovery;
        r.text = "recovery " + k + "=" + v;
        if (k == "max_ms") {
          r.recovery_stat = RecoveryStat::max_ms;
          r.recovery_bound = to_ms(lex.time(v));
        } else {
          r.recovery_stat = k == "max_stalled"    ? RecoveryStat::stalled
                            : k == "max_gave_up"  ? RecoveryStat::gave_up
                            : k == "max_episodes" ? RecoveryStat::episodes
                                                  : RecoveryStat::max_iwants;
          r.recovery_bound = static_cast<double>(lex.integer(v, UINT64_MAX));
        }
        set.items.push_back(std::move(r));
      }
    } else if (predicate == "structure") {
      const KvArgs args = lex.kv(tokens, 1);
      args.check_known("structure", {"phase", "min_share", "top", "rank"});
      e.kind = Kind::structure;
      e.phase = parse_phase(args);
      e.min_share = parse_fraction(lex, args.require("min_share", "structure"),
                                   "min_share");
      if (const std::string* t = args.find("top")) {
        e.top_fraction = parse_fraction(lex, *t, "top");
        if (e.top_fraction <= 0.0) lex.fail("top must be > 0");
      }
      if (const std::string* r = args.find("rank")) {
        if (*r == "self") {
          e.rank = RankSource::self;
        } else if (*r == "oracle") {
          e.rank = RankSource::oracle;
        } else {
          lex.fail("structure: rank must be 'self' or 'oracle', got '" + *r +
                   "'");
        }
      }
      set.items.push_back(std::move(e));
    } else if (predicate == "jaccard") {
      const KvArgs args = lex.kv(tokens, 1);
      args.check_known("jaccard", {"phase", "min"});
      e.kind = Kind::jaccard;
      e.phase = parse_phase(args);
      e.min_jaccard =
          parse_fraction(lex, args.require("min", "jaccard"), "min");
      set.items.push_back(std::move(e));
    } else if (predicate == "tree") {
      const KvArgs args = lex.kv(tokens, 1, {"complete", "unique"});
      args.check_known("tree", {"phase", "relay_within", "max_depth"});
      e.kind = Kind::tree;
      e.phase = parse_phase(args);
      e.check_complete = args.has_flag("complete");
      e.check_unique = args.has_flag("unique");
      if (const std::string* r = args.find("relay_within")) {
        // `1r` / `2.5r` = gossip rounds (resolved against the run's
        // retransmission period at evaluation time); otherwise a time.
        if (!r->empty() && r->back() == 'r') {
          e.relay_within_rounds = lex.number(r->substr(0, r->size() - 1));
          if (e.relay_within_rounds <= 0.0) {
            lex.fail("relay_within rounds must be > 0");
          }
        } else {
          e.relay_within = lex.time(*r);
          if (e.relay_within <= 0) lex.fail("relay_within must be > 0");
        }
      }
      if (const std::string* d = args.find("max_depth")) {
        e.max_depth = lex.integer(*d, UINT64_MAX);
        if (e.max_depth == 0) lex.fail("max_depth must be > 0");
      }
      if (!e.check_complete && !e.check_unique && e.relay_within == 0 &&
          e.relay_within_rounds == 0.0 && e.max_depth == 0) {
        lex.fail("tree needs at least one check (complete, unique, "
                 "relay_within= or max_depth=)");
      }
      set.items.push_back(std::move(e));
    } else if (predicate == "metric") {
      if (tokens.size() != 4) {
        lex.fail("metric needs 'metric NAME CMP VALUE'");
      }
      e.kind = Kind::metric;
      e.metric_name = tokens[1];
      e.cmp = parse_cmp(lex, tokens[2]);
      e.metric_value = lex.number(tokens[3]);
      set.items.push_back(std::move(e));
    } else {
      lex.fail("unknown predicate '" + predicate + "'");
    }
  }
  return set;
}

ExpectationSet parse_expectations(const std::string& text) {
  std::istringstream stream(text);
  return parse_expectations(stream);
}

ExpectationSet load_expectation_file(const std::string& path) {
  ExpectationSet set = text::load_file(
      path, "expectation",
      [](std::istream& is) { return parse_expectations(is); });
  for (Expectation& e : set.items) e.file = path;
  return set;
}

}  // namespace esm::expect
