#include "lexical_rules.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>

namespace dshuf::analyze {

namespace {

/// Index of the first token on each 1-based line (tokens are line-sorted).
/// Lets the token-based rules iterate one line's tokens at a time, which
/// preserves the historical one-finding-per-line behaviour.
std::vector<std::pair<std::size_t, std::size_t>> line_token_spans(
    const std::vector<Token>& toks, std::size_t n_lines) {
  std::vector<std::pair<std::size_t, std::size_t>> spans(
      n_lines + 2, {toks.size(), toks.size()});
  for (std::size_t i = 0; i < toks.size();) {
    const int line = toks[i].line;
    std::size_t j = i;
    while (j < toks.size() && toks[j].line == line) ++j;
    if (static_cast<std::size_t>(line) < spans.size()) {
      spans[static_cast<std::size_t>(line)] = {i, j};
    }
    i = j;
  }
  return spans;
}

bool is_ident_tok(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

// --- rule: banned-random -------------------------------------------------

void check_banned_random(const SourceFile& f, std::vector<Finding>& out) {
  if (f.cls.rng_module) return;
  const auto spans = line_token_spans(f.toks, f.lines.size());
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const auto [b, e] = spans[i + 1];
    if (b == e) continue;
    auto flag = [&](const std::string& what) {
      out.push_back({f.cls.path, i + 1, "lint", "banned-random",
                     what + " — all randomness must flow through "
                           "dshuf::Rng (util/rng.hpp)",
                     {}});
    };
    bool hit = false;
    for (std::size_t t = b; t < e && !hit; ++t) {
      const Token& tok = f.toks[t];
      if (tok.kind != Token::Kind::kIdent) continue;
      if (tok.text == "random_device") {
        flag("std::random_device is a nondeterministic entropy source");
        hit = true;
      } else if (tok.text == "srand") {
        // Seeding call or call-ish use: an opening paren later on the line.
        for (std::size_t u = t + 1; u < e; ++u) {
          if (f.toks[u].kind == Token::Kind::kPunct && f.toks[u].text == "(") {
            flag("srand() seeds the global C PRNG");
            hit = true;
            break;
          }
        }
      } else if (tok.text == "rand" && t + 1 < e &&
                 f.toks[t + 1].kind == Token::Kind::kPunct &&
                 f.toks[t + 1].text == "(") {
        flag("rand() draws from unseeded global state");
        hit = true;
      } else if (tok.text == "time" && t + 3 < e &&
                 f.toks[t + 1].text == "(" && f.toks[t + 3].text == ")") {
        const Token& arg = f.toks[t + 2];
        if (is_ident_tok(arg, "NULL") || is_ident_tok(arg, "nullptr") ||
            (arg.kind == Token::Kind::kNumber && arg.text == "0")) {
          flag("time(" + arg.text + ") is a wall-clock seed");
          hit = true;
        }
      } else if (tok.text == "time_since_epoch" &&
                 lower(f.lines[i]).find("seed") != std::string::npos) {
        flag("seeding from time_since_epoch() is wall-clock dependent");
        hit = true;
      }
    }
  }
}

// --- rule: unordered-iteration -------------------------------------------

/// Names declared (in this file) with an unordered container type.
std::vector<std::string> unordered_decl_names(
    const std::vector<std::string>& lines) {
  std::vector<std::string> names;
  for (const std::string& l : lines) {
    for (const char* kw : {"unordered_map", "unordered_set"}) {
      std::size_t p = 0;
      while ((p = find_word(l, kw, p)) != std::string::npos) {
        std::size_t q = p + std::string(kw).size();
        if (q >= l.size() || l[q] != '<') {
          p = q;
          continue;
        }
        int depth = 0;
        while (q < l.size()) {
          if (l[q] == '<') ++depth;
          if (l[q] == '>') {
            --depth;
            if (depth == 0) break;
          }
          ++q;
        }
        if (q >= l.size()) break;  // template args span lines — give up
        ++q;
        while (q < l.size() && (l[q] == ' ' || l[q] == '&' || l[q] == '*')) {
          ++q;
        }
        std::size_t e = q;
        while (e < l.size() && is_ident_char(l[e])) ++e;
        if (e > q) names.push_back(l.substr(q, e - q));
        p = e;
      }
    }
  }
  return names;
}

void check_unordered_iteration(const SourceFile& f,
                               std::vector<Finding>& out) {
  if (!f.cls.determinism_critical) return;
  const auto names = unordered_decl_names(f.lines);
  const std::string marker = "lint:" "ordered-ok";
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const std::string& l = f.lines[i];
    bool iterates = false;
    std::string detail;
    // Range-for whose range expression names an unordered container (or
    // constructs one inline).
    const std::size_t fp = find_word(l, "for");
    if (fp != std::string::npos) {
      const std::size_t colon = l.find(" : ", fp);
      if (colon != std::string::npos) {
        const std::string range = l.substr(colon + 3);
        if (range.find("unordered_map") != std::string::npos ||
            range.find("unordered_set") != std::string::npos) {
          iterates = true;
          detail = "range-for over an unordered container";
        }
        for (const auto& n : names) {
          if (contains_word(range, n)) {
            iterates = true;
            detail = "range-for over unordered container '" + n + "'";
          }
        }
      }
    }
    // Explicit iterator walks.
    for (const auto& n : names) {
      for (const char* m : {".begin(", ".cbegin(", "->begin(", "->cbegin("}) {
        const std::size_t p = l.find(n + m);
        if (p != std::string::npos && (p == 0 || !is_ident_char(l[p - 1]))) {
          iterates = true;
          detail = "iterator walk over unordered container '" + n + "'";
        }
      }
    }
    if (!iterates) continue;
    if (annotated(f.raw_lines, i, marker)) {
      const std::size_t al = annotation_line(f.raw_lines, i, marker);
      if (annotation_justification(f.raw_lines[al], marker).size() < 3) {
        out.push_back({f.cls.path, al + 1, "lint", "ordered-ok-justification",
                       "lint:" "ordered-ok requires a justification "
                       "(why is iteration order irrelevant here?)",
                       {}});
      }
      continue;
    }
    out.push_back(
        {f.cls.path, i + 1, "lint", "unordered-iteration",
         detail + " in a determinism-critical namespace — iteration order "
                  "is hash-dependent; use an ordered container, sort "
                  "before iterating, or annotate `// lint:ordered-ok "
                  "<why>`",
         {}});
  }
}

// --- rule: raw-tag-literal -----------------------------------------------

/// Split the argument list starting at `open` (index of '(') into
/// top-level comma-separated pieces. Returns empty when unbalanced (e.g.
/// the call spans a scrubbed region) — callers skip those.
std::vector<std::string> call_args(const std::string& text,
                                   std::size_t open) {
  std::vector<std::string> args;
  int depth = 0;
  std::string cur;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') {
      ++depth;
      if (depth == 1) continue;  // the call's own '('
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        args.push_back(cur);
        return args;
      }
    } else if (c == ',' && depth == 1) {
      args.push_back(cur);
      cur.clear();
      continue;
    }
    cur += c;
  }
  return {};
}

void check_raw_tags(const SourceFile& f, std::vector<Finding>& out) {
  const std::string& text = f.scrubbed;
  const std::vector<std::string>& raw_lines = f.raw_lines;
  std::vector<std::size_t> line_starts;
  line_starts.push_back(0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts.push_back(i + 1);
  }

  const std::string file_marker = "lint:" "tag-ok-file";
  const std::string line_marker = "lint:" "tag-ok";
  std::size_t file_marker_line = std::string::npos;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (raw_lines[i].find(file_marker) != std::string::npos) {
      file_marker_line = i;
      break;
    }
  }
  if (file_marker_line != std::string::npos &&
      annotation_justification(raw_lines[file_marker_line], file_marker)
              .size() < 3) {
    out.push_back({f.cls.path, file_marker_line + 1, "lint",
                   "tag-ok-justification",
                   "lint:" "tag-ok-file requires a justification",
                   {}});
  }

  auto line_of = [&](std::size_t off) {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), off);
    return static_cast<std::size_t>(it - line_starts.begin());  // 1-based
  };

  auto is_space = [](char c) { return c == ' ' || c == '\n'; };
  for (const std::string fn : {"send", "recv", "poll"}) {
    std::size_t p = 0;
    while ((p = find_word(text, fn, p)) != std::string::npos) {
      // Only member calls (`c.send(` / `c->send(`) go through a
      // communicator; a bare `recv(n, 0)` is a local vector, a
      // declaration or an unrelated free function.
      std::size_t b = p;
      while (b > 0 && is_space(text[b - 1])) --b;
      const bool member = b > 0 && (text[b - 1] == '.' ||
                                    (text[b - 1] == '>' && b > 1 &&
                                     text[b - 2] == '-'));
      std::size_t q = p + fn.size();
      while (q < text.size() && is_space(text[q])) ++q;
      if (!member || q >= text.size() || text[q] != '(') {
        p = q;
        continue;
      }
      const auto args = call_args(text, q);
      p = q;
      // send(dest, tag, payload) / recv(source, tag) / poll(source, tag):
      // the tag is always argument #2.
      if (args.size() < 2) continue;
      const std::string tag_arg = lower(trim(args[1]));
      if (tag_arg.find("tag") != std::string::npos) continue;
      const std::size_t lineno = line_of(p);  // 1-based
      const std::size_t idx = lineno - 1;
      if (file_marker_line != std::string::npos) continue;
      if (annotated(raw_lines, idx, line_marker)) {
        const std::size_t al = annotation_line(raw_lines, idx, line_marker);
        if (annotation_justification(raw_lines[al], line_marker).size() < 3) {
          out.push_back({f.cls.path, al + 1, "lint", "tag-ok-justification",
                         "lint:" "tag-ok requires a justification",
                         {}});
        }
        continue;
      }
      out.push_back(
          {f.cls.path, lineno, "lint", "raw-tag-literal",
           fn + " tag '" + trim(args[1]) +
               "' does not reference a tag helper — derive it from the "
               "per-epoch helpers in shuffle/exchange_tags.hpp (or "
               "annotate `// lint:tag-ok <why>`)",
           {}});
    }
  }
}

// --- rule: raw-stdout ------------------------------------------------------

void check_raw_stdout(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.cls.src_tree || f.cls.log_module) return;
  const std::string marker = "lint:" "stdout-ok";
  const auto spans = line_token_spans(f.toks, f.lines.size());
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const auto [b, e] = spans[i + 1];
    std::string stream;
    for (std::size_t t = b; t < e; ++t) {
      if (is_ident_tok(f.toks[t], "cout")) stream = "cout";
    }
    for (std::size_t t = b; t < e; ++t) {
      if (is_ident_tok(f.toks[t], "cerr")) stream = "cerr";
    }
    if (stream.empty()) continue;
    if (annotated(f.raw_lines, i, marker)) {
      const std::size_t al = annotation_line(f.raw_lines, i, marker);
      if (annotation_justification(f.raw_lines[al], marker).size() < 3) {
        out.push_back({f.cls.path, al + 1, "lint", "stdout-ok-justification",
                       "lint:" "stdout-ok requires a justification "
                       "(why can this site not log through util/log.hpp?)",
                       {}});
      }
      continue;
    }
    out.push_back(
        {f.cls.path, i + 1, "lint", "raw-stdout",
         "std::" + stream + " write in src/ — route output through "
         "util/log.hpp (LOG_* lines carry the [rank epoch] context) or "
         "annotate `// lint:stdout-ok <why>`",
         {}});
  }
}

// --- rule: raw-mmap --------------------------------------------------------

/// Direct mmap-family syscalls outside src/io/ bypass the segment store's
/// accounting (resident/quarantine gauges), its epoch-based reclamation and
/// the capacity bound — a stray munmap would invalidate spans the store
/// still hands out. src/io/ is the one module allowed to own mappings;
/// everyone else goes through io::MmapSampleStore. A call-site is an
/// identifier token immediately followed by `(` (so a member named `mmap_`
/// or the word in a comment never matches); `::mmap` matches because the
/// qualifier is a separate token. Suppress a deliberate site with
/// `// lint:mmap-ok <why>`.
void check_raw_mmap(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.cls.src_tree || f.cls.io_module) return;
  const std::string marker = "lint:" "mmap-ok";
  const char* const calls[] = {"mmap", "munmap", "mremap", "msync"};
  const auto spans = line_token_spans(f.toks, f.lines.size());
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    const auto [b, e] = spans[i + 1];
    std::string which;
    for (std::size_t t = b; t + 1 < e && which.empty(); ++t) {
      if (f.toks[t].kind != Token::Kind::kIdent) continue;
      if (f.toks[t + 1].kind != Token::Kind::kPunct ||
          f.toks[t + 1].text != "(") {
        continue;
      }
      for (const char* name : calls) {
        if (f.toks[t].text == name) which = name;
      }
    }
    if (which.empty()) continue;
    if (annotated(f.raw_lines, i, marker)) {
      const std::size_t al = annotation_line(f.raw_lines, i, marker);
      if (annotation_justification(f.raw_lines[al], marker).size() < 3) {
        out.push_back({f.cls.path, al + 1, "lint", "mmap-ok-justification",
                       "lint:" "mmap-ok requires a justification "
                       "(why can this mapping not live in src/io/?)",
                       {}});
      }
      continue;
    }
    out.push_back(
        {f.cls.path, i + 1, "lint", "raw-mmap",
         which + "() outside src/io/ — memory-mapped payloads must go "
         "through io::MmapSampleStore so reclamation and the capacity "
         "bound stay correct, or annotate `// lint:mmap-ok <why>`",
         {}});
  }
}

// --- rule: metric-name ---------------------------------------------------

/// Registry names must be dotted lowercase ([a-z0-9_.]+): the dashboards,
/// the timeseries export and dshuf_trace's counter tables all key on the
/// literal, and one "Exchange.Bytes" next to "exchange.bytes" splits a
/// metric in two forever. The scrubber blanks literal bodies, so the name
/// is re-read from the raw line of the macro's string argument.
void check_metric_names(const SourceFile& f, std::vector<Finding>& out) {
  const auto is_metric_macro = [](const Token& t) {
    return t.kind == Token::Kind::kIdent &&
           (t.text == "DSHUF_COUNTER" || t.text == "DSHUF_GAUGE" ||
            t.text == "DSHUF_HISTOGRAM_US");
  };
  const auto valid_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '.';
  };
  // Per-line read cursor so several macros on one raw line each consume
  // their own literal (tokens arrive in source order).
  std::map<int, std::size_t> cursor;
  for (std::size_t t = 0; t + 2 < f.toks.size(); ++t) {
    if (!is_metric_macro(f.toks[t])) continue;
    if (!(f.toks[t + 1].kind == Token::Kind::kPunct &&
          f.toks[t + 1].text == "(")) {
      continue;
    }
    // A computed name (identifier argument, e.g. the macro definition
    // itself) is outside this rule's reach.
    if (f.toks[t + 2].kind != Token::Kind::kString) continue;
    const int line = f.toks[t + 2].line;
    if (line < 1 ||
        static_cast<std::size_t>(line) > f.raw_lines.size()) {
      continue;
    }
    const std::string& raw = f.raw_lines[static_cast<std::size_t>(line) - 1];
    std::size_t& at = cursor[line];
    const std::size_t open = raw.find('"', at);
    if (open == std::string::npos) continue;
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    at = close + 1;
    const std::string name = raw.substr(open + 1, close - open - 1);
    const bool ok =
        !name.empty() && std::all_of(name.begin(), name.end(), valid_char);
    if (ok) continue;
    out.push_back({f.cls.path, static_cast<std::size_t>(line), "lint",
                   "metric-name",
                   f.toks[t].text + " name \"" + name +
                       "\" is not dotted lowercase ([a-z0-9_.]+) — mixed "
                       "case or stray characters split the metric across "
                       "dashboards and exports",
                   {}});
  }
}

// --- rule: include hygiene -----------------------------------------------

void check_include_hygiene(const SourceFile& f, std::vector<Finding>& out) {
  if (f.cls.is_header) {
    bool pragma_first = false;
    for (const auto& l : f.lines) {
      const std::string t = trim(l);
      if (t.empty()) continue;
      pragma_first = t.rfind("#pragma once", 0) == 0;
      break;
    }
    if (!pragma_first) {
      out.push_back({f.cls.path, 1, "lint", "pragma-once",
                     "header must open with #pragma once (before any other "
                     "content)",
                     {}});
    }
  }
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    // Include paths live inside the quotes the scrubber blanks — inspect
    // the raw line for preprocessor directives.
    const std::string rt =
        i < f.raw_lines.size() ? trim(f.raw_lines[i]) : std::string{};
    if (rt.rfind("#include", 0) == 0 && rt.find('"') != std::string::npos &&
        rt.find("../") != std::string::npos) {
      out.push_back({f.cls.path, i + 1, "lint", "relative-include",
                     "quote-includes must be rooted at src/ (no ../)",
                     {}});
    }
    const std::string t = trim(f.lines[i]);
    if (contains_word(t, "using") &&
        t.find("namespace std") != std::string::npos) {
      out.push_back({f.cls.path, i + 1, "lint", "using-namespace-std",
                     "`using namespace std` pollutes every declaration "
                     "after it",
                     {}});
    }
  }
}

}  // namespace

std::vector<Finding> scan_lexical(const SourceFile& f) {
  std::vector<Finding> out;
  check_banned_random(f, out);
  check_unordered_iteration(f, out);
  check_raw_tags(f, out);
  check_raw_stdout(f, out);
  check_raw_mmap(f, out);
  check_metric_names(f, out);
  check_include_hygiene(f, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

}  // namespace dshuf::analyze
