#include "index.hpp"

#include <algorithm>
#include <cstdlib>

namespace dshuf::analyze {

namespace {

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",     "for",      "while",  "switch",   "catch",  "return",
      "new",    "delete",   "sizeof", "alignof",  "typeid", "decltype",
      "throw",  "do",       "else",   "case",     "goto",   "co_await",
      "co_return", "co_yield", "static_assert", "assert",  "defined",
      "alignas", "noexcept", "try"};
  return kw;
}

bool is_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

bool is_punct(const std::vector<Token>& t, std::size_t i, const char* p) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == p;
}

/// i at '<' — index after the matching '>', or i + 1 when the scan runs
/// into a statement boundary (the '<' was a comparison, not a template).
std::size_t skip_angle(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "<") ++depth;
    if (t[j].text == ">") {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (t[j].text == ";" || t[j].text == "{" || t[j].text == "}") break;
  }
  return i + 1;
}

/// i at '(' / '[' / '{' — index after the matching close (t.size() when
/// unbalanced).
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == open) ++depth;
    if (t[j].text == close) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return t.size();
}

struct DefMatch {
  bool ok = false;
  std::string name;
  std::string qual;      // explicit A:: qualifier, if written
  std::size_t open = 0;  // token index of the body '{'
};

/// Try to match a function definition starting at token `i`:
///   qual::...::name ( params ) [trailer | : ctor-init] {
DefMatch match_function(const std::vector<Token>& t, std::size_t i) {
  DefMatch m;
  std::vector<std::string> segs;
  std::size_t j = i;
  while (true) {
    if (!is_ident(t, j)) return m;
    segs.push_back(t[j].text);
    ++j;
    if (is_punct(t, j, "<")) j = skip_angle(t, j);
    if (is_punct(t, j, "::")) {
      ++j;
      continue;
    }
    break;
  }
  if (!is_punct(t, j, "(")) return m;
  m.name = segs.back();
  if (keywords().count(m.name) != 0) return m;
  if (segs.size() > 1) m.qual = segs[segs.size() - 2];
  j = skip_balanced(t, j, "(", ")");
  // Trailer: cv-qualifiers, noexcept(...), attributes, trailing return
  // types — anything but a terminator.
  while (j < t.size()) {
    const Token& tok = t[j];
    if (tok.kind == Token::Kind::kIdent) {
      ++j;
      if (is_punct(t, j, "(")) j = skip_balanced(t, j, "(", ")");
      continue;
    }
    if (tok.kind != Token::Kind::kPunct) return m;
    if (tok.text == "{") {
      m.ok = true;
      m.open = j;
      return m;
    }
    if (tok.text == ";" || tok.text == "=" || tok.text == ",") return m;
    if (tok.text == "<") {
      j = skip_angle(t, j);
      continue;
    }
    if (tok.text == "::" || tok.text == "->" || tok.text == "*" ||
        tok.text == "&") {
      ++j;
      continue;
    }
    if (tok.text == "[") {
      j = skip_balanced(t, j, "[", "]");
      continue;
    }
    if (tok.text == ":") {
      // Constructor member-init list: items `name(...)` / `name{...}`
      // separated by commas, then the body brace.
      ++j;
      while (true) {
        while (is_ident(t, j) || is_punct(t, j, "::")) {
          if (is_ident(t, j) && is_punct(t, j + 1, "<")) {
            ++j;
            j = skip_angle(t, j);
          } else {
            ++j;
          }
        }
        if (is_punct(t, j, "...")) ++j;  // never fused, but harmless
        if (is_punct(t, j, "(")) {
          j = skip_balanced(t, j, "(", ")");
        } else if (is_punct(t, j, "{")) {
          j = skip_balanced(t, j, "{", "}");
        } else {
          return m;
        }
        if (is_punct(t, j, ",")) {
          ++j;
          continue;
        }
        if (is_punct(t, j, "{")) {
          m.ok = true;
          m.open = j;
          return m;
        }
        return m;
      }
    }
    return m;
  }
  return m;
}

struct Ctx {
  enum Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind;
  std::string name;
  int def_index = -1;  // for kFunction: index into ProjectIndex::functions
};

std::string enclosing_class(const std::vector<Ctx>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->kind == Ctx::kClass) return it->name;
  }
  return {};
}

bool inside_function(const std::vector<Ctx>& stack) {
  return std::any_of(stack.begin(), stack.end(), [](const Ctx& c) {
    return c.kind == Ctx::kFunction;
  });
}

/// First quoted substring of `raw_line` (the human label of a RankedMutex
/// declaration — scrubbed tokens lose literal contents).
std::string quoted_label(const std::string& raw_line) {
  const std::size_t a = raw_line.find('"');
  if (a == std::string::npos) return {};
  const std::size_t b = raw_line.find('"', a + 1);
  if (b == std::string::npos) return {};
  return raw_line.substr(a + 1, b - a - 1);
}

void parse_lock_rank_enum(const std::vector<Token>& t, std::size_t open,
                          std::map<std::string, int>& ranks) {
  int value = 0;
  for (std::size_t j = open + 1; j < t.size(); ++j) {
    if (is_punct(t, j, "}")) return;
    if (!is_ident(t, j)) continue;
    const std::string name = t[j].text;
    int v = value;
    if (is_punct(t, j + 1, "=") && j + 2 < t.size() &&
        t[j + 2].kind == Token::Kind::kNumber) {
      v = std::atoi(t[j + 2].text.c_str());
      j += 2;
    }
    ranks[name] = v;
    value = v + 1;
    // Advance to the comma / closing brace.
    while (j + 1 < t.size() && !is_punct(t, j + 1, ",") &&
           !is_punct(t, j + 1, "}")) {
      ++j;
    }
    if (is_punct(t, j + 1, ",")) ++j;
  }
}

std::string path_stem(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

void index_file(int file_id, const SourceFile& f, ProjectIndex& idx) {
  const std::vector<Token>& t = f.toks;
  std::vector<Ctx> stack;
  bool pending_noalloc = false;
  std::size_t i = 0;
  while (i < t.size()) {
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "{") {
        stack.push_back({Ctx::kBlock, "", -1});
      } else if (tok.text == "}") {
        if (!stack.empty()) {
          if (stack.back().kind == Ctx::kFunction &&
              stack.back().def_index >= 0) {
            idx.functions[static_cast<std::size_t>(stack.back().def_index)]
                .body_end = i;
          }
          stack.pop_back();
        }
      } else if (tok.text == ";") {
        pending_noalloc = false;
      }
      ++i;
      continue;
    }
    if (tok.kind != Token::Kind::kIdent) {
      ++i;
      continue;
    }
    const std::string& w = tok.text;

    if (w == "template" && is_punct(t, i + 1, "<")) {
      i = skip_angle(t, i + 1);
      continue;
    }
    if (w == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (is_ident(t, j) || is_punct(t, j, "::")) {
        if (is_ident(t, j)) name = t[j].text;
        ++j;
      }
      if (is_punct(t, j, "{")) {
        stack.push_back({Ctx::kNamespace, name, -1});
        i = j + 1;
        continue;
      }
      i = j + 1;  // alias or extern-C-ish — skip
      continue;
    }
    if (w == "enum") {
      std::size_t j = i + 1;
      if (is_ident(t, j) && (t[j].text == "class" || t[j].text == "struct")) {
        ++j;
      }
      std::string name;
      if (is_ident(t, j)) {
        name = t[j].text;
        ++j;
      }
      while (j < t.size() && !is_punct(t, j, "{") && !is_punct(t, j, ";")) {
        ++j;
      }
      if (is_punct(t, j, "{")) {
        if (name == "LockRank") parse_lock_rank_enum(t, j, idx.rank_values);
        i = skip_balanced(t, j, "{", "}");
      } else {
        i = j + 1;
      }
      continue;
    }
    if ((w == "class" || w == "struct") && is_ident(t, i + 1)) {
      const std::string name = t[i + 1].text;
      // Scan to the opening brace (skipping template args and base lists)
      // or a ';' ending a forward declaration / variable of struct type.
      std::size_t j = i + 2;
      bool found = false;
      while (j < t.size()) {
        if (is_punct(t, j, "<")) {
          j = skip_angle(t, j);
          continue;
        }
        if (is_punct(t, j, "{")) {
          found = true;
          break;
        }
        if (is_punct(t, j, ";") || is_punct(t, j, ")") ||
            is_punct(t, j, ",") || is_punct(t, j, ">")) {
          break;  // fwd decl, `const struct X&` param, etc.
        }
        ++j;
      }
      if (found) {
        idx.class_names.insert(name);
        stack.push_back({Ctx::kClass, name, -1});
        i = j + 1;
        continue;
      }
      i += 2;
      continue;
    }

    // --- declarations, detected anywhere -------------------------------
    if (w == "DSHUF_NOALLOC" && !(is_ident(t, i >= 1 ? i - 1 : 0) &&
                                  t[i - 1].text == "define")) {
      pending_noalloc = true;
      ++i;
      continue;
    }
    if (w == "RankedMutex" && is_ident(t, i + 1) &&
        (is_punct(t, i + 2, "{") || is_punct(t, i + 2, "("))) {
      MutexDecl d;
      d.file = file_id;
      d.line = tok.line;
      d.name = t[i + 1].text;
      d.owner = enclosing_class(stack);
      const char* open = t[i + 2].text == "{" ? "{" : "(";
      const char* close = t[i + 2].text == "{" ? "}" : ")";
      const std::size_t end = skip_balanced(t, i + 2, open, close);
      for (std::size_t j = i + 2; j + 2 < end; ++j) {
        if (is_ident(t, j) && t[j].text == "LockRank" &&
            is_punct(t, j + 1, "::") && is_ident(t, j + 2)) {
          d.rank_name = t[j + 2].text;
          break;
        }
      }
      const std::size_t li = static_cast<std::size_t>(tok.line) - 1;
      if (li < f.raw_lines.size()) d.label = quoted_label(f.raw_lines[li]);
      idx.mutexes.push_back(d);
      i = end;
      continue;
    }
    if ((w == "condition_variable_any" || w == "condition_variable") &&
        is_ident(t, i + 1)) {
      idx.cv_names.insert(t[i + 1].text);
      i += 2;
      continue;
    }
    if (w == "atomic" && is_punct(t, i + 1, "<")) {
      std::size_t j = skip_angle(t, i + 1);
      while (is_punct(t, j, ">") || is_punct(t, j, "[") ||
             is_punct(t, j, "]") || is_punct(t, j, "*") ||
             is_punct(t, j, "&")) {
        ++j;
      }
      if (is_ident(t, j) && keywords().count(t[j].text) == 0) {
        idx.atomic_names.insert(t[j].text);
      }
      ++i;
      continue;
    }

    // --- function definitions (only at namespace/class scope) ----------
    if (!inside_function(stack) && keywords().count(w) == 0 &&
        !(i >= 1 && (is_punct(t, i - 1, "~") || is_punct(t, i - 1, ".") ||
                     is_punct(t, i - 1, "->") ||
                     (is_ident(t, i - 1) && t[i - 1].text == "operator")))) {
      DefMatch m = match_function(t, i);
      if (m.ok && m.name != "operator") {
        FunctionDef def;
        def.file = file_id;
        def.line = tok.line;
        def.name = m.name;
        def.qual = !m.qual.empty() ? m.qual : enclosing_class(stack);
        def.body_begin = m.open + 1;
        def.body_end = m.open + 1;  // patched at the closing brace
        def.noalloc = pending_noalloc;
        pending_noalloc = false;
        const int def_index = static_cast<int>(idx.functions.size());
        idx.functions.push_back(def);
        if (!def.qual.empty()) idx.class_names.insert(def.qual);
        stack.push_back({Ctx::kFunction, def.name, def_index});
        i = m.open + 1;
        continue;
      }
    }
    ++i;
  }
  // Unclosed contexts (truncated file): close any function bodies at EOF.
  for (const Ctx& c : stack) {
    if (c.kind == Ctx::kFunction && c.def_index >= 0) {
      idx.functions[static_cast<std::size_t>(c.def_index)].body_end =
          t.size();
    }
  }
}

/// Second pass: variable -> class typing, using the full project's
/// class-name set. Covers `ClassName [>*&]* var`, wrapper templates whose
/// arguments name a project class (`unique_ptr<FaultInjector> injector_`,
/// `std::vector<RankMailbox> mailboxes_`), and — in a follow-up pass —
/// range-for bindings (`for (auto& mb : mailboxes_)` types `mb` as the
/// container's element class).
void collect_var_classes(const SourceFile& f, ProjectIndex& idx) {
  const std::vector<Token>& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i)) continue;
    const bool direct = idx.class_names.count(t[i].text) != 0;
    std::string cls = direct ? t[i].text : std::string();
    std::size_t j = i + 1;
    if (is_punct(t, j, "<")) {
      const std::size_t close = skip_angle(t, j);
      if (!direct) {
        // Wrapper template: adopt the first project class among the
        // arguments (shared_ptr<X>, vector<X>, optional<X>, ...).
        for (std::size_t k = j + 1; k + 1 < close; ++k) {
          if (is_ident(t, k) && idx.class_names.count(t[k].text) != 0) {
            cls = t[k].text;
            break;
          }
        }
      }
      j = close;
    }
    if (cls.empty()) continue;
    while (is_punct(t, j, ">") || is_punct(t, j, "*") ||
           is_punct(t, j, "&") || is_punct(t, j, "[") ||
           is_punct(t, j, "]")) {
      ++j;
    }
    if (!is_ident(t, j) || keywords().count(t[j].text) != 0) continue;
    const std::size_t after = j + 1;
    if (is_punct(t, after, ";") || is_punct(t, after, ",") ||
        is_punct(t, after, "=") || is_punct(t, after, "{") ||
        is_punct(t, after, ")")) {
      idx.var_class[t[j].text].insert(cls);
    } else if (is_punct(t, after, "(")) {
      // `Type name(args)` is a ctor-style variable declaration only when
      // the paren group ends the statement; `TraceState& state() {` is a
      // function definition and must not type the name `state`.
      const std::size_t close = skip_balanced(t, after, "(", ")");
      if (is_punct(t, close, ";") || is_punct(t, close, ",")) {
        idx.var_class[t[j].text].insert(cls);
      }
    }
  }
}

/// Third pass: propagate container element classes through range-for
/// bindings — `for (auto& x : ys)` gives `x` whatever class `ys` has.
void collect_range_for_bindings(const SourceFile& f, ProjectIndex& idx) {
  const std::vector<Token>& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t, i) || t[i].text != "for" || !is_punct(t, i + 1, "(")) {
      continue;
    }
    const std::size_t close = skip_balanced(t, i + 1, "(", ")");
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j + 1 < close; ++j) {
      if (is_punct(t, j, "(") || is_punct(t, j, "<")) ++depth;
      if (is_punct(t, j, ")") || is_punct(t, j, ">")) --depth;
      if (depth == 1 && is_punct(t, j, ":")) {
        colon = j;
        break;
      }
      if (is_punct(t, j, ";")) break;  // classic for loop
    }
    if (colon == 0) continue;
    std::string binder;
    for (std::size_t j = colon; j > i + 1; --j) {
      if (is_ident(t, j - 1)) {
        binder = t[j - 1].text;
        break;
      }
    }
    std::string source;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (is_ident(t, j) && t[j].text != "this") {
        source = t[j].text;
        break;
      }
    }
    if (binder.empty() || source.empty() || binder == "auto") continue;
    const auto it = idx.var_class.find(source);
    if (it != idx.var_class.end()) {
      idx.var_class[binder].insert(it->second.begin(), it->second.end());
    }
  }
}

}  // namespace

ProjectIndex build_index(std::vector<SourceFile> files) {
  ProjectIndex idx;
  idx.files = std::move(files);
  for (std::size_t i = 0; i < idx.files.size(); ++i) {
    index_file(static_cast<int>(i), idx.files[i], idx);
  }
  for (const SourceFile& f : idx.files) collect_var_classes(f, idx);
  for (const SourceFile& f : idx.files) {
    collect_range_for_bindings(f, idx);
  }
  for (MutexDecl& m : idx.mutexes) {
    const auto it = idx.rank_values.find(m.rank_name);
    if (it != idx.rank_values.end()) m.rank = it->second;
  }
  for (std::size_t i = 0; i < idx.functions.size(); ++i) {
    idx.functions_by_name[idx.functions[i].name].push_back(
        static_cast<int>(i));
  }
  return idx;
}

std::vector<const MutexDecl*> resolve_mutex(const ProjectIndex& idx,
                                            int file,
                                            const std::string& owner,
                                            const std::vector<Token>& toks,
                                            std::size_t b, std::size_t e) {
  // Final identifier of the expression, plus the receiver before `.`/`->`.
  std::size_t fin = e;
  for (std::size_t j = e; j > b; --j) {
    if (toks[j - 1].kind == Token::Kind::kIdent) {
      fin = j - 1;
      break;
    }
  }
  if (fin == e) return {};
  const std::string name = toks[fin].text;
  std::string receiver;
  bool receiver_is_var = true;  // false for `state().mu`-style call results
  if (fin >= b + 2 && (is_punct(toks, fin - 1, ".") ||
                       is_punct(toks, fin - 1, "->"))) {
    std::size_t r = fin - 2;
    if (is_punct(toks, r, ")") || is_punct(toks, r, "]")) {
      receiver_is_var = false;
      const char* close = toks[r].text == ")" ? ")" : "]";
      const char* open = toks[r].text == ")" ? "(" : "[";
      int depth = 0;
      while (r > b) {
        if (is_punct(toks, r, close)) ++depth;
        if (is_punct(toks, r, open)) {
          --depth;
          if (depth == 0) {
            if (r > b) --r;
            break;
          }
        }
        --r;
      }
    }
    if (toks[r].kind == Token::Kind::kIdent) receiver = toks[r].text;
  }

  std::vector<const MutexDecl*> out;
  // 1. Receiver with known candidate classes: intersect with the classes
  // actually owning a mutex of this name. A variable name declared as
  // several project classes still resolves when only one of them has the
  // member (`x->mu` where only one of x's candidate classes owns a `mu`).
  // Call-result receivers (`state().mu`) skip this — a function name is
  // not a variable — and fall to the locality heuristics below.
  if (!receiver.empty() && receiver_is_var) {
    const auto vc = idx.var_class.find(receiver);
    if (vc != idx.var_class.end()) {
      for (const MutexDecl& m : idx.mutexes) {
        if (m.name == name && vc->second.count(m.owner) != 0) {
          out.push_back(&m);
        }
      }
      if (!out.empty()) return out;
    }
  }
  // 2. Bare member name inside a member function: the enclosing class's
  // own mutex.
  if (receiver.empty() && !owner.empty()) {
    for (const MutexDecl& m : idx.mutexes) {
      if (m.name == name && m.owner == owner) out.push_back(&m);
    }
    if (!out.empty()) return out;
  }
  // 3. Same file.
  for (const MutexDecl& m : idx.mutexes) {
    if (m.name == name && m.file == file) out.push_back(&m);
  }
  if (!out.empty()) return out;
  // 4. Header/source sibling (same path stem).
  if (file >= 0 && static_cast<std::size_t>(file) < idx.files.size()) {
    const std::string stem = path_stem(idx.files[static_cast<std::size_t>(
        file)].cls.path);
    for (const MutexDecl& m : idx.mutexes) {
      if (m.name == name && m.file >= 0 &&
          path_stem(idx.files[static_cast<std::size_t>(m.file)].cls.path) ==
              stem) {
        out.push_back(&m);
      }
    }
    if (!out.empty()) return out;
  }
  // 4. Global by name.
  for (const MutexDecl& m : idx.mutexes) {
    if (m.name == name) out.push_back(&m);
  }
  return out;
}

std::vector<int> resolve_call(const ProjectIndex& idx,
                              const std::string& name,
                              const std::string& receiver,
                              const std::string& class_hint,
                              int caller_file) {
  const auto it = idx.functions_by_name.find(name);
  if (it == idx.functions_by_name.end()) return {};
  const auto by_class = [&](const std::string& cls) {
    std::vector<int> filtered;
    for (int fi : it->second) {
      if (idx.functions[static_cast<std::size_t>(fi)].qual == cls) {
        filtered.push_back(fi);
      }
    }
    return filtered;
  };
  // 1. Explicit `Class::name(...)` qualifier: the class decides, full
  // stop. (The extractor only forwards qualifiers that are known project
  // classes.)
  if (!class_hint.empty()) return by_class(class_hint);
  // 2. A call through a receiver is a method call; it never resolves to a
  // free function, and a typed receiver never falls through to weaker
  // heuristics — a class without the method means the body is simply out
  // of view (documented under-approximation, DESIGN.md §12).
  if (!receiver.empty()) {
    const auto vc = idx.var_class.find(receiver);
    if (vc != idx.var_class.end()) {
      std::vector<int> filtered;
      for (const std::string& cls : vc->second) {
        for (int fi : by_class(cls)) filtered.push_back(fi);
      }
      return filtered;
    }
    // Untyped receiver. STL-ish method names (`clear`, `pop`, ...) are
    // overwhelmingly standard-container calls; resolving them to a
    // same-named project method produces phantom recursion, so they
    // require a typed receiver.
    static const std::set<std::string> stl_like = {
        "clear", "erase",  "pop",   "pop_back", "pop_front", "top",
        "front", "back",   "size",  "empty",    "begin",     "end",
        "find",  "count",  "at",    "swap",     "data",      "c_str",
        "get",   "reset",  "value", "str",      "substr",    "wait"};
    if (stl_like.count(name) != 0) return {};
    // Otherwise only a project-wide unique *method* definition resolves.
    std::vector<int> methods;
    for (int fi : it->second) {
      if (!idx.functions[static_cast<std::size_t>(fi)].qual.empty()) {
        methods.push_back(fi);
      }
    }
    if (methods.size() == 1) return methods;
    return {};
  }
  // 3. Receiver-less call: definitions in the caller's own file shadow
  // same-named functions elsewhere (file-local helpers, implicit-this
  // methods of a class defined here).
  std::vector<int> same_file;
  for (int fi : it->second) {
    if (idx.functions[static_cast<std::size_t>(fi)].file == caller_file) {
      same_file.push_back(fi);
    }
  }
  if (!same_file.empty()) return same_file;
  // 4. Project-wide, but only when unambiguous: a name with several
  // unrelated definitions resolves to nothing rather than to their union
  // (documented under-approximation — DESIGN.md §12).
  if (it->second.size() == 1) return it->second;
  return {};
}

}  // namespace dshuf::analyze
