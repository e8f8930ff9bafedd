// dshuf_lint rule engine.
//
// Enforces the project's determinism invariants that the compiler cannot
// (DESIGN.md §8): the bit-identical PLS/GS gradient equivalence and the
// replayable fault schedules only hold if no code path consults an
// unseeded or wall-clock entropy source and no determinism-critical result
// depends on hash-bucket iteration order. The checks are lexical — a
// comment/string-aware token scan, not a full parse — which keeps the tool
// dependency-free and fast enough to run as a ctest on every build.
//
// Rules (each Finding carries the rule id):
//
//   banned-random       std::rand / srand / std::random_device / seeding
//                       from wall-clock time anywhere outside util/rng.*.
//                       All randomness must flow through dshuf::Rng.
//   unordered-iteration iteration over std::unordered_{map,set} inside the
//                       determinism-critical namespaces (src/shuffle,
//                       src/comm, src/sim). Suppress a deliberate site
//                       with `// lint:ordered-ok <justification>` on the
//                       same or the preceding line.
//   ordered-ok-justification  a lint:ordered-ok annotation with no
//                       justification text (the contract requires one).
//   raw-tag-literal     a send/recv/poll member call (`c.send(` or
//                       `c->send(`) whose tag argument (#2) does not
//                       reference a tag helper/constant (it must mention
//                       `tag`, e.g. frame_data_tag(...), kAnyTag,
//                       tag_base). Raw literals collide across epochs.
//                       Suppress per line with `// lint:tag-ok <why>` or
//                       per file with `// lint:tag-ok-file: <why>` (for
//                       transport-level tests that name their own
//                       channels).
//   tag-ok-justification  a lint:tag-ok[-file] annotation with no
//                       justification text.
//   raw-stdout          a direct std::cout / std::cerr write inside src/
//                       (everything under src/ must log through
//                       util/log.hpp so lines carry the [rank epoch]
//                       context; util/log.cpp itself is the one module
//                       allowed to own the streams). Suppress a deliberate
//                       site with `// lint:stdout-ok <why>` on the same or
//                       the preceding line. Benches and tests are exempt.
//   stdout-ok-justification  a lint:stdout-ok annotation with no
//                       justification text.
//   raw-mmap            a direct mmap / munmap / mremap / msync call-site
//                       inside src/ but outside src/io/ (mappings must be
//                       owned by io::MmapSampleStore so epoch reclamation
//                       and the capacity bound stay correct). Suppress a
//                       deliberate site with `// lint:mmap-ok <why>`.
//   mmap-ok-justification  a lint:mmap-ok annotation with no
//                       justification text.
//   metric-name         a DSHUF_COUNTER / DSHUF_GAUGE /
//                       DSHUF_HISTOGRAM_US name literal that is not
//                       dotted lowercase ([a-z0-9_.]+). Registry names
//                       are keys into the metrics snapshot, timeseries
//                       export and dshuf_trace tables; "Exchange.Bytes"
//                       next to "exchange.bytes" splits one metric in
//                       two forever.
//   pragma-once         a header whose first content line is not
//                       `#pragma once`.
//   relative-include    `#include "..."` using a ../ path (all project
//                       includes are rooted at src/).
//   using-namespace-std `using namespace std;`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dshuf::lint {

struct Finding {
  std::string file;
  std::size_t line = 1;  // 1-based
  std::string rule;
  std::string message;
};

/// Path-derived properties steering which rules apply.
struct FileInfo {
  std::string path;
  bool is_header = false;
  /// Under src/shuffle, src/comm, or src/sim — the namespaces whose
  /// results must not depend on hash iteration order.
  bool determinism_critical = false;
  /// util/rng.* — the one module allowed to name entropy primitives.
  bool rng_module = false;
  /// Under a src/ tree — the namespaces where raw stream writes are
  /// banned in favour of util/log.hpp.
  bool src_tree = false;
  /// util/log.cpp — the one module allowed to own std::cout/std::cerr.
  bool log_module = false;
  /// src/io/ — the one module allowed to call mmap/munmap directly.
  bool io_module = false;
};

/// Derive FileInfo from a (relative or absolute) path.
[[nodiscard]] FileInfo classify_path(const std::string& path);

/// Blank out comments and string/char literal bodies with spaces,
/// preserving newlines, so token scans cannot match prose. Handles //,
/// /*...*/, "..." with escapes, '...' and R"delim(...)delim".
[[nodiscard]] std::string scrub(const std::string& content);

/// Run every applicable rule over one file's content.
[[nodiscard]] std::vector<Finding> scan_file(const FileInfo& info,
                                             const std::string& content);

/// Convenience: classify_path + scan_file.
[[nodiscard]] std::vector<Finding> scan_file(const std::string& path,
                                             const std::string& content);

}  // namespace dshuf::lint
