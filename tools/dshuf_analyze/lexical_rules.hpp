// Per-file lexical rules, ported from tools/dshuf_lint onto the shared
// scanning core (source_model.hpp).
//
// Rule catalogue (unchanged from dshuf_lint — see that tool's header for
// the full contract):
//   banned-random          entropy/wall-clock sources outside util/rng.*
//   unordered-iteration    hash-order iteration in determinism-critical
//                          namespaces (`// lint:ordered-ok <why>` waives)
//   raw-tag-literal        send/recv/poll member-call tag args that
//                          bypass shuffle/exchange_tags.hpp
//                          (`// lint:tag-ok`)
//   raw-stdout             std::cout/cerr in src/ (`// lint:stdout-ok`)
//   raw-mmap               mmap/munmap/mremap/msync call-sites in src/
//                          outside src/io/ — mappings belong to
//                          io::MmapSampleStore (`// lint:mmap-ok` waives)
//   metric-name            DSHUF_COUNTER/GAUGE/HISTOGRAM_US name literals
//                          must be dotted lowercase ([a-z0-9_.]+)
//   pragma-once, relative-include, using-namespace-std
//
// banned-random and raw-stdout now match on the token stream (whole-token
// identifier equality) instead of substring scans; the remaining rules
// consume the shared scrubbed-line view. Either way a match inside a
// string literal or comment is impossible by construction.
#pragma once

#include <vector>

#include "source_model.hpp"

namespace dshuf::analyze {

/// Run every lexical rule over one file. Findings carry pass = "lint" and
/// are sorted by (line, rule).
std::vector<Finding> scan_lexical(const SourceFile& f);

}  // namespace dshuf::analyze
