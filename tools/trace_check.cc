// trace_check — schema validator for dflp round traces.
//
//   trace_check [--normalize] <trace.jsonl|->
//
// Exit 0 when the input is a valid version-2 JSONL trace
// (docs/trace-schema.md): header first, known record types, required
// fields, a known delivery `path` per round, dense section ids,
// consecutive per-section round numbers, the counter identity
// delivered == sent - dropped + duplicated, and zero counters in a skipped
// round. Exit 1 with the reason on stderr otherwise. The ctest case
// TraceCheck.AcceptsFreshTrace runs this on a fresh `dflp_cli solve
// --trace` output.
//
// With --normalize, a valid trace is additionally re-emitted on stdout in
// canonical form — wall timings zeroed (netsim/trace.h normalize_trace) —
// so the deterministic round shape, delivery paths included, can be
// diffed against the committed goldens in tests/goldens/ (the
// TraceRegression.* ctest cases).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "netsim/trace.h"

int main(int argc, char** argv) {
  bool normalize = false;
  std::string path;
  bool bad_usage = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--normalize") {
      normalize = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      bad_usage = true;
    }
  }
  if (path.empty() || bad_usage) {
    std::cerr << "usage: trace_check [--normalize] <trace.jsonl|->\n";
    return 2;
  }

  // Buffer the input so the summary pass can re-read it after validation
  // (stdin cannot be rewound).
  std::stringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in.good()) {
      std::cerr << "trace_check: cannot open '" << path << "'\n";
      return 1;
    }
    buffer << in.rdbuf();
  }

  std::string why;
  if (!dflp::net::validate_trace_jsonl(buffer, &why)) {
    std::cerr << "trace_check: INVALID: " << why << "\n";
    return 1;
  }
  buffer.clear();
  buffer.seekg(0);
  dflp::net::ParsedTrace trace = dflp::net::read_trace_jsonl(buffer);
  if (normalize) {
    dflp::net::normalize_trace(&trace);
    dflp::net::write_trace_jsonl(trace, std::cout);
    return 0;
  }
  std::cout << "trace_check: ok (version " << trace.version << ", "
            << trace.sections.size() << " section(s), " << trace.rounds.size()
            << " round(s))\n";
  return 0;
}
