// Round-trace regression tests (netsim/trace.h).
//
// The JSONL trace schema is a versioned public artifact
// (docs/trace-schema.md): external tooling parses it, so its byte layout is
// pinned here by a committed golden — a fixed-seed mw-greedy run must
// serialize to exactly the committed text once wall-clock timings (the only
// nondeterministic fields) are masked. The suite also pins the read side
// (parse round-trip, the reader's and the validator's rejection
// diagnostics) and the Chrome exporter's basic shape.
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/mw_greedy.h"
#include "netsim/trace.h"
#include "workload/generators.h"

namespace dflp {
namespace {

/// Masks every timing value (the `*_s` fields) with `_`; everything else
/// in a trace is deterministic.
std::string mask_timings(const std::string& s) {
  return std::regex_replace(
      s, std::regex(R"re("(step_s|commit_s|scatter_s)":[0-9.eE+-]+)re"),
      "\"$1\":_");
}

/// The fixed-seed run behind the golden: uniform family (24 facilities,
/// instance seed 7), k=4, engine seed 11, serial, phase capture on. The
/// Tracer is caller-owned (it is deliberately non-copyable).
void traced_golden_run(net::Tracer& tracer) {
  const fl::Instance inst =
      workload::make_family_instance(workload::Family::kUniform, 24, 7);
  core::MwParams params;
  params.k = 4;
  params.seed = 11;
  params.tracer = &tracer;
  (void)core::run_mw_greedy(inst, params);
}

std::string jsonl_of(const net::Tracer& tracer) {
  std::ostringstream os;
  tracer.write_jsonl(os);
  return os.str();
}

std::string golden_jsonl() {
  net::Tracer tracer(/*capture_phases=*/true);
  traced_golden_run(tracer);
  return jsonl_of(tracer);
}

// Committed golden (timings masked). Rounds 0-15 are the protocol's silent
// doubling phases; offers start at round 16 and the run settles in three
// offer/accept/open/connect waves. Every node steps in round 0 and sleeps
// until its first possible action, so rounds 1-15 are skipped: they keep
// their records, with `path` "skip". Any schema change — field added, renamed,
// reordered, version bumped — must update this text AND docs/trace-schema.md
// together.
constexpr char kGoldenJsonl[] =
    R"({"schema":"dflp-trace","version":2}
{"type":"section","id":0,"name":"mw-greedy","nodes":28,"edges":96,"seed":11,"bit_budget":36}
{"type":"round","sec":0,"round":0,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[]}
{"type":"round","sec":0,"round":1,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":2,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":3,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":4,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":5,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":6,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":7,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":8,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":9,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":10,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":11,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":12,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":13,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":14,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":15,"live":28,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"skip","phases":[]}
{"type":"round","sec":0,"round":16,"live":28,"sent":25,"delivered":25,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":200,"max_bits":8,"arena":25,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["offer",3]]}
{"type":"round","sec":0,"round":17,"live":28,"sent":18,"delivered":18,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":144,"max_bits":8,"arena":18,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["accept",18]]}
{"type":"round","sec":0,"round":18,"live":28,"sent":18,"delivered":18,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":144,"max_bits":8,"arena":18,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["open",3]]}
{"type":"round","sec":0,"round":19,"live":28,"sent":72,"delivered":72,"dropped":0,"duplicated":0,"crashed":0,"halted":18,"bits":576,"max_bits":8,"arena":72,"step_s":_,"commit_s":_,"scatter_s":_,"path":"pull","phases":[["connect",18]]}
{"type":"round","sec":0,"round":20,"live":10,"sent":3,"delivered":3,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":24,"max_bits":8,"arena":3,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["offer",3]]}
{"type":"round","sec":0,"round":21,"live":10,"sent":3,"delivered":3,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":24,"max_bits":8,"arena":3,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["accept",3]]}
{"type":"round","sec":0,"round":22,"live":10,"sent":3,"delivered":3,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":24,"max_bits":8,"arena":3,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["open",3]]}
{"type":"round","sec":0,"round":23,"live":10,"sent":12,"delivered":12,"dropped":0,"duplicated":0,"crashed":0,"halted":3,"bits":96,"max_bits":8,"arena":12,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["connect",3]]}
{"type":"round","sec":0,"round":24,"live":7,"sent":6,"delivered":6,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":48,"max_bits":8,"arena":6,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["offer",4]]}
{"type":"round","sec":0,"round":25,"live":7,"sent":3,"delivered":3,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":24,"max_bits":8,"arena":3,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["accept",3]]}
{"type":"round","sec":0,"round":26,"live":7,"sent":3,"delivered":3,"dropped":0,"duplicated":0,"crashed":0,"halted":0,"bits":24,"max_bits":8,"arena":3,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["open",2]]}
{"type":"round","sec":0,"round":27,"live":7,"sent":12,"delivered":12,"dropped":0,"duplicated":0,"crashed":0,"halted":3,"bits":96,"max_bits":8,"arena":12,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[["connect",3]]}
{"type":"round","sec":0,"round":28,"live":4,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":4,"bits":0,"max_bits":0,"arena":0,"step_s":_,"commit_s":_,"scatter_s":_,"path":"push","phases":[]}
)";

TEST(TraceGolden, FixedSeedRunMatchesCommittedJsonl) {
  EXPECT_EQ(mask_timings(golden_jsonl()), kGoldenJsonl);
}

TEST(TraceGolden, RepeatedRunsAreByteIdenticalModuloTimings) {
  const std::string a = mask_timings(golden_jsonl());
  const std::string b = mask_timings(golden_jsonl());
  EXPECT_EQ(a, b);
}

TEST(TraceGolden, JsonlRoundTripsThroughReader) {
  net::Tracer tracer(/*capture_phases=*/true);
  traced_golden_run(tracer);
  std::istringstream in(jsonl_of(tracer));
  const net::ParsedTrace parsed = net::read_trace_jsonl(in);
  ASSERT_EQ(parsed.version, net::kTraceSchemaVersion);
  ASSERT_EQ(parsed.sections.size(), tracer.sections().size());
  ASSERT_EQ(parsed.rounds.size(), tracer.rounds().size());
  EXPECT_EQ(parsed.sections[0].name, "mw-greedy");
  EXPECT_EQ(parsed.sections[0].nodes, 28u);
  for (std::size_t i = 0; i < parsed.rounds.size(); ++i) {
    const net::TraceRound& got = parsed.rounds[i];
    const net::TraceRound& want = tracer.rounds()[i];
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.sent, want.sent);
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.bits, want.bits);
    EXPECT_EQ(got.arena, want.arena);
    EXPECT_EQ(got.path, want.path);
    ASSERT_EQ(got.phases.size(), want.phases.size());
    for (std::size_t p = 0; p < got.phases.size(); ++p) {
      EXPECT_EQ(got.phases[p].first, want.phases[p].first);
      EXPECT_EQ(got.phases[p].second, want.phases[p].second);
    }
  }
}

/// Normalized JSONL of a fresh golden run (parse -> normalize -> re-emit,
/// the same path `trace_check --normalize` takes).
std::string normalized_golden_jsonl() {
  std::istringstream in(golden_jsonl());
  net::ParsedTrace parsed = net::read_trace_jsonl(in);
  net::normalize_trace(&parsed);
  std::ostringstream out;
  net::write_trace_jsonl(parsed, out);
  return out.str();
}

TEST(TraceNormalize, StripsTimingsAndIsIdempotent) {
  const std::string serial = normalized_golden_jsonl();
  // No timing survives: every *_s field is exactly 0. The delivery paths
  // are deterministic, so they stay.
  EXPECT_FALSE(std::regex_search(serial, std::regex(R"re(_s":(?!0,))re")));
  EXPECT_NE(serial.find("\"step_s\":0,\"commit_s\":0,\"scatter_s\":0"),
            std::string::npos);
  EXPECT_NE(serial.find("\"path\":\"skip\""), std::string::npos);
  // A second run differs only in its timings, so its normalized bytes are
  // identical, which is what lets CI diff a fresh trace against a
  // committed golden.
  EXPECT_EQ(serial, normalized_golden_jsonl());
  // The normalized form is still schema-valid and normalization is
  // idempotent through another read -> normalize -> write cycle.
  std::istringstream in(serial);
  std::string why;
  EXPECT_TRUE(net::validate_trace_jsonl(in, &why)) << why;
  in.clear();
  in.seekg(0);
  net::ParsedTrace again = net::read_trace_jsonl(in);
  net::normalize_trace(&again);
  std::ostringstream out;
  net::write_trace_jsonl(again, out);
  EXPECT_EQ(out.str(), serial);
}

/// Runs the validator on `text` and returns the diagnostic ("" = valid).
std::string validate(const std::string& text) {
  std::istringstream in(text);
  std::string why;
  return net::validate_trace_jsonl(in, &why) ? std::string() : why;
}

/// Corrupts the first occurrence of `from` in the golden run's JSONL.
std::string corrupted_golden(const std::string& from, const std::string& to) {
  std::string text = golden_jsonl();
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  text.replace(pos, from.size(), to);
  return text;
}

TEST(TraceValidator, AcceptsFreshTrace) {
  EXPECT_EQ(validate(golden_jsonl()), "");
}

TEST(TraceValidator, RejectsWrongVersion) {
  const std::string text = corrupted_golden("\"version\":2", "\"version\":7");
  EXPECT_NE(validate(text).find("version"), std::string::npos)
      << validate(text);
}

TEST(TraceValidator, RejectsMissingHeader) {
  std::string text = golden_jsonl();
  text.erase(0, text.find('\n') + 1);  // drop the schema header line
  EXPECT_NE(validate(text), "");
}

TEST(TraceValidator, RejectsCounterIdentityViolation) {
  const std::string text =
      corrupted_golden("\"delivered\":25", "\"delivered\":24");
  EXPECT_NE(validate(text).find("counter identity"), std::string::npos)
      << validate(text);
}

TEST(TraceValidator, RejectsSkippedRoundWithCounters) {
  // Round 1 is the first skipped round; give it a halt.
  const std::string text = corrupted_golden(
      "\"round\":1,\"live\":28,\"sent\":0,\"delivered\":0,\"dropped\":0,"
      "\"duplicated\":0,\"crashed\":0,\"halted\":0",
      "\"round\":1,\"live\":28,\"sent\":0,\"delivered\":0,\"dropped\":0,"
      "\"duplicated\":0,\"crashed\":0,\"halted\":1");
  EXPECT_NE(text.find("\"halted\":1,\"bits\":0,\"max_bits\":0,\"arena\":0,"
                      "\"step_s\":0,\"commit_s\":0,\"scatter_s\":0,"
                      "\"path\":\"skip\""),
            std::string::npos);
  EXPECT_NE(validate(text).find("skipped round"), std::string::npos)
      << validate(text);
}

TEST(TraceValidator, RejectsNonPositivePhaseCount) {
  const std::string text =
      corrupted_golden("[\"offer\",3]", "[\"offer\",0]");
  EXPECT_NE(validate(text).find("phase"), std::string::npos)
      << validate(text);
}

TEST(TraceValidator, RejectsNonConsecutiveRounds) {
  const std::string text =
      corrupted_golden("\"round\":28", "\"round\":40");
  EXPECT_NE(validate(text), "");
}

TEST(TraceValidator, RejectsGarbageLine) {
  EXPECT_NE(validate(golden_jsonl() + "not json\n"), "");
}

/// The reader's diagnostic for `text` ("" when it parses).
std::string read_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)net::read_trace_jsonl(in);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceReader, RejectsVersion1Trace) {
  // A schema-1 trace, as the previous writer produced it.
  const std::string v1 =
      R"({"schema":"dflp-trace","version":1}
{"type":"section","id":0,"name":"mw-greedy","nodes":3,"edges":2,"threads":1,"seed":1,"bit_budget":36}
{"type":"round","sec":0,"round":0,"live":3,"sent":0,"delivered":0,"dropped":0,"duplicated":0,"crashed":0,"halted":3,"bits":0,"max_bits":0,"arena":0,"step_s":1e-06,"commit_s":1e-06,"scatter_s":1e-06,"shards":[[0,3,1e-06]],"phases":[]}
)";
  EXPECT_NE(read_error(v1).find("field 'version': schema version 1"),
            std::string::npos)
      << read_error(v1);
}

TEST(TraceReader, RejectsRoundWithoutPath) {
  const std::string text = corrupted_golden("\"path\":\"skip\",", "");
  EXPECT_NE(read_error(text).find("missing field 'path'"), std::string::npos)
      << read_error(text);
}

TEST(TraceReader, RejectsUnknownPath) {
  const std::string text =
      corrupted_golden("\"path\":\"push\"", "\"path\":\"scatter\"");
  EXPECT_NE(read_error(text).find("field 'path': expected push, pull or skip"),
            std::string::npos)
      << read_error(text);
}

TEST(TraceReader, EscapedSectionNameRoundTrips) {
  std::istringstream in(golden_jsonl());
  net::ParsedTrace trace = net::read_trace_jsonl(in);
  const std::string name = "q\"b\\s\nn\rr\tt\x01u";
  trace.sections[0].name = name;
  std::ostringstream out;
  net::write_trace_jsonl(trace, out);
  EXPECT_NE(out.str().find(R"("name":"q\"b\\s\nn\rr\tt\u0001u")"),
            std::string::npos)
      << out.str().substr(0, 200);
  std::istringstream back(out.str());
  EXPECT_EQ(net::read_trace_jsonl(back).sections[0].name, name);
}

TEST(TraceReader, RejectsEscapesTheWriterNeverEmits) {
  // \u0041 spells a printable character, and \q is no JSON escape.
  const std::string printable =
      corrupted_golden("\"name\":\"mw-greedy\"", R"("name":"mw\u0041greedy")");
  EXPECT_NE(read_error(printable).find(
                "trace line 2: escape \\u other than a control character"),
            std::string::npos)
      << read_error(printable);
  const std::string unknown =
      corrupted_golden("\"name\":\"mw-greedy\"", R"("name":"mw\qgreedy")");
  EXPECT_NE(read_error(unknown).find("trace line 2: unknown escape in string"),
            std::string::npos)
      << read_error(unknown);
}

TEST(TraceChromeExport, HasMetadataSlicesAndCounters) {
  net::Tracer tracer(/*capture_phases=*/true);
  traced_golden_run(tracer);
  std::ostringstream os;
  tracer.write_chrome(os);
  const std::string chrome = os.str();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u) << chrome.substr(0, 40);
  EXPECT_NE(chrome.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);  // slices
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(chrome.find("mw-greedy"), std::string::npos);
  EXPECT_NE(chrome.find("phase:offer"), std::string::npos);
  EXPECT_EQ(chrome.back(), '\n');
  EXPECT_EQ(chrome[chrome.size() - 2], '}');
}

TEST(TraceWriteFile, BothFormatsLandOnDisk) {
  net::Tracer tracer(/*capture_phases=*/true);
  traced_golden_run(tracer);
  const std::string dir = testing::TempDir();
  const std::string jsonl_path = dir + "/trace_test.jsonl";
  const std::string chrome_path = dir + "/trace_test.chrome.json";
  tracer.write_file(jsonl_path, net::TraceFormat::kJsonl);
  tracer.write_file(chrome_path, net::TraceFormat::kChrome);

  std::ifstream jsonl_in(jsonl_path);
  ASSERT_TRUE(jsonl_in.good());
  std::string why;
  EXPECT_TRUE(net::validate_trace_jsonl(jsonl_in, &why)) << why;

  std::ifstream chrome_in(chrome_path);
  ASSERT_TRUE(chrome_in.good());
  std::string first_line;
  std::getline(chrome_in, first_line);
  EXPECT_EQ(first_line.rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(TraceFormatNames, ParseAndPrintRoundTrip) {
  net::TraceFormat f = net::TraceFormat::kChrome;
  EXPECT_TRUE(net::parse_trace_format("jsonl", &f));
  EXPECT_EQ(f, net::TraceFormat::kJsonl);
  EXPECT_TRUE(net::parse_trace_format("chrome", &f));
  EXPECT_EQ(f, net::TraceFormat::kChrome);
  EXPECT_FALSE(net::parse_trace_format("perfetto", &f));
  EXPECT_EQ(net::trace_format_name(net::TraceFormat::kJsonl), "jsonl");
  EXPECT_EQ(net::trace_format_name(net::TraceFormat::kChrome), "chrome");
}

}  // namespace
}  // namespace dflp
