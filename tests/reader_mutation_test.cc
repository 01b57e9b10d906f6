// Seeded mutation test of the `.ufl` reader and of the JSONL trace reader.
// Every truncation, byte flip or splice of a serialized text must either
// parse to an object that re-serializes and re-parses to the same text, or
// throw CheckError. Any other exception (std::bad_alloc, std::length_error,
// ...) fails the test; crashes, hangs and sanitizer reports fail the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fl/serialize.h"
#include "netsim/trace.h"
#include "respell.h"
#include "workload/generators.h"

namespace dflp::fl {
namespace {

/// Parses a `.ufl` text through read_instance and renders it back.
std::string reserialize_ufl(const std::string& text) {
  return to_text(parse_ufl(text));
}

enum class Mutation { kTruncate, kFlip, kSplice };

/// `text` with one seeded mutation; splices copy from `donor`.
std::string mutate(const std::string& text, const std::string& donor,
                   Mutation kind, Rng& rng) {
  std::string out = text;
  switch (kind) {
    case Mutation::kTruncate:
      out.resize(rng.uniform_u64(out.size() + 1));
      break;
    case Mutation::kFlip: {
      // Half the flips draw from bytes that form or split tokens, so
      // mutants get past the first field often.
      static constexpr char kTokenBytes[] = "0123456789+-.eE \n\t\rnaif";
      const auto flips = 1 + rng.uniform_u64(4);
      for (std::uint64_t k = 0; k < flips; ++k) {
        const auto at = rng.uniform_u64(out.size());
        out[at] = rng.uniform_u64(2) == 0
                      ? kTokenBytes[rng.uniform_u64(sizeof kTokenBytes - 1)]
                      : static_cast<char>(rng.uniform_u64(256));
      }
      break;
    }
    case Mutation::kSplice: {
      const auto at = rng.uniform_u64(out.size() + 1);
      const auto cut = rng.uniform_u64(std::min<std::size_t>(
                           out.size() - at, 64) + 1);
      const auto from = rng.uniform_u64(donor.size());
      const auto len = rng.uniform_u64(std::min<std::size_t>(
                           donor.size() - from, 64) + 1);
      out.replace(at, cut, donor, from, len);
      break;
    }
  }
  return out;
}

void run_campaign(Mutation kind, std::uint64_t seed) {
  constexpr int kMutantsPerText = 400;
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  const std::vector<workload::Family> families = {
      workload::Family::kUniform, workload::Family::kEuclidean,
      workload::Family::kPowerLaw, workload::Family::kGreedyTight,
      workload::Family::kStar};
  std::vector<std::string> texts;
  for (const workload::Family family : families)
    texts.push_back(to_text(workload::make_family_instance(family, 16, 5)));
  for (std::size_t f = 0; f < texts.size(); ++f) {
    SCOPED_TRACE(workload::family_name(families[f]));
    ASSERT_EQ(reserialize_ufl(texts[f]), texts[f]);
    for (int t = 0; t < kMutantsPerText; ++t) {
      // Splice donors cycle through the other families' texts.
      const std::string mutant =
          mutate(texts[f], texts[(f + t) % texts.size()], kind, rng);
      std::string once;
      try {
        once = reserialize_ufl(mutant);
      } catch (const CheckError&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-CheckError exception: " << e.what()
                      << "\nmutant:\n" << mutant;
        continue;
      }
      ++parsed;
      EXPECT_EQ(reserialize_ufl(once), once) << "mutant:\n" << mutant;
    }
  }
  // Both outcomes occur, so the campaign reaches past the headers.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReaderMutation, Truncations) {
  run_campaign(Mutation::kTruncate, 0x7E1A7C0DEULL);
}

TEST(ReaderMutation, ByteFlips) { run_campaign(Mutation::kFlip, 0xF11B5ULL); }

TEST(ReaderMutation, Splices) { run_campaign(Mutation::kSplice, 0x5B11CEULL); }

// ---- The JSONL trace reader (netsim/trace.h) -------------------------------

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(DFLP_GOLDENS_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The committed traces, whose bytes are write_trace_jsonl's own output.
const std::vector<std::string>& golden_traces() {
  static const std::vector<std::string> all = {
      read_golden("trace_mw_greedy_uniform40_k4_s1.jsonl"),
      read_golden("trace_mw_pipeline_uniform40_k4_s1.jsonl")};
  return all;
}

std::string reserialize_trace(const std::string& text) {
  std::istringstream in(text);
  const net::ParsedTrace trace = net::read_trace_jsonl(in);
  std::ostringstream out;
  net::write_trace_jsonl(trace, out);
  return out.str();
}

void run_trace_campaign(Mutation kind, std::uint64_t seed) {
  constexpr int kMutantsPerTrace = 1500;
  Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  const std::vector<std::string>& traces = golden_traces();
  for (std::size_t f = 0; f < traces.size(); ++f) {
    ASSERT_FALSE(traces[f].empty()) << "golden trace " << f << " not found";
    ASSERT_EQ(reserialize_trace(traces[f]), traces[f]);
    for (int t = 0; t < kMutantsPerTrace; ++t) {
      const std::string mutant =
          mutate(traces[f], traces[(f + t) % traces.size()], kind, rng);
      std::string once;
      try {
        once = reserialize_trace(mutant);
      } catch (const CheckError&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-CheckError exception: " << e.what()
                      << "\nmutant:\n" << mutant;
        continue;
      }
      ++parsed;
      EXPECT_EQ(reserialize_trace(once), once) << "mutant:\n" << mutant;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReaderMutation, TraceTruncations) {
  run_trace_campaign(Mutation::kTruncate, 0x7EACE7ULL);
}

TEST(ReaderMutation, TraceByteFlips) {
  run_trace_campaign(Mutation::kFlip, 0x7EACEF11ULL);
}

TEST(ReaderMutation, TraceSplices) {
  run_trace_campaign(Mutation::kSplice, 0x7EAC5B11ULL);
}

/// The golden mw-greedy trace with `from` replaced by `to` in its first
/// round record (line 3).
std::string golden_with_round_field(const std::string& from,
                                    const std::string& to) {
  std::string text = golden_traces()[0];
  const std::size_t line3 = text.find("{\"type\":\"round\"");
  const std::size_t at = text.find(from, line3);
  EXPECT_NE(at, std::string::npos);
  EXPECT_LT(at, text.find('\n', line3));
  return text.replace(at, from.size(), to);
}

void expect_trace_rejected(const std::string& text, const std::string& where) {
  std::istringstream in(text);
  try {
    (void)net::read_trace_jsonl(in);
    FAIL() << "accepted a malformed number; expected '" << where << "'";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << "actual: " << e.what();
  }
}

TEST(ReaderMutation, TraceRejectsSignOnUnsignedField) {
  // Read through strtoull, "-5" wrapped to 18446744073709551611.
  expect_trace_rejected(golden_with_round_field("\"bits\":0", "\"bits\":-5"),
                        "trace line 3, field 'bits'");
}

TEST(ReaderMutation, TraceRejectsNonNumericField) {
  // Read through strtoull, "zz" parsed as 0.
  expect_trace_rejected(golden_with_round_field("\"sent\":0", "\"sent\":zz"),
                        "trace line 3, field 'sent'");
}

}  // namespace
}  // namespace dflp::fl
