// Seeded mutation test of the four fl text readers (dflp-ufl, dflp-snap,
// dflp-ftfp, dflp-delta-log). Every truncation, byte flip or splice of a
// serialized text must either parse to an object that re-serializes and
// re-parses to the same text, or throw CheckError. Any other exception
// (std::bad_alloc, std::length_error, ...) fails the test; crashes, hangs and
// sanitizer reports fail the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fl/delta.h"
#include "fl/ftfp.h"
#include "fl/serialize.h"
#include "workload/generators.h"

namespace dflp::fl {
namespace {

struct Format {
  const char* name;
  /// Parses a text and renders the result back.
  std::function<std::string(const std::string&)> reserialize;
};

const std::vector<Format>& formats() {
  static const std::vector<Format> all = {
      {"dflp-ufl", [](const std::string& t) { return to_text(from_text(t)); }},
      {"dflp-snap",
       [](const std::string& t) {
         return snapshot_to_text(snapshot_from_text(t));
       }},
      {"dflp-ftfp",
       [](const std::string& t) { return ftfp_to_text(ftfp_from_text(t)); }},
      {"dflp-delta-log",
       [](const std::string& t) {
         return delta_log_to_text(delta_log_from_text(t));
       }},
  };
  return all;
}

/// One valid text per format, in formats() order, derived from `inst`: the
/// instance, its snapshot after a log with every delta kind, the instance
/// with requirement 2, and that log.
std::vector<std::string> texts_for(const Instance& inst) {
  const InstanceSnapshot snap = InstanceSnapshot::initial(inst);
  const NodeKey c = snap.next_client_key();
  const NodeKey f = snap.next_facility_key();
  DeltaLog log;
  log.append(Delta::client_arrive(c, {{0, 1.5}}));
  log.append(Delta::facility_open(f, 7.25, {{0, 0.5}, {c, 2.0}}));
  log.append(Delta::facility_open(f + 1, 3.0, {{c, 1.0}}));
  log.append(Delta::facility_close(f + 1));
  log.append(Delta::edge_cost_change(0, c, 3.0));
  log.append(Delta::client_depart(1));
  return {to_text(inst), snapshot_to_text(apply(snap, log)),
          ftfp_to_text(with_uniform_requirement(inst, 2)),
          delta_log_to_text(log)};
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
  for (const workload::Family family :
       {workload::Family::kUniform, workload::Family::kEuclidean,
        workload::Family::kPowerLaw, workload::Family::kGreedyTight,
        workload::Family::kStar}) {
    const std::vector<std::string> texts =
        texts_for(workload::make_family_instance(family, 16, 5));
    for (std::size_t f = 0; f < formats().size(); ++f) {
      const Format& format = formats()[f];
      SCOPED_TRACE(workload::family_name(family) + " " + format.name);
      ASSERT_EQ(format.reserialize(texts[f]), texts[f]);
      for (int t = 0; t < kMutantsPerText; ++t) {
        // Splice donors cycle through all four formats.
        const std::string mutant =
            mutate(texts[f], texts[(f + t) % texts.size()], kind, rng);
        std::string once;
        try {
          once = format.reserialize(mutant);
        } catch (const CheckError&) {
          ++rejected;
          continue;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "non-CheckError exception: " << e.what()
                        << "\nmutant:\n" << mutant;
          continue;
        }
        ++parsed;
        EXPECT_EQ(format.reserialize(once), once) << "mutant:\n" << mutant;
      }
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

}  // namespace
}  // namespace dflp::fl
