// Round-level structured tracing for the CONGEST simulator.
//
// Motivation
// ----------
// The engine's NetMetrics are end-of-run aggregates: they say *how much* a
// run cost, never *where inside the run* the rounds, messages, or bits
// went. The Tracer records one structured record per round — wall
// time split into the engine's step/commit/scatter phases, live-node and
// message counters, the CONGEST bit bill, and the arena occupancy — plus
// optional per-node *phase annotations*
// (`NodeContext::annotate`) that let a protocol mark algorithm phases like
// "offer", "accept", or "open" so a trace can be folded per algorithm
// phase, not just per engine phase.
//
// Cost contract
// -------------
// Tracing is a pure observation layer:
//   * Disabled (Options::tracer == nullptr, the default) it costs one
//     pointer test per round — nothing measurable; `bench/bench_trace.cc`
//     pins this at 0%.
//   * Enabled it adds a few steady_clock reads and one record append per
//     round — < 3% round throughput on the storm@1e5 transport benchmark
//     (EXPERIMENTS.md E12).
//   * It draws no randomness and never touches message, fault, or RNG
//     state, so a traced run is bit-identical in solution and metrics to
//     the untraced run (tests/engine_equivalence_test.cc pins this).
//
// Output formats
// --------------
// Two exporters, both documented in docs/trace-schema.md:
//   * newline-delimited JSON (`write_jsonl`) — the stable, versioned schema
//     (kTraceSchemaVersion); one self-contained JSON object per line.
//     `read_trace_jsonl` / `validate_trace_jsonl` parse and check it (used
//     by tools/trace_report, tools/trace_check, and the tests).
//   * Chrome trace_event JSON (`write_chrome`) — loadable directly in
//     chrome://tracing or https://ui.perfetto.dev: rounds and engine phases
//     as duration slices, live nodes / in-flight messages / per-phase
//     annotation counts as counter tracks.
//
// The engine (Network::run) produces the records. A Tracer instance
// belongs to one Network execution at a time, which hands it one record
// per round; it is not thread-safe.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dflp::net {

/// Version of the JSONL schema (the `"version"` field of the header line).
/// Bump on any backwards-incompatible field change and update
/// docs/trace-schema.md in the same commit.
inline constexpr int kTraceSchemaVersion = 2;

/// On-disk export formats.
enum class TraceFormat : std::uint8_t {
  kJsonl,   ///< newline-delimited JSON, one record per line (stable schema)
  kChrome,  ///< Chrome trace_event JSON for chrome://tracing / Perfetto
};

/// Parses "jsonl" / "chrome"; returns false on anything else.
[[nodiscard]] bool parse_trace_format(std::string_view name,
                                      TraceFormat* out) noexcept;
[[nodiscard]] std::string_view trace_format_name(TraceFormat format) noexcept;

/// How a round's messages reached their receivers (netsim/network.h,
/// "Pull rounds"), or that the round was skipped.
enum class TracePath : std::uint8_t {
  kPush,  ///< executed; the commit scattered copies into slots (or sent none)
  kPull,  ///< executed; the commit noted each broadcaster for its receivers
  kSkip,  ///< skipped: every live node slept and nothing was in flight
};

/// "push" / "pull" / "skip", as written in the JSONL `path` field.
[[nodiscard]] std::string_view trace_path_name(TracePath path) noexcept;

/// One round, skipped or executed. All counters are round-local (not
/// cumulative); a skipped round (netsim/network.h, sleeping nodes) has zero
/// counters and zero durations.
struct TraceRound {
  std::uint64_t round = 0;       ///< engine round number (resume-global)
  std::uint64_t live = 0;        ///< non-halted nodes, sleepers included
  std::uint64_t sent = 0;        ///< messages staged by the step phase
  std::uint64_t delivered = 0;   ///< survivors delivered to next round
  std::uint64_t dropped = 0;     ///< losses charged by fault injection
  std::uint64_t duplicated = 0;  ///< extra copies from fault injection
  std::uint64_t crashed = 0;     ///< nodes crash-stopped at round start
  std::uint64_t halted = 0;      ///< voluntary halts applied this round
  std::uint64_t bits = 0;        ///< CONGEST bits of delivered messages
  int max_bits = 0;              ///< largest delivered message this round
  std::uint64_t arena = 0;       ///< arena occupancy after the commit
  /// Wall seconds of the step phase: inbox gather (materializing Messages
  /// from the SoA arena), delivery ordering, and the protocol code itself.
  double step_s = 0.0;
  /// Wall seconds of the commit's tally/merge + layout passes (per-log
  /// aggregate merge or the hazard coin walk, then slice prefix-sum).
  double commit_s = 0.0;
  /// Wall seconds of the commit's slot scatter. In a pull round
  /// (netsim/network.h) there is no scatter, and it covers only noting
  /// each broadcaster's record in the pull column.
  double scatter_s = 0.0;
  TracePath path = TracePath::kPush;
  /// Per-node phase annotations aggregated for this round: (phase label,
  /// number of nodes that marked it), sorted by label. Empty unless the
  /// tracer was built with capture_phases.
  std::vector<std::pair<std::string, std::uint64_t>> phases;

  /// Section index into Tracer::sections() — which network execution this
  /// round belongs to (e.g. pipeline stage 1 vs stage 2).
  std::size_t section = 0;
};

/// Static facts about one network execution ("section") of the trace: a
/// multi-stage runner (core::run_pipeline) contributes one section per
/// stage, each with its own round numbering.
struct TraceSection {
  std::string name;  ///< runner-chosen label, default "run"
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t seed = 0;
  int bit_budget = 0;
};

class Tracer {
 public:
  /// `capture_phases` additionally records NodeContext::annotate marks
  /// (slightly more work per annotating node; counters stay exact either
  /// way).
  explicit Tracer(bool capture_phases = false)
      : capture_phases_(capture_phases) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool capture_phases() const noexcept {
    return capture_phases_;
  }

  /// Labels the *next* section. Runners call this before Network::run; a
  /// resumed run() of the same network reuses the open section.
  void set_section(std::string_view name) { next_section_.assign(name); }

  /// Called by Network::run on entry. Opens a new section when the label or
  /// the network changed; a resumed run() on the same network continues the
  /// open section.
  void begin_run(const TraceSection& info);

  /// Called by Network::run once per round, skipped rounds included
  /// (serial commit path).
  void on_round(TraceRound&& round);

  [[nodiscard]] const std::vector<TraceSection>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] const std::vector<TraceRound>& rounds() const noexcept {
    return rounds_;
  }

  /// Newline-delimited JSON in the versioned schema (docs/trace-schema.md).
  void write_jsonl(std::ostream& out) const;
  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  void write_chrome(std::ostream& out) const;
  /// Writes `format` to `path`, throwing CheckError if the file cannot be
  /// opened.
  void write_file(const std::string& path, TraceFormat format) const;

 private:
  bool capture_phases_;
  std::string next_section_ = "run";
  std::vector<TraceSection> sections_;
  std::vector<TraceRound> rounds_;
};

// ---------------------------------------------------------------------------
// Reading side (tools/trace_report, tools/trace_check, tests).

/// A parsed JSONL trace: the header fields plus the same section/round
/// structures the Tracer recorded.
struct ParsedTrace {
  int version = 0;
  std::vector<TraceSection> sections;
  std::vector<TraceRound> rounds;
};

/// Parses a JSONL trace produced by `write_jsonl`. Throws CheckError with a
/// line number and reason on malformed input, including a header whose
/// version is not kTraceSchemaVersion. (This is a reader for the writer
/// above, not a general JSON parser.)
[[nodiscard]] ParsedTrace read_trace_jsonl(std::istream& in);

/// Validates `in` against the documented schema: header first, known record
/// types, required fields, version match, consecutive per-section round
/// numbers, the counter identity delivered == sent - dropped + duplicated,
/// and zero counters in a skipped round. Returns true when valid; otherwise
/// false with a reason in `*why`.
[[nodiscard]] bool validate_trace_jsonl(std::istream& in, std::string* why);

/// Re-emits a parsed trace in the same versioned JSONL schema that
/// `Tracer::write_jsonl` produces (the round trip read -> write is
/// byte-stable). Used by `trace_check --normalize` to print canonical
/// traces for CI regression diffs.
void write_trace_jsonl(const ParsedTrace& trace, std::ostream& out);

/// Strips everything machine- or run-speed-dependent from a trace, in
/// place, leaving only the deterministic round shape: the wall timings
/// (step_s/commit_s/scatter_s) are zeroed. Two runs of the same solve at
/// the same seed normalize to byte-identical JSONL, which is what the
/// committed goldens under tests/goldens/ and the TraceRegression.* ctest
/// cases diff against.
void normalize_trace(ParsedTrace* trace);

}  // namespace dflp::net
