// Plain-text (de)serialization of UFL instances, snapshots and delta logs.
//
// Instance format (whitespace separated):
//   dflp-ufl 1
//   <m> <n> <E>
//   <f_0> ... <f_{m-1}>
//   <i> <j> <c>     (E edge lines: facility, client, connection cost)
//
// Snapshot format wraps an instance with its epoch and stable-key maps:
//   dflp-snap 1
//   <epoch> <next_facility_key> <next_client_key>
//   <embedded dflp-ufl 1 block>
//   <m facility keys, ascending>
//   <n client keys, ascending>
//
// Delta-log format, one delta per line after the count:
//   dflp-delta-log 1
//   <count>
//   arrive <client_key> <deg> (<facility_key> <cost>)*
//   depart <client_key>
//   open <facility_key> <opening_cost> <deg> (<client_key> <cost>)*
//   close <facility_key>
//   reprice <facility_key> <client_key> <new_cost>
//
// All formats are line-oriented and diff-friendly so pathological inputs
// found by tests can be checked in as fixtures.
//
// Reading. Fields are separated by any C-locale whitespace (space, tab,
// CR, LF, VT, FF), so CRLF files read the same; line breaks are not
// significant. Integers are decimal with an optional '+' or '-'; costs are
// decimal or scientific (`12`, `0.5`, `.5`, `2.`, `1e-3`) with an optional
// '+', and must be finite and non-negative: `nan`, `inf`, `-1` and
// magnitudes that overflow or underflow a double are rejected. Counts and
// dense ids must fit the int32 id range ([1, 2^31-1] for m and n, [0, m) /
// [0, n) for ids, E >= n) and keys must be non-negative int64; a count the
// rest of the input is too short to hold is rejected before anything is
// allocated for it. The istream readers consume their stream to EOF and
// reject anything but whitespace after the last field. Every malformed
// field throws dflp::CheckError as
//   line <L>, field <F> (<field name>): <what was wrong>
// e.g. `line 7, field 3 (connection cost): 'nan' is not a finite
// non-negative number`, with F counting the fields on line L from 1.
// Whole-instance violations (duplicate edges, uncovered clients, a total
// cost that overflows) throw from InstanceBuilder::build().
#pragma once

#include <iosfwd>
#include <string>

#include "fl/delta.h"
#include "fl/instance.h"

namespace dflp::fl {

/// Writes `inst` in the dflp-ufl v1 format.
void write_instance(std::ostream& os, const Instance& inst);

/// Convenience: render to a string.
[[nodiscard]] std::string to_text(const Instance& inst);

/// Parses a dflp-ufl v1 stream, reading it to EOF. Throws
/// dflp::CheckError on malformed input.
[[nodiscard]] Instance read_instance(std::istream& is);

/// Convenience: parse from a string.
[[nodiscard]] Instance from_text(const std::string& text);

/// Writes `snap` in the dflp-snap v1 format (embeds the instance).
void write_snapshot(std::ostream& os, const InstanceSnapshot& snap);
[[nodiscard]] std::string snapshot_to_text(const InstanceSnapshot& snap);

/// Parses a dflp-snap v1 stream, reading it to EOF; throws
/// dflp::CheckError on malformed input or broken key invariants.
[[nodiscard]] InstanceSnapshot read_snapshot(std::istream& is);
[[nodiscard]] InstanceSnapshot snapshot_from_text(const std::string& text);

/// Writes `log` in the dflp-delta-log v1 format.
void write_delta_log(std::ostream& os, const DeltaLog& log);
[[nodiscard]] std::string delta_log_to_text(const DeltaLog& log);

/// Parses a dflp-delta-log v1 stream, reading it to EOF; throws
/// dflp::CheckError on malformed input.
[[nodiscard]] DeltaLog read_delta_log(std::istream& is);
[[nodiscard]] DeltaLog delta_log_from_text(const std::string& text);

}  // namespace dflp::fl
