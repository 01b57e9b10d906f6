// Plain-text (de)serialization of UFL instances: the `.ufl` format.
//
// Format (whitespace separated):
//   dflp-ufl 1
//   <m> <n> <E>
//   <f_0> ... <f_{m-1}>
//   <i> <j> <c>     (E edge lines: facility, client, connection cost)
//
// The format is line-oriented and diff-friendly so pathological inputs
// found by tests can be checked in as fixtures.
//
// Reading. Fields are separated by any C-locale whitespace (space, tab,
// CR, LF, VT, FF), so CRLF files read the same; line breaks are not
// significant. Integers are decimal with an optional '+' or '-'; costs are
// decimal or scientific (`12`, `0.5`, `.5`, `2.`, `1e-3`) with an optional
// '+', and must be finite and non-negative: `nan`, `inf`, `-1` and
// magnitudes that overflow or underflow a double are rejected. Counts and
// dense ids must fit the int32 id range ([1, 2^31-1] for m and n, [0, m) /
// [0, n) for ids, E >= n); a count the rest of the input is too short to
// hold is rejected before anything is allocated for it. The reader
// consumes its stream to EOF and rejects anything but whitespace after the
// last field. Every malformed
// field throws dflp::CheckError as
//   line <L>, field <F> (<field name>): <what was wrong>
// e.g. `line 7, field 3 (connection cost): 'nan' is not a finite
// non-negative number`, with F counting the fields on line L from 1. An
// edge that repeats an earlier one is reported at its facility id, naming
// the earlier edge's line: `line 6, field 1 (facility id): edge (0, 0)
// repeats line 4`. A client without edges, which no one line holds,
// throws from InstanceBuilder::build().
#pragma once

#include <iosfwd>
#include <string>

#include "fl/instance.h"

namespace dflp::fl {

/// Writes `inst` in the dflp-ufl v1 format.
void write_instance(std::ostream& os, const Instance& inst);

/// Convenience: render to a string.
[[nodiscard]] std::string to_text(const Instance& inst);

/// Parses a dflp-ufl v1 stream, reading it to EOF. Throws
/// dflp::CheckError on malformed input.
[[nodiscard]] Instance read_instance(std::istream& is);

}  // namespace dflp::fl
