#include "netsim/trace.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/check.h"

namespace dflp::net {

namespace {

/// The `path` values, indexed by TracePath.
constexpr std::array<std::string_view, 3> kPathNames = {"push", "pull",
                                                        "skip"};

/// JSON string escaping for the controlled identifiers we emit (section
/// names, phase labels). Handles the mandatory escapes; non-ASCII bytes
/// pass through untouched (JSON permits raw UTF-8).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Doubles are timings (seconds); 9 significant digits round-trip far below
/// clock resolution and keep lines compact.
void put_double(std::ostream& out, double v) {
  out << std::setprecision(9) << v;
}

void write_round_jsonl(std::ostream& out, const TraceRound& r) {
  out << "{\"type\":\"round\",\"sec\":" << r.section << ",\"round\":"
      << r.round << ",\"live\":" << r.live << ",\"sent\":" << r.sent
      << ",\"delivered\":" << r.delivered << ",\"dropped\":" << r.dropped
      << ",\"duplicated\":" << r.duplicated << ",\"crashed\":" << r.crashed
      << ",\"halted\":" << r.halted << ",\"bits\":" << r.bits
      << ",\"max_bits\":" << r.max_bits << ",\"arena\":" << r.arena
      << ",\"step_s\":";
  put_double(out, r.step_s);
  out << ",\"commit_s\":";
  put_double(out, r.commit_s);
  out << ",\"scatter_s\":";
  put_double(out, r.scatter_s);
  out << ",\"path\":\"" << trace_path_name(r.path) << "\",\"phases\":[";
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    out << (i ? "," : "") << "[\"" << json_escape(r.phases[i].first)
        << "\"," << r.phases[i].second << ']';
  }
  out << "]}\n";
}

void write_section_jsonl(std::ostream& out, std::size_t id,
                         const TraceSection& s) {
  out << "{\"type\":\"section\",\"id\":" << id << ",\"name\":\""
      << json_escape(s.name) << "\",\"nodes\":" << s.nodes << ",\"edges\":"
      << s.edges << ",\"seed\":" << s.seed
      << ",\"bit_budget\":" << s.bit_budget << "}\n";
}

/// The one JSONL writer behind Tracer::write_jsonl and write_trace_jsonl.
void write_jsonl_records(std::ostream& out,
                         const std::vector<TraceSection>& sections,
                         const std::vector<TraceRound>& rounds) {
  out << "{\"schema\":\"dflp-trace\",\"version\":" << kTraceSchemaVersion
      << "}\n";
  for (std::size_t i = 0; i < sections.size(); ++i)
    write_section_jsonl(out, i, sections[i]);
  for (const TraceRound& r : rounds) write_round_jsonl(out, r);
}

}  // namespace

bool parse_trace_format(std::string_view name, TraceFormat* out) noexcept {
  if (name == "jsonl") {
    *out = TraceFormat::kJsonl;
    return true;
  }
  if (name == "chrome") {
    *out = TraceFormat::kChrome;
    return true;
  }
  return false;
}

std::string_view trace_format_name(TraceFormat format) noexcept {
  return format == TraceFormat::kJsonl ? "jsonl" : "chrome";
}

std::string_view trace_path_name(TracePath path) noexcept {
  return kPathNames[static_cast<std::size_t>(path)];
}

void Tracer::begin_run(const TraceSection& info) {
  TraceSection next = info;
  next.name = next_section_;
  if (!sections_.empty()) {
    const TraceSection& last = sections_.back();
    // A resumed run() of the same execution continues the open section.
    if (last.name == next.name && last.nodes == next.nodes &&
        last.edges == next.edges && last.seed == next.seed &&
        last.bit_budget == next.bit_budget) {
      return;
    }
  }
  sections_.push_back(std::move(next));
}

void Tracer::on_round(TraceRound&& round) {
  DFLP_CHECK_MSG(!sections_.empty(), "Tracer::on_round before begin_run");
  round.section = sections_.size() - 1;
  rounds_.push_back(std::move(round));
}

void Tracer::write_jsonl(std::ostream& out) const {
  write_jsonl_records(out, sections_, rounds_);
}

void write_trace_jsonl(const ParsedTrace& trace, std::ostream& out) {
  write_jsonl_records(out, trace.sections, trace.rounds);
}

void normalize_trace(ParsedTrace* trace) {
  for (TraceRound& r : trace->rounds) {
    r.step_s = 0.0;
    r.commit_s = 0.0;
    r.scatter_s = 0.0;
  }
}

void Tracer::write_chrome(std::ostream& out) const {
  // Chrome trace_event "JSON object format": timestamps/durations are in
  // microseconds; slices nest by ts/dur containment per (pid, tid). We map
  // section -> pid and the serial engine timeline -> tid 0, and rebuild a
  // global clock by accumulating the recorded per-round phase durations.
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto event = [&](auto&& body) {
    if (!first) out << ',';
    first = false;
    out << "\n{";
    body();
    out << '}';
  };
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const TraceSection& s = sections_[i];
    event([&] {
      out << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << i
          << ",\"tid\":0,\"args\":{\"name\":\"dflp "
          << json_escape(s.name) << " (n=" << s.nodes << ", seed=" << s.seed
          << ")\"}";
    });
    event([&] {
      out << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << i
          << ",\"tid\":0,\"args\":{\"name\":\"engine\"}";
    });
  }
  const auto slice = [&](std::size_t pid, std::string_view name, double ts_us,
                         double dur_us) {
    event([&] {
      out << "\"name\":\"" << json_escape(name)
          << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":0,\"ts\":";
      put_double(out, ts_us);
      out << ",\"dur\":";
      put_double(out, dur_us);
    });
  };
  const auto counter = [&](std::size_t pid, std::string_view name,
                           double ts_us, std::uint64_t value) {
    event([&] {
      out << "\"name\":\"" << json_escape(name)
          << "\",\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"ts\":";
      put_double(out, ts_us);
      out << ",\"args\":{\"value\":" << value << '}';
    });
  };

  double clock_us = 0.0;
  for (const TraceRound& r : rounds_) {
    const std::size_t pid = r.section;
    const double step_us = r.step_s * 1e6;
    const double commit_us = r.commit_s * 1e6;
    const double scatter_us = r.scatter_s * 1e6;
    const double round_us = step_us + commit_us + scatter_us;
    std::ostringstream label;
    label << "round " << r.round;
    event([&] {
      out << "\"name\":\"" << label.str() << "\",\"ph\":\"X\",\"pid\":"
          << pid << ",\"tid\":0,\"ts\":";
      put_double(out, clock_us);
      out << ",\"dur\":";
      put_double(out, round_us);
      out << ",\"args\":{\"path\":\"" << trace_path_name(r.path)
          << "\",\"live\":" << r.live << ",\"sent\":" << r.sent
          << ",\"delivered\":" << r.delivered << ",\"dropped\":" << r.dropped
          << ",\"bits\":" << r.bits << '}';
    });
    slice(pid, "step", clock_us, step_us);
    slice(pid, "commit", clock_us + step_us, commit_us);
    slice(pid, "scatter", clock_us + step_us + commit_us, scatter_us);
    counter(pid, "live nodes", clock_us, r.live);
    counter(pid, "in-flight messages", clock_us, r.arena);
    counter(pid, "messages delivered", clock_us, r.delivered);
    if (r.dropped > 0) counter(pid, "messages dropped", clock_us, r.dropped);
    for (const auto& [phase, count] : r.phases)
      counter(pid, std::string("phase:") + phase, clock_us, count);
    clock_us += round_us;
  }
  out << "\n]}\n";
}

void Tracer::write_file(const std::string& path, TraceFormat format) const {
  std::ofstream out(path);
  DFLP_CHECK_MSG(out.good(), "cannot open trace output '" << path << "'");
  if (format == TraceFormat::kJsonl) {
    write_jsonl(out);
  } else {
    write_chrome(out);
  }
  out.flush();
  DFLP_CHECK_MSG(out.good(), "failed writing trace output '" << path << "'");
}

// ---------------------------------------------------------------------------
// Reading side: a line-oriented reader for exactly the writer above.

namespace {

[[noreturn]] void parse_fail(int lineno, const std::string& why) {
  std::ostringstream os;
  os << "trace line " << lineno << ": " << why;
  throw CheckError(os.str());
}

[[noreturn]] void field_fail(int lineno, std::string_view field,
                             const std::string& why) {
  std::ostringstream os;
  os << "trace line " << lineno << ", field '" << field << "': " << why;
  throw CheckError(os.str());
}

/// Parses the numeric token at `*at` — everything up to the next ',', '}'
/// or ']', which must exist — whole, as a T: no sign on unsigned types, no
/// value outside T's range, only finite doubles. Leaves *at on the
/// terminator.
template <typename T>
T parse_number(const std::string& line, std::size_t* at, int lineno,
               std::string_view field) {
  const std::size_t end =
      *at < line.size() ? line.find_first_of(",}]", *at) : std::string::npos;
  if (end == std::string::npos) field_fail(lineno, field, "unterminated number");
  const char* first = line.data() + *at;
  const char* last = line.data() + end;
  T value{};
  const auto [ptr, ec] = std::from_chars(first, last, value);
  bool ok = first != last && ec == std::errc() && ptr == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const std::string token(first, std::min<std::size_t>(end - *at, 32));
    field_fail(lineno, field,
               std::string(std::is_floating_point_v<T> ? "expected a finite number"
                           : std::is_signed_v<T>       ? "expected an integer"
                                                       : "expected an unsigned integer") +
                   " in range, got '" + token + "'");
  }
  *at = end;
  return value;
}

/// Position of the first character after `"key":`, npos when absent.
std::size_t value_pos(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

/// The value of numeric field `key`, parsed whole as a T.
template <typename T>
T get_number(const std::string& line, const std::string& key, int lineno) {
  std::size_t at = value_pos(line, key);
  if (at == std::string::npos) parse_fail(lineno, "missing field '" + key + "'");
  return parse_number<T>(line, &at, lineno, key);
}

std::uint64_t get_u64(const std::string& line, const std::string& key,
                      int lineno) {
  return get_number<std::uint64_t>(line, key, lineno);
}

int get_int(const std::string& line, const std::string& key, int lineno) {
  return get_number<int>(line, key, lineno);
}

double get_double(const std::string& line, const std::string& key,
                  int lineno) {
  return get_number<double>(line, key, lineno);
}

bool is_hex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

/// Parses the quoted string starting at `at` (which must point at '"'),
/// un-escaping exactly the writer's escapes (\" \\ \n \r \t, and \u00XX for
/// the other control characters); anything else, including a raw control
/// character, is rejected. Advances *end past the closing quote.
std::string parse_quoted(const std::string& line, std::size_t at, int lineno,
                         std::size_t* end = nullptr) {
  if (at >= line.size() || line[at] != '"')
    parse_fail(lineno, "expected string");
  std::string out;
  std::size_t i = at + 1;
  while (i < line.size() && line[i] != '"') {
    const auto c = static_cast<unsigned char>(line[i]);
    if (c < 0x20) parse_fail(lineno, "raw control character in string");
    if (c != '\\') {
      out += line[i++];
      continue;
    }
    if (++i >= line.size()) break;
    switch (line[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= line.size() || line[i + 1] != '0' || line[i + 2] != '0' ||
            !is_hex(line[i + 3]) || !is_hex(line[i + 4]) || line[i + 3] > '1')
          parse_fail(lineno, "escape \\u other than a control character");
        const auto hex = [](char h) {
          return h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10;
        };
        out += static_cast<char>(16 * hex(line[i + 3]) + hex(line[i + 4]));
        i += 4;
        break;
      }
      default:
        parse_fail(lineno, "unknown escape in string");
    }
    ++i;
  }
  if (i >= line.size()) parse_fail(lineno, "unterminated string");
  if (end != nullptr) *end = i + 1;
  return out;
}

std::string get_string(const std::string& line, const std::string& key,
                       int lineno) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string::npos) parse_fail(lineno, "missing field '" + key + "'");
  return parse_quoted(line, at, lineno);
}

TraceRound parse_round(const std::string& line, int lineno) {
  TraceRound r;
  r.section = get_u64(line, "sec", lineno);
  r.round = get_u64(line, "round", lineno);
  r.live = get_u64(line, "live", lineno);
  r.sent = get_u64(line, "sent", lineno);
  r.delivered = get_u64(line, "delivered", lineno);
  r.dropped = get_u64(line, "dropped", lineno);
  r.duplicated = get_u64(line, "duplicated", lineno);
  r.crashed = get_u64(line, "crashed", lineno);
  r.halted = get_u64(line, "halted", lineno);
  r.bits = get_u64(line, "bits", lineno);
  r.max_bits = get_int(line, "max_bits", lineno);
  r.arena = get_u64(line, "arena", lineno);
  r.step_s = get_double(line, "step_s", lineno);
  r.commit_s = get_double(line, "commit_s", lineno);
  r.scatter_s = get_double(line, "scatter_s", lineno);
  const std::string path = get_string(line, "path", lineno);
  const auto known = std::find(kPathNames.begin(), kPathNames.end(), path);
  if (known == kPathNames.end())
    field_fail(lineno, "path",
               "expected push, pull or skip, got '" + path + "'");
  r.path = static_cast<TracePath>(known - kPathNames.begin());

  std::size_t at = value_pos(line, "phases");
  if (at == std::string::npos) parse_fail(lineno, "missing field 'phases'");
  if (line[at] != '[') parse_fail(lineno, "'phases' is not an array");
  ++at;
  while (at < line.size() && line[at] != ']') {
    if (line[at] == ',') { ++at; continue; }
    if (line[at] != '[') parse_fail(lineno, "malformed phase entry");
    std::size_t after = 0;
    std::string label = parse_quoted(line, at + 1, lineno, &after);
    if (after >= line.size() || line[after] != ',')
      parse_fail(lineno, "malformed phase entry");
    at = after + 1;
    const auto count = parse_number<std::uint64_t>(line, &at, lineno, "phases");
    if (line[at] != ']') parse_fail(lineno, "malformed phase entry");
    r.phases.emplace_back(std::move(label), count);
    ++at;
  }
  if (at >= line.size()) parse_fail(lineno, "unterminated 'phases' array");
  return r;
}

}  // namespace

ParsedTrace read_trace_jsonl(std::istream& in) {
  ParsedTrace trace;
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line.find("\"schema\":\"dflp-trace\"") == std::string::npos)
        parse_fail(lineno, "first line is not a dflp-trace header");
      trace.version = get_int(line, "version", lineno);
      if (trace.version != kTraceSchemaVersion) {
        field_fail(lineno, "version",
                   "schema version " + std::to_string(trace.version) +
                       " != expected " + std::to_string(kTraceSchemaVersion));
      }
      saw_header = true;
      continue;
    }
    const std::string type = get_string(line, "type", lineno);
    if (type == "section") {
      const std::uint64_t id = get_u64(line, "id", lineno);
      if (id != trace.sections.size())
        parse_fail(lineno, "section ids must be dense and in order");
      TraceSection s;
      s.name = get_string(line, "name", lineno);
      s.nodes = get_u64(line, "nodes", lineno);
      s.edges = get_u64(line, "edges", lineno);
      s.seed = get_u64(line, "seed", lineno);
      s.bit_budget = get_int(line, "bit_budget", lineno);
      trace.sections.push_back(std::move(s));
    } else if (type == "round") {
      trace.rounds.push_back(parse_round(line, lineno));
    } else {
      parse_fail(lineno, "unknown record type '" + type + "'");
    }
  }
  if (!saw_header) throw CheckError("trace: empty input (no header line)");
  return trace;
}

bool validate_trace_jsonl(std::istream& in, std::string* why) {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  ParsedTrace trace;
  try {
    trace = read_trace_jsonl(in);
  } catch (const CheckError& e) {
    return fail(e.what());
  }
  std::vector<std::uint64_t> last_round(trace.sections.size(), 0);
  std::vector<bool> seen(trace.sections.size(), false);
  for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
    const TraceRound& r = trace.rounds[i];
    std::ostringstream os;
    os << "round record " << i << " (round " << r.round << "): ";
    if (r.section >= trace.sections.size()) {
      os << "section " << r.section << " out of range";
      return fail(os.str());
    }
    if (seen[r.section] && r.round != last_round[r.section] + 1) {
      os << "rounds of section " << r.section
         << " must be consecutive; previous was " << last_round[r.section];
      return fail(os.str());
    }
    seen[r.section] = true;
    last_round[r.section] = r.round;
    if (r.delivered != r.sent - r.dropped + r.duplicated) {
      os << "counter identity violated: delivered (" << r.delivered
         << ") != sent (" << r.sent << ") - dropped (" << r.dropped
         << ") + duplicated (" << r.duplicated << ")";
      return fail(os.str());
    }
    if (r.live == 0 && r.sent > 0) {
      os << "messages staged with no live nodes";
      return fail(os.str());
    }
    const bool counted = (r.sent | r.delivered | r.dropped | r.duplicated |
                          r.crashed | r.halted | r.bits | r.arena) != 0 ||
                         r.max_bits != 0;
    if (r.path == TracePath::kSkip && counted) {
      os << "a skipped round must have zero counters";
      return fail(os.str());
    }
    for (const auto& [label, count] : r.phases) {
      if (label.empty() || count == 0) {
        os << "phase entries need a label and a positive count";
        return fail(os.str());
      }
    }
  }
  if (why != nullptr) why->clear();
  return true;
}

}  // namespace dflp::net
