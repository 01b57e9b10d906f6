#!/usr/bin/env python3
"""Lists src/ code that only tests reach.

Builds the main tree and perfbench/'s tree without optimisation or
inlining, with debug info, every function and object in its own section,
and links every shipped binary with --gc-sections: dflp_cli, dflp_bench,
trace_check, trace_report, the four examples and perfbench_driver. It
also links dflp_tests. A `T`/`W` symbol in the `dflp::` namespace is src/
code when a src/ library defines it, or when dflp_tests defines it at a
source line under src/ (`nm -l`): a function defined in a src/ header (an
inline member, a template, a defaulted special member) is emitted
wherever it is called, so dflp_tests holds the ones that tests call. Such
a symbol that no binary keeps is reached by tests alone, or by nothing.
Inlining cannot hide a caller, because nothing is inlined. perfbench's
tree also defines NDEBUG and __OPTIMIZE__, since its driver compiles its
workloads only then.

Exits 1 when such a symbol is not in tools/test_only_allowlist.txt, and
when an allowlist entry no longer exists in src/ or a binary now reaches
it. Each allowlist line is one demangled symbol, then `# reason`.

A header function that nothing calls at all, tests included, emits no
symbol anywhere, so the audit cannot see it.

Run it from the repository root:

    python3 tools/test_only_audit.py

The trees go to build-audit/, built with one job per core; perfbench/ is
only read.
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "test_only_allowlist.txt"
BUILD_DIR = ROOT / "build-audit"
JOBS = os.cpu_count() or 1
FLAGS = "-O0 -fno-inline -g -ffunction-sections -fdata-sections"
# perfbench_driver compiles its workloads only in an optimised NDEBUG build
# (it refuses to time any other), so its tree also gets the two macros that
# such a build defines; without them it would keep no dflp:: code at all.
PERFBENCH_FLAGS = FLAGS + " -DNDEBUG -D__OPTIMIZE__"
MAIN_BINARIES = {
    "tools/dflp_cli": "dflp_cli",
    "bench/dflp_bench": "dflp_bench",
    "tools/trace_check": "trace_check",
    "tools/trace_report": "trace_report",
    "examples/quickstart": "quickstart",
    "examples/cdn_placement": "cdn_placement",
    "examples/sensor_coverage": "sensor_coverage",
    "examples/tradeoff_explorer": "tradeoff_explorer",
}


def src_libraries():
    """Maps each static library that a CMakeLists.txt under src/ declares
    (every add_library but an INTERFACE one) to its archive's path relative
    to the build tree."""
    libraries = {}
    for cmake in sorted((ROOT / "src").rglob("CMakeLists.txt")):
        for call in re.findall(r"add_library\(([^)]*)\)", cmake.read_text()):
            words = call.split()
            if "INTERFACE" not in words:
                libraries[words[0]] = (cmake.parent.relative_to(ROOT) /
                                       f"lib{words[0]}.a")
    return libraries


def build(source, build_dir, targets, flags=FLAGS):
    """Configures `source` into `build_dir` with `flags` and builds
    `targets`; the build's output goes to build_dir/audit.log."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "audit.log"
    with open(log_path, "w") as log:
        for step in (
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=None", f"-DCMAKE_CXX_FLAGS={flags}",
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
            ["cmake", "--build", str(build_dir), "-j", str(JOBS),
             "--target", *targets],
        ):
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.exit(f"test_only_audit: {' '.join(step)} failed; "
                         f"see {log_path}")


def defined(path, kinds, under=None):
    """Demangled names of the symbols of `kinds` that `path` defines; with
    `under`, only those whose source line (`nm -l`) lies in that
    directory."""
    command = ["nm", "--defined-only", "-C", str(path)]
    if under is not None:
        command.insert(1, "-l")
    out = subprocess.run(command, capture_output=True, text=True,
                         check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in kinds:
            continue
        name, _, source = parts[2].partition("\t")
        if under is None or pathlib.Path(source).is_relative_to(under):
            names.add(name)
    return names


def qualified_name(symbol):
    """`symbol` without the return type that a demangled template
    instantiation starts with, so that std:: code instantiated on a dflp::
    type is not read as dflp:: code."""
    text = symbol.replace("(anonymous namespace)", "(anonymous_namespace)")
    depth = 0
    start = 0
    for pos, c in enumerate(text):
        if c in "<(":
            if c == "(" and depth == 0:
                break
            depth += 1
        elif c in ">)":
            depth -= 1
        elif c == " " and depth == 0 and not text[:pos].endswith("operator"):
            start = pos + 1
    return symbol[start:]


def read_allowlist():
    """Maps each allowlisted symbol to its line number."""
    entries = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        symbol = line.split("#", 1)[0].strip()
        if not symbol:
            continue
        if "#" not in line:
            sys.exit(f"{ALLOWLIST.name}:{number}: '{symbol}' gives no "
                     "# reason")
        entries[symbol] = number
    return entries


def main():
    libraries = src_libraries()
    main_tree = BUILD_DIR / "main"
    bench_tree = BUILD_DIR / "perfbench"
    build(ROOT, main_tree,
          list(libraries) + list(MAIN_BINARIES.values()) + ["dflp_tests"])
    build(ROOT / "perfbench", bench_tree, ["perfbench_driver"],
          PERFBENCH_FLAGS)

    in_src = defined(main_tree / "tests" / "dflp_tests", "TW",
                     under=ROOT / "src")
    for archive in libraries.values():
        in_src |= defined(main_tree / archive, "TW")
    in_src = {s for s in in_src if qualified_name(s).startswith("dflp::")}
    kept = set()
    for path in [main_tree / p for p in MAIN_BINARIES] + \
            [bench_tree / "perfbench_driver"]:
        kept |= defined(path, "TWtw")

    unreached = in_src - kept
    allowed = read_allowlist()
    failures = 0
    for symbol in sorted(unreached - allowed.keys()):
        print(f"test-only: {symbol}")
        failures += 1
    for symbol, number in sorted(allowed.items(), key=lambda e: e[1]):
        if symbol not in in_src:
            print(f"{ALLOWLIST.name}:{number}: stale, src/ does not "
                  f"define {symbol}")
            failures += 1
        elif symbol in kept:
            print(f"{ALLOWLIST.name}:{number}: stale, a binary reaches "
                  f"{symbol}")
            failures += 1
    if failures:
        print(f"test_only_audit: {failures} finding(s); give each test-only "
              "symbol a user, move it into tests/ or delete it, or allowlist "
              f"it with a reason in {ALLOWLIST.relative_to(ROOT)}")
        return 1
    print(f"test_only_audit: {len(in_src)} dflp:: symbols in src/, "
          f"{len(unreached)} reached only by tests, all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
