#!/usr/bin/env python3
"""Banned-construct lint for the Aeetes library (DESIGN.md §12).

The codebase makes a handful of global promises that ordinary compiler
warnings do not enforce. This script greps for the constructs that would
silently break them, with comments and string literals stripped so prose
mentioning `throw` does not trip the gate:

  throw            the library never throws; fallible paths return Status.
  dynamic_cast     no RTTI-dependent dispatch (and -fno-rtti stays viable).
  std::regex       throws, allocates unpredictably, and is slower than the
                   hand-rolled scanners this library exists to provide.
  rand()           hidden global state; all randomness flows through
                   seeded std::mt19937* so runs are reproducible.
  naked new/delete ownership must be visible: unique_ptr (including the
                   private-constructor `unique_ptr<T>(new T(...))` idiom)
                   or an allowlisted arena/slot owner.
  std::unordered_map under src/core/   the hot path uses FlatMap /
                   perfect-layout arenas; node-based maps there are
                   regressions (other layers may use it deliberately).
  <iostream> in library code           iostream's static initializers and
                   sync guarantees belong in one place: the log sink.
  AEETES_NO_THREAD_SAFETY_ANALYSIS     the TSA gate runs with zero
                   suppressions; an escape hatch use is a finding.
  steady_clock::now()   all timing flows through Stopwatch / ScopedTimer
                   so latency lands in the metrics histograms (and the
                   telemetry windows built on them) instead of ad-hoc
                   clock math scattered through the library.
  const_cast<TokenDictionary   a frozen dictionary is shared read-only by
                   every thread of an engine; writing through a cast-away
                   const would reintroduce the races read-only document
                   encoding removed.

Every exemption is an explicit (rule, path) pair in ALLOWLIST with a
reason — adding one is a reviewed decision, not a regex accident.

Exit status: 0 clean, 1 findings (one per line: path:line: rule: text).
"""

import os
import re
import sys

SRC_DIRS = ["src"]

# (rule, path) -> reason. Paths are repo-relative.
ALLOWLIST = {
    ("new-delete", "src/runtime/thread_pool.cc"):
        "Chase-Lev deque slots are plain atomic Task*; the pool is the "
        "owner and new/delete are its acquire/release sites",
    ("new-delete", "src/common/arena.h"):
        "AlignedBuffer is the aligned-allocation owner; ::operator "
        "new[]/delete[] with align_val_t has no smart-pointer spelling",
    ("new-delete", "src/core/delta_layer.cc"):
        "DeltaLayer's constructor is private so every instance goes "
        "through Create's validation; make_shared cannot reach it, and "
        "the raw new is handed to shared_ptr on the same line",
    ("iostream", "src/common/logging.h"):
        "the log sink itself; every other file must log through it",
    ("steady-clock", "src/common/stopwatch.h"):
        "the one clock-read site; Stopwatch wraps steady_clock for "
        "everything else",
}

BANNED_SIMPLE = [
    ("throw", re.compile(r"\bthrow\b")),
    ("dynamic-cast", re.compile(r"\bdynamic_cast\b")),
    ("std-regex", re.compile(r"\bstd::regex\b|#include\s*<regex>")),
    ("rand", re.compile(r"\brand\s*\(\s*\)|\bsrand\s*\(")),
    ("tsa-suppression", re.compile(r"\bAEETES_NO_THREAD_SAFETY_ANALYSIS\b")),
    ("steady-clock", re.compile(r"\bsteady_clock\s*::\s*now\s*\(")),
    ("const-cast-dict",
     re.compile(r"\bconst_cast\s*<\s*(?:aeetes\s*::\s*)?TokenDictionary\b")),
]

NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (` = placement/op-new decl
DELETE_RE = re.compile(r"\bdelete\b")
UNORDERED_MAP_RE = re.compile(r"\bstd::unordered_map\b")
IOSTREAM_RE = re.compile(r"#include\s*<iostream>")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail to be safe
                    break
                i += 1
            i += 1
            out.append(quote + quote)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def is_allowed(rule: str, path: str) -> bool:
    return (rule, path) in ALLOWLIST


def check_new_delete(path, lines, findings):
    for lineno, line in enumerate(lines, 1):
        for m in NEW_RE.finditer(line):
            # Permit the private-constructor idiom unique_ptr<T>(new T(...));
            # the unique_ptr< may sit on this line or, after clang-format
            # wraps at the open paren, on the previous one.
            context = (lines[lineno - 2] if lineno >= 2 else "") \
                + line[:m.start()]
            if "unique_ptr<" in context or "make_unique" in context:
                continue
            findings.append((path, lineno, "new-delete", line.strip()))
        for m in DELETE_RE.finditer(line):
            before = line[:m.start()].rstrip()
            if before.endswith("="):  # deleted special member function
                continue
            findings.append((path, lineno, "new-delete", line.strip()))


def lint_file(path: str):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    stripped = strip_comments_and_strings(raw)
    lines = stripped.split("\n")
    findings = []

    for rule, pattern in BANNED_SIMPLE:
        if rule == "tsa-suppression" and path.endswith(
                "src/common/thread_annotations.h"):
            continue  # the definition site
        for lineno, line in enumerate(lines, 1):
            if pattern.search(line):
                findings.append((path, lineno, rule, line.strip()))

    if path.startswith("src/core/"):
        for lineno, line in enumerate(lines, 1):
            if UNORDERED_MAP_RE.search(line):
                findings.append(
                    (path, lineno, "unordered-map-in-core", line.strip()))

    for lineno, line in enumerate(lines, 1):
        if IOSTREAM_RE.search(line):
            findings.append((path, lineno, "iostream", line.strip()))

    check_new_delete(path, lines, findings)

    return [(p, n, rule, text) for (p, n, rule, text) in findings
            if not is_allowed(rule, p)]


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    findings = []
    for src_dir in SRC_DIRS:
        for root, _dirs, files in os.walk(src_dir):
            for name in sorted(files):
                if name.endswith((".h", ".cc")):
                    findings.extend(lint_file(os.path.join(root, name)))
    for path, lineno, rule, text in findings:
        print(f"{path}:{lineno}: {rule}: {text}")
    if findings:
        print(f"\n{len(findings)} banned-construct finding(s). Either fix "
              "them or add an explicit (rule, path) allowlist entry with a "
              "reason in tools/lint.py.", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
