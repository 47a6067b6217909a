#!/usr/bin/env python3
"""Project concurrency/style contract checker (no toolchain required).

The third static-analysis layer, below clang's thread-safety pass and
clang-tidy: a handful of repo-specific rules that neither tool expresses.
Runs on any machine with python3 — CI runs it in the clang-analysis job,
and it is fast enough for a pre-commit hook.

Rules (see docs/CONCURRENCY.md for rationale):

  R1  thread-ownership   std::thread may only be constructed in the
                         designated thread owners: serve/thread_pool,
                         net/event_loop, net/server — plus tests, benches
                         and examples. (std::thread::id and
                         std::this_thread are fine anywhere: identity, not
                         ownership.)
  R2  no-stdout          Library code (src/) never writes to stdout:
                         no std::cout / printf / puts. Diagnostics go to
                         stderr (fprintf(stderr, ...)). Exemption:
                         net/serve_main.cpp, the CLI entry point.
  R3  include-guards     Every header under src/ carries #pragma once.
  R4  raii-locking       No bare .lock()/.unlock() calls in src/ outside
                         serve/thread_annotations.hpp — critical sections
                         use MutexLock (RAII) so early returns and
                         exceptions cannot leak a held lock.
  R5  annotated-mutexes  src/ declares no raw std::mutex /
                         std::condition_variable outside
                         serve/thread_annotations.hpp (use the annotated
                         Mutex/CondVar wrappers), and every `Mutex xxx_;`
                         member's file must contain at least one
                         GUARDED_BY(xxx_) — an unannotated mutex guards
                         nothing the analyzer can see.
  R6  nolint-justified   Every NOLINT / NOLINTNEXTLINE names the check it
                         silences and carries a `: reason` justification;
                         blanket NOLINTBEGIN regions are banned.
  R7  page-pinning       src/ code outside the allocator never binds a raw
                         Page&/Page* from anything but a pin: with the
                         tiered store a page's storage can be demoted the
                         moment no PagePin covers it, so every local
                         `Page& p = ...` must come from `.page()` on a
                         PagePin/PageWritePin, and no struct stores a
                         Page pointer/reference member. (Page parameters
                         are fine — the caller's pin covers the callee.)
  R8  uncalled           Every function a src/ header declares is used:
                         its name appears somewhere in src/, tests/,
                         bench/, examples/ or servebench/ other than at a
                         declaration or definition (comments and string
                         literals do not count). A function nobody calls
                         is dead code — delete it. Constructors,
                         operators and ALL_CAPS macros are not checked.
  R9  test-only          Every function a src/ header declares is used
                         outside tests/: in src/, bench/, examples/ or
                         servebench/. A function only tests call is not
                         product code — delete it or move it into tests/.
                         TEST_ONLY_ALLOWED names the exceptions (oracles,
                         test hooks, paper baselines, allocator
                         introspection), each with its reason; an entry
                         that no longer applies is itself a violation.

Exit codes: 0 clean, 1 violations (one `path:line: rule: message` per
finding).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# R1: files allowed to construct std::thread.
THREAD_OWNERS = (
    "src/serve/thread_pool.",
    "src/net/event_loop.",
    "src/net/server.",   # owns the loop + scheduler serving threads
    "src/kv/page_allocator.",  # owns the tier prefetch thread
    "tests/",
    "bench/",
    "examples/",
)

# R7: the allocator and the page itself are the pin mechanism.
PAGE_PIN_EXEMPT = (
    "src/kv/page_allocator.",
    "src/kv/page.",
)

# R2: the CLI binary may print to stdout.
STDOUT_EXEMPT = ("src/net/serve_main.cpp",)

# R4/R5: the annotated wrapper layer itself touches the raw primitives.
WRAPPER = "src/serve/thread_annotations.hpp"

RE_STD_THREAD = re.compile(r"std::thread\b(?!::id)")
RE_STDOUT = re.compile(r"std::cout\b|\bprintf\s*\(|\bputs\s*\(")
RE_BARE_LOCK = re.compile(r"\.\s*(?:un)?lock\s*\(\s*\)")
RE_RAW_MUTEX = re.compile(r"std::mutex\b|std::condition_variable\b")
RE_MUTEX_MEMBER = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*;")
RE_NOLINT = re.compile(r"NOLINT(NEXTLINE)?(BEGIN|END)?(\([^)]*\))?(:)?")
# R7: a local Page reference/pointer binding (`Page& p = ...`) and a Page
# pointer/reference member (`Page* p_;`). Parameter lists don't match:
# they have no `=` initializer and no trailing `;` on the declarator.
RE_PAGE_BINDING = re.compile(
    r"\b(?:kv::)?Page\s*[&*]\s*\w+\s*=\s*(?P<init>[^;]*)")
RE_PAGE_MEMBER = re.compile(r"^\s*(?:const\s+)?(?:kv::)?Page\s*[&*]\s*\w+\s*;")


# R8: trees searched for a use of each function a src/ header declares.
USE_TREES = ("src", "tests", "bench", "examples", "servebench")
TEST_TREE = "tests"

# R9: functions that src/ keeps although only tests/ call them, each with
# its reason. Names are matched like R8's, by identifier.
TEST_ONLY_ALLOWED = {
    "dense_paged_decode":
        "oracle: the scalar dense decode the paged walk is checked against",
    "readout_logits":
        "oracle: the full logits of one hidden row, against which tests "
        "check readout_argmax",
    "update":
        "oracle: KStats::update, the float min/max fold that "
        "update_quantized must equal bit for bit",
    "set_ns": "test hook: FakeClock sets the injected time",
    "advance_ns": "test hook: FakeClock advances the injected time",
    "audit_pinned_pages":
        "test hook: the LSERVE_AUDIT pin-leak count at quiescence points",
    "set_head_kinds":
        "test hook: pins the dense/streaming head partition that "
        "calibration would otherwise choose",
    "drain": "test hook: runs an in-process Scheduler to completion",
    "running":
        "test hook: the Scheduler's admitted count between steps (the "
        "server reads it from the lserve_sequences_running gauge)",
    "waiting":
        "test hook: the Scheduler's queued count between steps (the "
        "server reads it from the lserve_sequences_waiting gauge)",
    "qserve_config": "paper baseline: QServe, run by baseline_matrix_test",
    "duo_attention_config":
        "paper baseline: DuoAttention, run by baseline_matrix_test",
    "quest_config": "paper baseline: Quest, run by baseline_matrix_test",
    "minference_config":
        "paper baseline: MInference, run by baseline_matrix_test",
    "free_pages": "allocator introspection: pages on the free list",
    "peak_pages_in_use": "allocator introspection: the pool's high-water mark",
    "bytes_in_use": "allocator introspection: cold-tier bytes held",
    "slots_in_use": "allocator introspection: cold-tier slots held",
}
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")
RE_IDENT = re.compile(r"[A-Za-z_]\w*")
RE_TYPE_NAME = re.compile(r"\b(?:class|struct|union|enum|using)\s+(\w+)")
# Words that can stand before a call but are never a return type.
NOT_A_TYPE = frozenset((
    "return", "else", "throw", "case", "new", "delete", "co_return",
    "co_yield", "co_await", "do", "goto", "explicit", "operator", "not",
    "and", "or", "sizeof", "alignof", "typeid", "decltype", "noexcept"))
KEYWORDS = NOT_A_TYPE | frozenset((
    "if", "for", "while", "switch", "catch", "static_assert", "alignas",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "defined", "void", "bool", "char", "int", "long", "short", "float",
    "double", "unsigned", "signed", "auto", "requires", "template",
    "typename", "const", "volatile", "override", "final", "main"))


def strip_code(text: str) -> str:
    """Whole-file variant for R8: blanks // and /* */ comments, string
    literals (raw ones too) and char literals, keeping newlines so line
    numbers survive. A ' after a digit is a digit separator, not a quote."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif text.startswith('R"', i) and (i == 0 or not (
                text[i - 1].isalnum() or text[i - 1] == "_")):
            paren = text.find("(", i + 2)
            close = ")" + text[i + 2:paren] + '"'
            end = text.find(close, paren)
            end = n if end < 0 else end + len(close)
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"' or (c == "'" and (i == 0 or not (
                text[i - 1].isalnum() or text[i - 1] == "_"))):
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def is_declaration(code: str, start: int) -> bool:
    """True when the name starting at code[start] stands where a function
    declaration or definition puts it: behind a return type (a word, `>`,
    `*` or `&`), optionally through a `Class::` qualifier. Member access
    (`.`, `->`) and every operator or punctuation before it mean a use."""
    k = start
    while True:
        while k > 0 and code[k - 1].isspace():
            k -= 1
        if code[k - 2:k] != "::":
            break
        k -= 2
        while k > 0 and code[k - 1].isspace():
            k -= 1
        while k > 0 and (code[k - 1].isalnum() or code[k - 1] == "_"):
            k -= 1
    if k == 0:
        return False
    if code[k - 2:k] in ("->", "&&"):
        return False
    if code[k - 1] in "*&":
        # `T* f(` declares; a space before the `*` or `&` marks a binary
        # operator (`x * ns::f(`): pointer and reference types are written
        # without one.
        return not code[k - 2].isspace()
    if code[k - 1] == ">":
        return True
    word_end = k
    while k > 0 and (code[k - 1].isalnum() or code[k - 1] == "_"):
        k -= 1
    return word_end > k and code[k:word_end] not in NOT_A_TYPE


def next_char(code: str, pos: int) -> str:
    while pos < len(code) and code[pos].isspace():
        pos += 1
    return code[pos] if pos < len(code) else ""


def check_usage(findings: list[str]) -> None:
    """R8 and R9: functions declared in src/ headers that nothing calls,
    and those that only tests/ call."""
    files: dict[str, str] = {}
    for root in USE_TREES:
        base = REPO / root
        if base.is_dir():
            for path in sorted(base.rglob("*")):
                if path.suffix in SOURCE_SUFFIXES:
                    text = path.read_text(encoding="utf-8", errors="replace")
                    files[path.relative_to(REPO).as_posix()] = \
                        strip_code(text)
    type_names = {m.group(1) for code in files.values()
                  for m in RE_TYPE_NAME.finditer(code)}

    def declared(code: str, m: re.Match[str]) -> bool:
        return next_char(code, m.end()) == "(" and \
            is_declaration(code, m.start())

    candidates: dict[str, list[str]] = {}
    for rel, code in files.items():
        if not (rel.startswith("src/") and rel.endswith(".hpp")):
            continue
        # Macro bodies declare nothing (blanked, newlines kept).
        code = re.sub(r"(?m)^[ \t]*#.*(?:\\\n.*)*$",
                      lambda m: "\n" * m.group(0).count("\n"), code)
        for m in RE_IDENT.finditer(code):
            name = m.group(0)
            if name in KEYWORDS or name in type_names or \
                    name.isupper() or not declared(code, m):
                continue
            line = code.count("\n", 0, m.start()) + 1
            candidates.setdefault(name, []).append(f"{rel}:{line}")

    used_in: dict[str, set[str]] = {}
    for rel, code in files.items():
        tree = rel.split("/", 1)[0]
        for m in RE_IDENT.finditer(code):
            name = m.group(0)
            if name in candidates and \
                    tree not in used_in.get(name, ()) and \
                    not declared(code, m):
                used_in.setdefault(name, set()).add(tree)
    for name in sorted(candidates):
        trees = used_in.get(name, set())
        for site in candidates[name]:
            if not trees:
                findings.append(
                    f"{site}: uncalled: '{name}' is declared but never used "
                    f"in {', '.join(USE_TREES)} (delete it)")
            elif trees == {TEST_TREE} and name not in TEST_ONLY_ALLOWED:
                findings.append(
                    f"{site}: test-only: '{name}' is used only in "
                    f"{TEST_TREE}/ (delete it or move it into {TEST_TREE}/; "
                    "an oracle or test hook goes on TEST_ONLY_ALLOWED with "
                    "its reason)")
    for name, reason in TEST_ONLY_ALLOWED.items():
        if not reason.strip():
            findings.append(
                f"scripts/check_contract.py: test-only: allowlist entry "
                f"'{name}' states no reason")
        if used_in.get(name) != {TEST_TREE}:
            findings.append(
                f"scripts/check_contract.py: test-only: allowlist entry "
                f"'{name}' is stale: no src/ header declares a function of "
                f"that name that only {TEST_TREE}/ uses (remove the entry)")


def strip_comments_and_strings(line: str) -> str:
    """Crude but sufficient: drop // comments and string literal bodies."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return re.sub(r"//.*$", "", line)


def check_file(path: Path, findings: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()

    in_src = rel.startswith("src/")

    # R3: headers must have an include guard.
    if in_src and rel.endswith(".hpp") and "#pragma once" not in text:
        findings.append(f"{rel}:1: include-guards: header lacks #pragma once")

    mutex_members: list[tuple[int, str]] = []

    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments_and_strings(raw)

        # R1: std::thread ownership.
        if RE_STD_THREAD.search(code) and "std::this_thread" not in code:
            if not any(rel.startswith(p) or p in rel for p in THREAD_OWNERS):
                findings.append(
                    f"{rel}:{lineno}: thread-ownership: std::thread outside "
                    "thread_pool/event_loop/server (wrap work in ThreadPool "
                    "or post it to the EventLoop)")

        if in_src:
            # R2: no stdout in library code.
            if rel not in STDOUT_EXEMPT and RE_STDOUT.search(code):
                findings.append(
                    f"{rel}:{lineno}: no-stdout: library code writes to "
                    "stdout (use fprintf(stderr, ...) for diagnostics)")

            if rel != WRAPPER:
                # R4: RAII-only locking.
                if RE_BARE_LOCK.search(code):
                    findings.append(
                        f"{rel}:{lineno}: raii-locking: bare "
                        ".lock()/.unlock() (use MutexLock)")
                # R5a: no raw mutex/cv outside the wrapper.
                if RE_RAW_MUTEX.search(code):
                    findings.append(
                        f"{rel}:{lineno}: annotated-mutexes: raw std::mutex/"
                        "std::condition_variable (use lserve::Mutex/CondVar "
                        "from serve/thread_annotations.hpp)")

            m = RE_MUTEX_MEMBER.match(code)
            if m:
                mutex_members.append((lineno, m.group(1)))

            # R7: raw Page retention must flow through a pin.
            if not any(rel.startswith(p) for p in PAGE_PIN_EXEMPT):
                pb = RE_PAGE_BINDING.search(code)
                if pb and ".page()" not in pb.group("init") and \
                        "->page()" not in pb.group("init"):
                    findings.append(
                        f"{rel}:{lineno}: page-pinning: raw Page&/Page* "
                        "bound outside a pin scope (hold a PagePin/"
                        "PageWritePin and bind from .page())")
                if RE_PAGE_MEMBER.match(code):
                    findings.append(
                        f"{rel}:{lineno}: page-pinning: Page pointer/"
                        "reference stored as a member (store a PageId; pin "
                        "at the point of use)")

        # R6: NOLINT must be targeted and justified (checked in raw line —
        # NOLINT lives in comments).
        for nl in RE_NOLINT.finditer(raw):
            if nl.group(2) == "END":
                continue  # closers need no second justification
            if nl.group(2) == "BEGIN":
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: blanket NOLINTBEGIN "
                    "region (silence single lines, with a reason)")
                continue
            checks, colon = nl.group(3), nl.group(4)
            rest = raw[nl.end():].strip()
            if not checks or checks == "()":
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: NOLINT without a "
                    "named check (write NOLINT(check-name): reason)")
            elif not colon or not rest:
                findings.append(
                    f"{rel}:{lineno}: nolint-justified: NOLINT without a "
                    "justification (write NOLINT(check-name): reason)")

    # R5b: every annotated-Mutex member must guard something in this file.
    for lineno, name in mutex_members:
        if f"GUARDED_BY({name})" not in text and \
           f"REQUIRES({name})" not in text:
            findings.append(
                f"{rel}:{lineno}: annotated-mutexes: Mutex member '{name}' "
                f"has no GUARDED_BY({name}) field in this file — an "
                "unannotated mutex guards nothing the analyzer can see")


def main() -> int:
    roots = ["src", "tests", "bench", "examples"]
    findings: list[str] = []
    n_files = 0
    for root in roots:
        base = REPO / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            n_files += 1
            check_file(path, findings)
    check_usage(findings)

    for f in findings:
        print(f)
    print(f"check_contract: {n_files} files, {len(findings)} violation(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
