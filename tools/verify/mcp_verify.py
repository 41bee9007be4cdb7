#!/usr/bin/env python3
"""mcp-verify — the repo's concurrency & determinism static analyzer.

Part of the checked-build analysis matrix (DESIGN.md section 10).  Generic
tools (clang-tidy, -Wthread-safety) check generic properties; mcp-verify
enforces the *repo-specific* invariants behind the bit-identical-results
guarantee, plus the four original project lint rules (the CI `lint` job
runs those four with --rules rng,builtin,hot-path,console, so the rule
sets cannot drift apart).

Rules (exemptions and scopes live in tools/verify/rules.toml — an
exemption is checked-in data reviewed like code, not a lint tweak):

  rng             no rand() / std::random_device outside core/rng.hpp.
  builtin         no __builtin_* where C++20 <bit> has the portable form.
  hot-path        no std::function / naked new in engine hot paths.
  console         no console writes under src/ outside src/lab.
  unordered-iter  no iteration over unordered_map/unordered_set in files
                  on the declared emission/merge/serialization paths
                  (offline merge, checkpoint writer, wire encode, lab
                  JSONL) — hash iteration order feeding a merge or an
                  output stream silently breaks bit-identical results.
  wall-clock      no wall-clock reads (chrono::system_clock, time(),
                  gettimeofday, localtime, CLOCK_REALTIME) outside
                  src/lab and declared stats-timing sites — wall time in
                  an engine is nondeterminism by construction.
                  steady_clock and thread-CPU clocks are fine.
  atomic-order    every std::atomic load/store/RMW/wait in src/service and
                  src/core/thread_pool.* names an explicit memory_order —
                  a defaulted seq_cst is almost always an unexamined
                  ordering claim; make the claim visible.
  alloc-guard     registry-driven AllocGuard coverage: every declared hot
                  kernel still arms its guard in src/ and is exercised by
                  the declared test (the sentry proves the hot path stays
                  allocation-free only for kernels that actually run under
                  a guard somewhere in the suite).

Backends: libclang (python clang bindings) when importable AND a usable
library is found, else a tokenizer backend (string/comment-stripping +
bracket matching) with identical rule semantics.  Mirrors
scripts/run_clang_tidy.sh's graceful-degrade convention: absence of LLVM
tooling weakens precision, never skips enforcement.

Usage:
  tools/verify/mcp_verify.py                 # all rules, tracked tree
  tools/verify/mcp_verify.py FILES...        # all rules, specific files
  tools/verify/mcp_verify.py --rules rng,console [FILES...]
  tools/verify/mcp_verify.py --selftest      # fixture corpus assertions
  tools/verify/mcp_verify.py --list-rules
"""
from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys
import tomllib

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
DEFAULT_RULES_FILE = pathlib.Path(__file__).resolve().parent / "rules.toml"

LINT_SUFFIXES = {".hpp", ".cpp"}
LINT_ROOTS = ("src", "tests", "bench", "examples")
# The fixture corpus is data, not code: it exists to *fail* rules.
FIXTURE_PREFIX = "tests/lint/"

ALL_RULES = ("rng", "builtin", "hot-path", "console", "unordered-iter",
             "wall-clock", "atomic-order", "alloc-guard")

# --- text preprocessing ------------------------------------------------------

RE_LINE_COMMENT = re.compile(r"//.*$", re.MULTILINE)
RE_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
RE_CHAR = re.compile(r"'(?:[^'\\]|\\.)'")
RE_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_noise(text: str) -> str:
    """Blanks comments, string and char literals, preserving line structure
    so offsets still map to the original line numbers."""

    def blank(match: re.Match[str]) -> str:
        return "".join("\n" if c == "\n" else " " for c in match.group(0))

    text = RE_BLOCK_COMMENT.sub(blank, text)
    text = RE_LINE_COMMENT.sub(blank, text)
    text = RE_STRING.sub('""', text)
    text = RE_CHAR.sub("''", text)
    return text


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_angle(text: str, open_pos: int) -> int:
    """Returns the offset just past the `>` matching the `<` at open_pos,
    or -1 when unbalanced (template-vs-comparison ambiguity is a non-issue
    in the type positions this is applied to)."""
    depth = 0
    i = open_pos
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
        i += 1
    return -1


RE_IDENT = re.compile(r"[A-Za-z_]\w*")


def next_token(text: str, pos: int) -> tuple[str, int]:
    """(token, offset) of the next lexical token at/after pos ('' at EOF)."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        return "", pos
    m = RE_IDENT.match(text, pos)
    if m:
        return m.group(0), pos
    return text[pos], pos


def declared_names(text: str, type_pattern: re.Pattern[str],
                   aliases: set[str] | None = None) -> set[str]:
    """Names of variables/members declared with a type matching
    `type_pattern` (template argument lists bracket-matched, declarations
    may span lines), plus declarations via the given alias names."""
    names: set[str] = set()
    for m in type_pattern.finditer(text):
        pos = m.end()
        token, tpos = next_token(text, pos)
        if token == "<":
            pos = match_angle(text, tpos)
            if pos < 0:
                continue
            token, tpos = next_token(text, pos)
        # Skip ref/pointer declarators; stop on scope/member uses.
        while token in ("&", "*", "const"):
            token, tpos = next_token(text, tpos + len(token))
        if token == ":" or token == "(" or not RE_IDENT.fullmatch(token):
            continue  # `unordered_map<...>::iterator`, casts, etc.
        names.add(token)
    for alias in aliases or ():
        for m in re.finditer(
                rf"\b{re.escape(alias)}\b(?:\s*[&*])*\s+([A-Za-z_]\w*)",
                text):
            names.add(m.group(1))
    return names


def collect_aliases(text: str, type_pattern: re.Pattern[str]) -> set[str]:
    """using X = ...matching-type...;  /  typedef ...matching-type... X;"""
    aliases: set[str] = set()
    for m in re.finditer(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]*);", text):
        if type_pattern.search(m.group(2)):
            aliases.add(m.group(1))
    for m in re.finditer(r"\btypedef\s+([^;]*)\s([A-Za-z_]\w*)\s*;", text):
        if type_pattern.search(m.group(1)):
            aliases.add(m.group(2))
    return aliases


# --- backends ----------------------------------------------------------------


def libclang_available() -> bool:
    try:
        import clang.cindex  # type: ignore
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def libclang_unordered_iter_hits(path: pathlib.Path) -> list[int] | None:
    """AST-precise range-for detection: lines with a CXXForRangeStmt whose
    range type names an unordered container.  None on any parse problem
    (caller falls back to the tokenizer)."""
    try:
        import clang.cindex as ci  # type: ignore
        tu = ci.Index.create().parse(
            str(path), args=["-std=c++20", f"-I{REPO / 'src'}"])
        hits: list[int] = []

        def visit(node: "ci.Cursor") -> None:
            if node.kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(node.get_children())
                if children and "unordered_" in (
                        children[0].type.get_canonical().spelling):
                    hits.append(node.location.line)
            for child in node.get_children():
                if child.location.file and \
                        child.location.file.name == str(path):
                    visit(child)

        visit(tu.cursor)
        return hits
    except Exception:
        return None


# --- the rules ---------------------------------------------------------------

RE_RAND = re.compile(r"\b(?:std::)?random_device\b|(?<![\w:])rand\s*\(\s*\)")
RE_BUILTIN = re.compile(
    r"__builtin_(?:popcount(?:ll?)?|clz(?:ll?)?|ctz(?:ll?)?|"
    r"bswap(?:16|32|64)|rotateleft|rotateright)\b")
RE_STD_FUNCTION = re.compile(r"\bstd::function\s*<")
RE_NAKED_NEW = re.compile(r"(?<![\w:])new\s+[\w:(<]")
RE_OPERATOR_NEW = re.compile(r"operator\s+new")
RE_CONSOLE = re.compile(
    r"#\s*include\s*<iostream>|\bstd::(?:cout|cerr|clog)\b|"
    r"(?<![\w:])(?:fprintf|printf|puts|fputs)\s*\(")

RE_UNORDERED_TYPE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set)\b")
RE_RANGE_FOR = re.compile(r"\bfor\s*\(([^;()]*?):([^;]*?)\)", re.DOTALL)
# Only begin()/cbegin() mark the start of an iteration; a lone end() is the
# ubiquitous (and order-safe) `it != m.end()` find-idiom comparison.
RE_ITER_CALL = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\(")
RE_TRAILING_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")

RE_WALL_CLOCK = re.compile(
    r"\bsystem_clock\b|(?<![\w:])time\s*\(|\bgettimeofday\b|"
    r"\blocaltime\b|\bgmtime\b|\bmktime\b|(?<![\w:])clock\s*\(\s*\)|"
    r"\bCLOCK_REALTIME\b")

RE_ATOMIC_TYPE = re.compile(r"\bstd\s*::\s*atomic\b")
ATOMIC_ORDERED_METHODS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "wait|compare_exchange_weak|compare_exchange_strong|test_and_set|clear")
RE_ATOMIC_CALL = re.compile(
    rf"([A-Za-z_]\w*)\s*(?:\.|->)\s*({ATOMIC_ORDERED_METHODS})\s*(\()")
RE_HAS_ORDER = re.compile(r"\bmemory_order")  # memory_order_relaxed etc.


class RuleConfig:
    """One rule's scope + exemptions, resolved from rules.toml."""

    def __init__(self, table: dict):
        self.exempt: set[str] = set(table.get("exempt", []))
        self.exempt_patterns = [re.compile(p)
                                for p in table.get("exempt-patterns", [])]
        self.paths: set[str] = set(table.get("paths", []))
        self.path_prefixes: tuple[str, ...] = tuple(
            table.get("path-prefixes", []))
        self.allowed_prefixes: tuple[str, ...] = tuple(
            table.get("allowed-prefixes", []))
        self.identifier_exempt: set[tuple[str, str]] = {
            (e["file"], e["identifier"])
            for e in table.get("identifier-exempt", [])}
        self.kernels: list[dict] = table.get("kernel", [])

    def file_exempt(self, rel: str) -> bool:
        return rel in self.exempt or any(p.match(rel)
                                         for p in self.exempt_patterns)

    def in_scope(self, rel: str) -> bool:
        return rel in self.paths or rel.startswith(self.path_prefixes or ())


class Violation:
    def __init__(self, rel: str, line: int, rule: str, msg: str):
        self.rel, self.line, self.rule, self.msg = rel, line, rule, msg

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.msg}"


def check_rng(rel: str, text: str, cfg: RuleConfig) -> list[Violation]:
    if cfg.file_exempt(rel):
        return []
    return [Violation(rel, line_of(text, m.start()), "rng",
                      "rand()/std::random_device outside core/rng.hpp "
                      "(use the seed-stable mcp::Rng streams)")
            for m in RE_RAND.finditer(text)]


def check_builtin(rel: str, text: str, cfg: RuleConfig) -> list[Violation]:
    if cfg.file_exempt(rel):
        return []
    return [Violation(rel, line_of(text, m.start()), "builtin",
                      "__builtin_* intrinsic; use the <bit> equivalent "
                      "(std::popcount, std::countr_zero, ...)")
            for m in RE_BUILTIN.finditer(text)]


def check_hot_path(rel: str, text: str, cfg: RuleConfig) -> list[Violation]:
    if not cfg.in_scope(rel) or cfg.file_exempt(rel):
        return []
    out = []
    for m in RE_STD_FUNCTION.finditer(text):
        out.append(Violation(rel, line_of(text, m.start()), "hot-path",
                             "std::function in an engine hot path; use a "
                             "template sink or a concrete callable"))
    for m in RE_NAKED_NEW.finditer(text):
        line_start = text.rfind("\n", 0, m.start()) + 1
        line_end = text.find("\n", m.start())
        line = text[line_start:line_end if line_end >= 0 else len(text)]
        if not RE_OPERATOR_NEW.search(line):
            out.append(Violation(rel, line_of(text, m.start()), "hot-path",
                                 "naked new in an engine hot path; use "
                                 "containers or std::make_unique at the "
                                 "control plane"))
    return out


def check_console(rel: str, text: str, cfg: RuleConfig) -> list[Violation]:
    if not rel.startswith("src/") or rel.startswith(cfg.allowed_prefixes):
        return []
    if cfg.file_exempt(rel):
        return []
    return [Violation(rel, line_of(text, m.start()), "console",
                      "console write outside src/lab (engines report "
                      "through return values and ModelError)")
            for m in RE_CONSOLE.finditer(text)]


def check_unordered_iter(rel: str, text: str, cfg: RuleConfig,
                         path: pathlib.Path | None = None,
                         header_text: str = "",
                         use_libclang: bool = False) -> list[Violation]:
    if not cfg.in_scope(rel) or cfg.file_exempt(rel):
        return []
    combined = header_text + "\n" + text
    aliases = collect_aliases(combined, RE_UNORDERED_TYPE)
    unordered = declared_names(combined, RE_UNORDERED_TYPE, aliases)
    unordered = {n for n in unordered
                 if (rel, n) not in cfg.identifier_exempt}
    if not unordered:
        return []
    out = []
    msg = ("iteration over an unordered container on a declared "
           "emission/merge/serialization path — hash order must never "
           "reach an output or a merge (add a sorted materialization, or "
           "an identifier-exempt entry in tools/verify/rules.toml with a "
           "justification)")
    ast_lines = (libclang_unordered_iter_hits(path)
                 if use_libclang and path is not None else None)
    if ast_lines is not None:
        out.extend(Violation(rel, line, "unordered-iter", msg)
                   for line in ast_lines)
    else:
        for m in RE_RANGE_FOR.finditer(text):
            ident = RE_TRAILING_IDENT.search(m.group(2).strip())
            if ident and ident.group(1) in unordered:
                out.append(Violation(rel, line_of(text, m.start()),
                                     "unordered-iter", msg))
    for m in RE_ITER_CALL.finditer(text):
        if m.group(1) in unordered:
            out.append(Violation(rel, line_of(text, m.start()),
                                 "unordered-iter", msg))
    return out


def check_wall_clock(rel: str, text: str, cfg: RuleConfig) -> list[Violation]:
    if not rel.startswith("src/") or rel.startswith(cfg.allowed_prefixes):
        return []
    if cfg.file_exempt(rel):
        return []
    return [Violation(rel, line_of(text, m.start()), "wall-clock",
                      "wall-clock read outside src/lab (use steady_clock "
                      "for intervals, CLOCK_THREAD_CPUTIME_ID for CPU "
                      "accounting; wall time in an engine is "
                      "nondeterminism)")
            for m in RE_WALL_CLOCK.finditer(text)]


def check_atomic_order(rel: str, text: str, cfg: RuleConfig,
                       scope_texts: dict[str, str]) -> list[Violation]:
    if not cfg.in_scope(rel) or cfg.file_exempt(rel):
        return []
    # Atomics are declared in headers and used in the paired .cpp: collect
    # names from this file and its sibling (mcpd.hpp <-> mcpd.cpp), not the
    # whole scope, so an unrelated file's `next` cannot alias this one's.
    stem = rel.rsplit(".", 1)[0]
    atomics: set[str] = set()
    for other_rel, other_text in scope_texts.items():
        if other_rel.rsplit(".", 1)[0] == stem or other_rel == rel:
            atomics |= declared_names(other_text, RE_ATOMIC_TYPE)
    atomics |= declared_names(text, RE_ATOMIC_TYPE)
    if not atomics:
        return []
    out = []
    for m in RE_ATOMIC_CALL.finditer(text):
        receiver, method, paren = m.group(1), m.group(2), m.start(3)
        if receiver not in atomics:
            continue
        depth, i = 0, paren
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        args = text[paren + 1:i]
        if not RE_HAS_ORDER.search(args):
            out.append(Violation(
                rel, line_of(text, m.start()), "atomic-order",
                f"{receiver}.{method}(...) without an explicit "
                "memory_order — name the ordering claim (relaxed is a "
                "claim too)"))
    for name in atomics:
        # Qualified accesses (obj.name / obj->name) are always checked.
        # Bare-identifier forms are checked only for `_`-suffixed names
        # (the repo's member naming convention): a plain local that shadows
        # an atomic field's name (`MpscHook* next = tail->next.load(...)`)
        # must not alias the member check.
        esc = re.escape(name)
        qual = r"[A-Za-z_]\w*\s*(?:\.|->)\s*"
        ops = r"(?:\+\+|--|[+\-|&^]=|=(?!=))"
        parts = [rf"(?:\+\+|--)\s*(?:{qual})?{esc}\b"
                 if name.endswith("_") else
                 rf"(?:\+\+|--)\s*{qual}{esc}\b",
                 rf"{qual}{esc}\s*{ops}"]
        if name.endswith("_"):
            parts.append(rf"^\s*{esc}\s*{ops}")
        pattern = re.compile("(?m)" + "|".join(f"(?:{p})" for p in parts))
        for m in pattern.finditer(text):
            line_start = text.rfind("\n", 0, m.start()) + 1
            line_end = text.find("\n", m.start())
            line = text[line_start:line_end if line_end >= 0 else len(text)]
            if "atomic" in line:
                continue  # declaration with initializer
            out.append(Violation(
                rel, line_of(text, m.start()), "atomic-order",
                f"operator access to std::atomic `{name}` (implicit "
                "seq_cst) — spell it load/store/fetch_* with an explicit "
                "memory_order"))
    return out


def check_alloc_guard_registry(cfg: RuleConfig,
                               repo: pathlib.Path) -> list[Violation]:
    """Registry-driven coverage: each declared hot kernel must (a) still
    arm its AllocGuard in src/ and (b) be exercised by its declared test."""
    out = []
    for kernel in cfg.kernels:
        name = kernel.get("name", "<unnamed>")
        for role in ("guard", "test"):
            file_key, pat_key = f"{role}-file", f"{role}-pattern"
            rel = kernel.get(file_key, "")
            pattern = kernel.get(pat_key, "")
            path = repo / rel
            if not rel or not path.is_file():
                out.append(Violation(
                    "tools/verify/rules.toml", 0, "alloc-guard",
                    f"kernel '{name}': {file_key} '{rel}' does not exist "
                    "(stale registry entry)"))
                continue
            if not re.search(pattern, path.read_text()):
                out.append(Violation(
                    rel, 0, "alloc-guard",
                    f"kernel '{name}': pattern '{pattern}' not found — "
                    f"the {'guard is gone' if role == 'guard' else 'test no longer exercises the guarded kernel'}"))
    return out


# --- exemption staleness -----------------------------------------------------


def check_stale_exemptions(rules: dict[str, RuleConfig],
                           repo: pathlib.Path) -> list[Violation]:
    """Every file named in an exemption or scope list must still exist:
    exemptions are review decisions about specific code, and a decision
    about deleted code is stale data that silently widens the next match."""
    out = []
    for rule_name, cfg in rules.items():
        referenced = set(cfg.exempt) | set(cfg.paths)
        referenced |= {f for (f, _ident) in cfg.identifier_exempt}
        for rel in sorted(referenced):
            if not (repo / rel).is_file():
                out.append(Violation(
                    "tools/verify/rules.toml", 0, rule_name,
                    f"stale exemption/scope entry: '{rel}' no longer "
                    "exists — remove the entry"))
    return out


# --- driver ------------------------------------------------------------------


def tracked_files(repo: pathlib.Path) -> list[pathlib.Path]:
    result = subprocess.run(
        ["git", "ls-files", "--", *LINT_ROOTS],
        cwd=repo, capture_output=True, text=True, check=True).stdout
    return [repo / line for line in result.splitlines()
            if pathlib.Path(line).suffix in LINT_SUFFIXES
            and not line.startswith(FIXTURE_PREFIX)]


def load_rules(rules_file: pathlib.Path) -> dict[str, RuleConfig]:
    with open(rules_file, "rb") as fh:
        data = tomllib.load(fh)
    unknown = set(data) - set(ALL_RULES)
    if unknown:
        raise SystemExit(f"mcp-verify: unknown rule tables in "
                         f"{rules_file}: {sorted(unknown)}")
    return {name: RuleConfig(data.get(name, {})) for name in ALL_RULES}


def run_rules(files: list[pathlib.Path], rules: dict[str, RuleConfig],
              selected: list[str], repo: pathlib.Path,
              use_libclang: bool) -> list[Violation]:
    texts: dict[str, str] = {}
    for path in files:
        rel = path.resolve().relative_to(repo).as_posix() \
            if path.resolve().is_relative_to(repo) else path.as_posix()
        texts[rel] = strip_noise(path.read_text())

    atomic_scope = {rel: text for rel, text in texts.items()
                    if "atomic-order" in selected
                    and rules["atomic-order"].in_scope(rel)}

    violations: list[Violation] = []
    for rel, text in texts.items():
        if "rng" in selected:
            violations += check_rng(rel, text, rules["rng"])
        if "builtin" in selected:
            violations += check_builtin(rel, text, rules["builtin"])
        if "hot-path" in selected:
            violations += check_hot_path(rel, text, rules["hot-path"])
        if "console" in selected:
            violations += check_console(rel, text, rules["console"])
        if "unordered-iter" in selected:
            header_rel = rel.rsplit(".", 1)[0] + ".hpp"
            header_text = texts.get(header_rel, "") \
                if header_rel != rel else ""
            violations += check_unordered_iter(
                rel, text, rules["unordered-iter"], repo / rel, header_text,
                use_libclang)
        if "wall-clock" in selected:
            violations += check_wall_clock(rel, text, rules["wall-clock"])
        if "atomic-order" in selected:
            violations += check_atomic_order(rel, text,
                                             rules["atomic-order"],
                                             atomic_scope)
    if "alloc-guard" in selected:
        violations += check_alloc_guard_registry(rules["alloc-guard"], repo)
    violations += [v for v in check_stale_exemptions(rules, repo)
                   if v.rule in selected]
    violations.sort(key=lambda v: (v.rel, v.line, v.rule))
    return violations


# --- selftest ----------------------------------------------------------------


def selftest(repo: pathlib.Path, use_libclang: bool) -> int:
    """Asserts each rule fires on its failure fixture and stays silent on
    its pass fixture (tests/lint/; registered in ctest as
    mcp_verify_selftest)."""
    corpus = repo / "tests" / "lint"
    scoped = RuleConfig({"paths": [f"src/lint_fixture.cpp"],
                         "path-prefixes": ["src/"]})
    failures: list[str] = []

    def expect(rule: str, got: list[Violation], want_fire: bool,
               fixture: str) -> None:
        fired = [v for v in got if v.rule == rule]
        wrong_rule = [v for v in got if v.rule != rule]
        if want_fire and not fired:
            failures.append(f"{rule}: did not fire on {fixture}")
        if not want_fire and fired:
            failures.append(f"{rule}: fired on clean fixture {fixture}: "
                            f"{fired[0]}")
        if wrong_rule:
            failures.append(f"{rule}: cross-fired {wrong_rule[0].rule} "
                            f"on {fixture}")

    def run_text_rule(rule: str, check, cfg: RuleConfig) -> None:
        for verdict, suffix in (("fail", True), ("pass", False)):
            fixture = corpus / f"{rule.replace('-', '_')}_{verdict}.cpp"
            text = strip_noise(fixture.read_text())
            # Fixtures are linted as if they sat on an in-scope src/ path.
            expect(rule, check("src/lint_fixture.cpp", text, cfg), suffix,
                   fixture.name)

    run_text_rule("rng", check_rng, RuleConfig({}))
    run_text_rule("builtin", check_builtin, RuleConfig({}))
    run_text_rule("hot-path", check_hot_path, scoped)
    run_text_rule("console", check_console, RuleConfig({}))
    run_text_rule("unordered-iter",
                  lambda rel, text, cfg: check_unordered_iter(
                      rel, text, cfg), scoped)
    run_text_rule("wall-clock", check_wall_clock, RuleConfig({}))
    run_text_rule("atomic-order",
                  lambda rel, text, cfg: check_atomic_order(
                      rel, text, cfg, {}), scoped)

    for verdict, want in (("fail", True), ("pass", False)):
        registry = corpus / f"alloc_guard_{verdict}.toml"
        with open(registry, "rb") as fh:
            cfg = RuleConfig(tomllib.load(fh).get("alloc-guard", {}))
        got = check_alloc_guard_registry(cfg, repo)
        expect("alloc-guard", got, want, registry.name)

    # Stale-exemption reporting is part of the contract: a rules file
    # naming a vanished file must produce an error.
    stale_cfg = {"rng": RuleConfig(
        {"exempt": ["src/no/such/file_gone.cpp"]})}
    if not check_stale_exemptions(stale_cfg, repo):
        failures.append("stale-exemption: vanished file not reported")

    # The live rules file must itself be stale-free and the tracked tree
    # clean — the selftest is the canary for both drifting.
    rules = load_rules(DEFAULT_RULES_FILE)
    live = run_rules(tracked_files(repo), rules, list(ALL_RULES), repo,
                     use_libclang)
    for violation in live:
        failures.append(f"tree-not-clean: {violation}")

    for failure in failures:
        print(f"mcp-verify selftest: FAIL {failure}")
    if failures:
        return 1
    print(f"mcp-verify selftest: OK ({len(ALL_RULES)} rules x "
          "fail+pass fixtures, stale-exemption check, clean tree)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="mcp-verify", add_help=True)
    parser.add_argument("files", nargs="*")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run")
    parser.add_argument("--rules-file", default=str(DEFAULT_RULES_FILE))
    parser.add_argument("--backend", choices=("auto", "tokenizer",
                                              "libclang"), default="auto")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv[1:])

    if args.list_rules:
        print("\n".join(ALL_RULES))
        return 0

    if args.backend == "libclang":
        use_libclang = True
        if not libclang_available():
            raise SystemExit("mcp-verify: --backend libclang requested but "
                             "python clang bindings are unusable")
    elif args.backend == "tokenizer":
        use_libclang = False
    else:
        use_libclang = libclang_available()

    if args.selftest:
        return selftest(REPO, use_libclang)

    selected = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = set(selected) - set(ALL_RULES)
    if unknown:
        raise SystemExit(f"mcp-verify: unknown rules {sorted(unknown)} "
                         f"(see --list-rules)")

    rules = load_rules(pathlib.Path(args.rules_file))
    files = ([pathlib.Path(f).resolve() for f in args.files]
             if args.files else tracked_files(REPO))
    violations = run_rules(files, rules, selected, REPO, use_libclang)
    for violation in violations:
        print(violation)
    if violations:
        print(f"mcp-verify: {len(violations)} violation(s) "
              f"[{'libclang' if use_libclang else 'tokenizer'} backend]",
              file=sys.stderr)
        return 1
    print(f"mcp-verify: OK ({len(files)} files, {len(selected)} rules, "
          f"{'libclang' if use_libclang else 'tokenizer'} backend)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
