#!/usr/bin/env python3
"""asyncdr model-conformance analyzer.

The simulator's claims (determinism per seed, exact query accounting, virtual
time) are semantic properties the compiler cannot check. In the DR model the
adversary controls scheduling and nothing else, so every Q/T/M this repo
reports must be a pure function of (config, seed). This tool encodes that
contract as one catalog of rules over the source tree, so a violation fails
CI instead of silently invalidating every Theorem 1-6 experiment downstream.

Two kinds of rule share the catalog (see --list-rules):
  pattern rules     regexes over the comment/string-stripped text of each
                    whole file (a call split over lines is still one match),
                    plus small checks on headers, includes and namespaces;
  structural rules  the static types behind every range-for (DR013), the
                    order of journal appends versus state mutation (DR014),
                    and what campaign worker code shares (DR012), lowered
                    from C++ into one IR by either frontend below.

Frontends (structural rules only; pattern rules never need one):
  libclang   precise AST via clang.cindex over compile_commands.json
             (exit 77 when the bindings are unavailable, so ctest can SKIP)
  fallback   conservative pure-Python C++ indexer, no dependencies; less
             precise (documented in DESIGN.md) but catches the idioms this
             tree actually uses, so the zero-findings gate runs everywhere
  auto       libclang when importable and a compile database exists, else
             fallback

Usage:
  asyncdr_lint.py [--root DIR] [--frontend F] [--compile-db FILE]
  asyncdr_lint.py --list-rules
  asyncdr_lint.py --sarif out.sarif            also write SARIF 2.1.0

Suppressions always carry a reason; a marker without one suppresses nothing,
so every exception to the zero-findings gate explains itself:
  // asyncdr-lint: allow(DR004) rendering is this function's whole job
      ...on the offending line, or in the contiguous // block directly
      above it (the reason may continue over the following lines).
  // asyncdr-lint: disable-file(DR010) reason...
      ...anywhere in the file, disables the rule for the whole file.

Exit status: 0 clean, 1 findings, 2 usage error, 77 libclang requested but
unavailable.

Zero third-party dependencies by design: this must run in any CI container
and inside ctest with nothing but a Python 3.8+ interpreter.
"""

import argparse
import bisect
import fnmatch
import hashlib
import json
import os
import re
import signal
import sys

if hasattr(signal, "SIGPIPE"):  # `lint | head` should not traceback
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

# Directories scanned relative to the repo root. tests/ is deliberately out of
# scope: tests may poke internals (that is their job); the model only
# constrains the simulator, its workloads, its front-ends and the benchmark
# harness that times them.
SCAN_ROOTS = ("src", "bench", "examples", "perfbench")
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# The campaign/chaos sweep substrate: the only code that runs worlds on
# several worker threads, and so the only place cross-world sharing can hide.
WORKER_DIRS = ("src/campaign/", "src/chaos/")

# Reasons are mandatory: allow()/disable-file() must be followed by text on
# the same line.
ALLOW_RE = re.compile(r"asyncdr-lint:\s*allow\(([A-Z0-9, ]+)\)[ \t]*\S")
DISABLE_FILE_RE = re.compile(
    r"asyncdr-lint:\s*disable-file\(([A-Z0-9, ]+)\)[ \t]*\S")

# DR014: mutating receiver methods on the containers/values this tree uses
# for downloaded state (BitVec, IntervalSet, std containers).
MUTATOR_METHODS = (
    "set|splice|copy_range|unite|insert|subtract|clear|erase|push_back"
    "|pop_back"
    "|emplace|emplace_back|assign|resize|reset|fill|flip|merge|swap")
MUTATION_RE = re.compile(
    r"\b([a-z]\w*_)\s*(?:\.|->)\s*(?:" + MUTATOR_METHODS + r")\s*\("
    r"|\b([a-z]\w*_)\s*(?:\[[^\]]*\]\s*)?(=(?!=)|\+=|-=|\|=|&=|\^=)")
# journal_runs and journal_checkpoint are the live appends; the pattern
# still matches the retired journal_bits spelling.
JOURNAL_RE = re.compile(r"\bjournal_(bits|runs|checkpoint)\s*\(")
# A member passed as a whole argument, and a parameter that can write
# through it: a non-const lvalue reference (`BitVec& out`, not
# `const BitVec& src`, `BitVec const& src` or `BitVec&& tmp`).
MEMBER_ARG_RE = re.compile(r"^\s*([a-z]\w*_)\s*$")
MUTABLE_REF_PARAM_RE = re.compile(
    r"^\s*(?!.*\bconst\b)[A-Za-z_][\w:]*(?:\s*<[^()]*>)?\s*&(?!&)\s*"
    r"(?:[A-Za-z_]\w*)?\s*(?:=.*)?$")
# A source query a peer makes itself (query_runs; the pattern still matches
# the retired query, query_range and query_indices spellings); the bits it
# returns are a download until a journal_runs append persists them.
QUERY_RE = re.compile(r"\bquery(?:_range|_runs|_indices)?\s*\(")

CXX_KEYWORDS = frozenset(
    "if for while switch return sizeof alignof decltype static_assert catch "
    "new delete throw co_await co_return co_yield case default do else "
    "alignas noexcept typeid assert".split())

UNORDERED_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(map|set|multimap"
                          r"|multiset)\s*<")
SEQ_OF_UNORDERED_RE = re.compile(
    r"\b(?:std\s*::\s*)?(vector|array|deque)\s*<\s*(?:std\s*::\s*)?"
    r"unordered_(map|set|multimap|multiset)\s*<")


class Finding:
    def __init__(self, rule, path, line, message, snippet=""):
        self.rule = rule  # rule id, e.g. "DR002"
        self.path = path  # repo-relative, forward slashes
        self.line = line  # 1-based
        self.message = message
        self.snippet = snippet

    def fingerprint(self):
        """Stable identity for SARIF consumers: rule + file + content of the
        offending line (not its number, which shifts with every edit)."""
        digest = hashlib.sha256(self.snippet.strip().encode()).hexdigest()[:16]
        return f"{self.rule}:{self.path}:{digest}"

    def render(self):
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class Rule:
    """One conformance rule. `check` is a callable(program) -> [Finding]."""

    def __init__(self, rule_id, name, summary, rationale, check):
        self.id = rule_id
        self.name = name
        self.summary = summary
        self.rationale = rationale
        self.check = check


# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------

def _is_digit_separator(text, i):
    """True when the ' at text[i] is a C++14 digit separator (`1'000'000`,
    `0xFF'FF`): it sits between two alphanumerics and the token before it
    starts with a digit, which rules out prefixed char literals (`u8'a'`)."""
    if i == 0 or i + 1 >= len(text):
        return False
    if not (text[i - 1].isalnum() and text[i + 1].isalnum()):
        return False
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "'"):
        j -= 1
    return text[j].isdigit()


def strip_comments_and_strings(text):
    """Returns text of identical length/newlines with comment bodies and
    string/char literal contents blanked, so no rule trips on prose. Handles
    multi-line /* */, basic raw strings and digit separators."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
            continue
        if c == 'R' and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                end = (end + len(closer)) if end != -1 else n
                for j in range(i, min(end, n)):
                    if text[j] != "\n":
                        out[j] = " "
                i = end
                continue
        if c == "'" and _is_digit_separator(text, i):
            i += 1
            continue
        if c == '"' or c == "'":
            quote = c
            out[i] = quote
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                        i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
            continue
        i += 1
    return "".join(out)


def _rule_ids(group):
    return {r.strip() for r in group.split(",") if r.strip()}


class SourceFile:
    def __init__(self, root, relpath):
        self.relpath = relpath.replace(os.sep, "/")
        self.abspath = os.path.join(root, relpath)
        with open(self.abspath, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.stripped = strip_comments_and_strings(self.text)
        self._line_starts = [0] + [m.end()
                                   for m in re.finditer("\n", self.text)]
        self.disabled = set()
        for m in DISABLE_FILE_RE.finditer(self.text):
            self.disabled |= _rule_ids(m.group(1))

    def allowed_on_line(self, lineno):
        """Rule ids suppressed on `lineno`: an allow() marker on the line
        itself, or anywhere in the contiguous comment block directly above
        it (so suppression reasons can span lines). Markers without a
        reason are ignored by construction of ALLOW_RE."""
        allowed = set()

        def collect(text):
            m = ALLOW_RE.search(text)
            if m:
                allowed.update(_rule_ids(m.group(1)))

        if 1 <= lineno <= len(self.lines):
            collect(self.lines[lineno - 1])
        cursor = lineno - 1
        while cursor >= 1 and self.lines[cursor - 1].lstrip().startswith("//"):
            collect(self.lines[cursor - 1])
            cursor -= 1
        return allowed

    def line_at(self, offset):
        return bisect.bisect_right(self._line_starts, offset)

    def snippet(self, lineno):
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return self.relpath

    def in_dir(self, prefix):
        return self.relpath.startswith(prefix)

    def matches(self, *globs):
        return any(fnmatch.fnmatch(self.relpath, g) for g in globs)


def match_bracket(text, start, open_ch, close_ch):
    """Index just past the bracket matching text[start] == open_ch, or -1."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_angle(text, start):
    """Like match_bracket for template angle brackets; parens inside are
    skipped wholesale so `foo<decltype(a < b)>` cannot misnest."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "(":
            i = match_bracket(text, i, "(", ")")
            if i == -1:
                return -1
            continue
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1  # not a template argument list after all
        i += 1
    return -1


# --------------------------------------------------------------------------
# Intermediate representation shared by both frontends
# --------------------------------------------------------------------------

class LoopIR:
    def __init__(self, line, range_expr, body, is_unordered):
        self.line = line
        self.range_expr = range_expr.strip()
        self.body = body            # stripped body text (braces excluded)
        self.is_unordered = is_unordered  # None = unknown (fallback), bool


class LambdaIR:
    def __init__(self, line, default_ref_capture, is_worker_job):
        self.line = line
        self.default_ref_capture = default_ref_capture
        self.is_worker_job = is_worker_job


class StaticIR:
    def __init__(self, line, decl):
        self.line = line
        self.decl = decl.strip()


class FuncIR:
    def __init__(self, qualname, relpath, line, end_line):
        self.qualname = qualname       # e.g. asyncdr::dr::World::run
        self.relpath = relpath
        self.line = line
        self.end_line = end_line
        self.loops = []                # [LoopIR]
        self.events = []               # DR014: ("journal"|"mutate", name, line)
        self.lambdas = []              # [LambdaIR]

    @property
    def simple_name(self):
        return self.qualname.rsplit("::", 1)[-1]

    @property
    def class_qual(self):
        parts = self.qualname.split("::")
        return "::".join(parts[:-1]) if len(parts) > 1 else ""


class Program:
    """Every scanned file plus the IR a frontend lowered from them."""

    def __init__(self, root):
        self.root = root
        self.files = {}                # relpath -> SourceFile, sorted
        self.functions = []            # [FuncIR]
        self.statics = []              # (relpath, StaticIR), worker dirs only
        self.unordered_names = set()   # identifiers declared unordered
        self.unordered_elem_names = set()  # vector-of-unordered identifiers
        # DR014: function name -> argument positions some declaration of
        # that name takes by non-const lvalue reference.
        self.mutating_params = {}
        for scan_root in SCAN_ROOTS:
            top = os.path.join(root, scan_root)
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(CXX_EXTENSIONS):
                        rel = os.path.relpath(os.path.join(dirpath, name),
                                              root).replace(os.sep, "/")
                        self.files[rel] = SourceFile(root, rel)
        for src in self.files.values():
            _index_unordered_decls(src, self)
            _index_mutating_params(src, self)


def _index_unordered_decls(src, program):
    stripped = src.stripped
    for m in UNORDERED_RE.finditer(stripped):
        close = match_angle(stripped, m.end() - 1)
        if close == -1:
            continue
        rest = stripped[close:]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)\s*[;={(,)]", rest)
        if dm:
            program.unordered_names.add(dm.group(1))
    for m in SEQ_OF_UNORDERED_RE.finditer(stripped):
        open_angle = stripped.index("<", m.start())
        close = match_angle(stripped, open_angle)
        if close == -1:
            continue
        rest = stripped[close:]
        dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)\s*[;={(,)]", rest)
        if dm:
            program.unordered_elem_names.add(dm.group(1))


def split_top_level(text, sep=","):
    """`text` split at `sep` outside (), [], {} and <>."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _index_mutating_params(src, program):
    """Records, per declared function name, the parameter positions taken by
    non-const lvalue reference. Any `name(params)` whose parameter reads as
    `Type& name` counts, so a call spelled like a declaration is indexed
    too: the conservative direction, more arguments treated as written."""
    stripped = src.stripped
    for m in CALL_RE.finditer(stripped):
        close = match_bracket(stripped, m.end() - 1, "(", ")")
        if close == -1:
            continue
        params = split_top_level(stripped[m.end():close - 1])
        name = re.split(r"\s*::\s*", m.group(1))[-1]
        for pos, param in enumerate(params):
            if MUTABLE_REF_PARAM_RE.match(param):
                program.mutating_params.setdefault(name, set()).add(pos)


# --------------------------------------------------------------------------
# Fallback frontend: a conservative pure-Python C++ indexer
# --------------------------------------------------------------------------

FUNC_HEADER_RE = re.compile(
    r"([A-Za-z_~][\w:~]*(?:\s*::\s*[A-Za-z_~][\w~]*)*)\s*$")
CALL_RE = re.compile(r"([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*)\s*\(")
FOR_RE = re.compile(r"\bfor\s*\(")


class _Block:
    def __init__(self, kind, name=""):
        self.kind = kind  # namespace | class | function | other
        self.name = name


def _header_before(stripped, brace_pos):
    """Text between the previous statement boundary and `{` at brace_pos,
    with constructor init-lists cut off (everything after a top-level `:`
    that follows the parameter list)."""
    start = brace_pos - 1
    depth = 0
    while start >= 0:
        c = stripped[start]
        if c in ")]>":
            depth += 1
        elif c in "([<":
            depth -= 1
        elif depth == 0 and c in ";{}":
            break
        start -= 1
    return stripped[start + 1:brace_pos], start + 1


def _classify_header(header):
    """(kind, name) for the block opened after `header`."""
    h = header.strip()
    m = re.search(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*$", h)
    if m:
        return "namespace", m.group(1) or "(anonymous)"
    if re.search(r"\b(class|struct|union)\s+[A-Za-z_]", h) and "(" not in h \
            and not h.startswith("template"):
        words = re.findall(r"[A-Za-z_]\w*", h)
        name = ""
        for i, w in enumerate(words):
            if w in ("class", "struct", "union") and i + 1 < len(words):
                name = words[i + 1]
        # `class X : public Y {` keeps X; attributes/final are skipped over.
        return "class", name
    if re.search(r"\benum\b", h):
        return "other", ""
    # Constructor init list: cut at the first top-level `:` after a `)`.
    depth = 0
    close = -1
    for i, c in enumerate(h):
        if c in "([<":
            depth += 1
        elif c in ")]>":
            depth -= 1
            if c == ")" and depth == 0:
                close = i
        elif c == ":" and depth == 0 and close != -1 \
                and h[i:i + 2] != "::" and h[i - 1:i] != ":":
            h = h[:i]
            break
    h = h.rstrip()
    for qualifier in ("const", "noexcept", "override", "final", "mutable"):
        while h.endswith(qualifier):
            h = h[:-len(qualifier)].rstrip()
    m = re.search(r"->\s*[\w:<>&*\s]+$", h)
    if m and ")" in h[:m.start()]:
        h = h[:m.start()].rstrip()
    if h.endswith(")"):
        # Find the matching ( of the trailing parameter list, then the name.
        depth = 0
        i = len(h) - 1
        while i >= 0:
            if h[i] == ")":
                depth += 1
            elif h[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i > 0:
            name_part = h[:i].rstrip()
            if name_part.endswith("]"):
                return "function", "(lambda)"
            m = FUNC_HEADER_RE.search(name_part)
            if m:
                name = re.sub(r"\s+", "", m.group(1))
                head = name.split("::", 1)[0].lstrip("~")
                if name and head not in CXX_KEYWORDS:
                    return "function", name
    return "other", ""


def _parse_blocks(src):
    """Yields (qualname, start_offset, end_offset) for every function
    definition in the stripped text, tracking namespace/class nesting."""
    stripped = src.stripped
    stack = []
    functions = []
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            header, _ = _header_before(stripped, i)
            kind, name = _classify_header(header)
            block = _Block(kind, name)
            if kind == "function":
                inside_fn = any(b.kind == "function" for b in stack)
                if not inside_fn and name != "(lambda)":
                    scope = [b.name for b in stack
                             if b.kind in ("namespace", "class") and b.name
                             and b.name != "(anonymous)"]
                    qual = "::".join(scope + [name]) if scope else name
                    block.fn = (qual, i)
            stack.append(block)
        elif c == "}":
            if stack:
                block = stack.pop()
                fn = getattr(block, "fn", None)
                if fn is not None:
                    functions.append((fn[0], fn[1], i))
        i += 1
    return functions


def _extract_events(body, text_offset_to_line, program):
    """DR014 event stream: journal appends, source queries and member
    mutations, in lexical order (the fallback's approximation of 'every
    path': a mutation with no append anywhere before it in the function
    cannot be dominated by one). A member is mutated as the receiver of a
    mutator, the target of an assignment, or a whole argument in a position
    some declaration of the callee takes by non-const reference, as in
    `got.apply_to(out_, known_)`."""
    events = []
    for m in JOURNAL_RE.finditer(body):
        events.append(("journal", m.group(1), text_offset_to_line(m.start()),
                       m.start()))
    for m in QUERY_RE.finditer(body):
        events.append(("query", "", text_offset_to_line(m.start()),
                       m.start()))
    for m in MUTATION_RE.finditer(body):
        name = m.group(1) or m.group(2)
        if name:
            events.append(("mutate", name, text_offset_to_line(m.start()),
                           m.start()))
    for m in CALL_RE.finditer(body):
        name = re.split(r"\s*::\s*", m.group(1))[-1]
        positions = program.mutating_params.get(name)
        if not positions:
            continue
        close = match_bracket(body, m.end() - 1, "(", ")")
        if close == -1:
            continue
        for pos, arg in enumerate(split_top_level(body[m.end():close - 1])):
            member = MEMBER_ARG_RE.match(arg)
            if pos in positions and member:
                events.append(("mutate", member.group(1),
                               text_offset_to_line(m.start()), m.start()))
    events.sort(key=lambda e: e[3])
    return [(kind, name, line) for kind, name, line, _ in events]


def _loop_body(stripped, after_header):
    """Stripped text of the loop body: the balanced {...} block or the single
    statement up to `;`."""
    i = after_header
    while i < len(stripped) and stripped[i] in " \t\n":
        i += 1
    if i < len(stripped) and stripped[i] == "{":
        end = match_bracket(stripped, i, "{", "}")
        return stripped[i + 1:end - 1] if end != -1 else stripped[i + 1:]
    end = stripped.find(";", i)
    return stripped[i:end + 1] if end != -1 else stripped[i:]


def _extract_loops(src, body_start, body_end, program):
    """Range-for and iterator loops in [body_start, body_end); is_unordered
    resolved against the program-wide declared-name index."""
    stripped = src.stripped
    loops = []
    for m in FOR_RE.finditer(stripped, body_start, body_end):
        open_paren = m.end() - 1
        close = match_bracket(stripped, open_paren, "(", ")")
        if close == -1:
            continue
        header = stripped[open_paren + 1:close - 1]
        line = src.line_at(m.start())
        body = _loop_body(stripped, close)
        colon = _top_level_colon(header)
        if colon != -1:
            range_expr = header[colon + 1:].strip()
            loops.append(LoopIR(line, range_expr, body,
                                _expr_is_unordered(range_expr, program)))
            continue
        bm = re.search(r"([A-Za-z_][\w.\->\[\]]*)\s*\.\s*c?begin\s*\(", header)
        if bm:
            range_expr = bm.group(1)
            loops.append(LoopIR(line, range_expr, body,
                                _expr_is_unordered(range_expr, program)))
    return loops


def _top_level_colon(header):
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "([<{":
            depth += 1
        elif c in ")]>}":
            depth -= 1
        elif c == ":" and depth == 0:
            if header[i:i + 2] == "::" or (i > 0 and header[i - 1] == ":"):
                i += 2
                continue
            return i
        i += 1
    return -1


def _expr_is_unordered(expr, program):
    """Best-effort: does `expr` denote an unordered container? True/False
    when the declared-name index decides it, None when unknown (unknown is
    treated as ordered — the fallback is conservative about noise; the
    libclang frontend resolves these exactly)."""
    e = expr.strip()
    if "unordered_" in e:
        return True
    e = re.sub(r"^\s*(this\s*->|\*)\s*", "", e)
    if e.endswith(")"):
        i = len(e) - 1
        depth = 0
        while i >= 0:
            if e[i] == ")":
                depth += 1
            elif e[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        m = re.search(r"([A-Za-z_]\w*)\s*$", e[:i])
        return True if m and m.group(1) in program.unordered_names else None
    if e.endswith("]"):
        i = len(e) - 1
        depth = 0
        while i >= 0:
            if e[i] == "]":
                depth += 1
            elif e[i] == "[":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        m = re.search(r"([A-Za-z_]\w*)\s*$", e[:i])
        if m:
            if m.group(1) in program.unordered_elem_names:
                return True
            if m.group(1) in program.unordered_names:
                return None  # element of an unordered map: value type unknown
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", e)
    if m:
        return m.group(1) in program.unordered_names or None
    return None


def _extract_statics(src):
    """Non-const static data declarations (DR012). A `(` before the
    initializer marks a function declarator, so those are skipped; the known
    imprecision is ctor-style `static T x(args);` initializers, which this
    tree does not use (brace or `=` init only)."""
    out = []
    stripped = src.stripped
    for m in re.finditer(r"(?:^|[;{}\n])\s*static\s+", stripped):
        start = m.end()
        i = start
        depth = 0
        while i < len(stripped):
            c = stripped[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == ";" and depth == 0:
                break
            i += 1
        decl = stripped[start:i]
        if re.match(r"\s*(const\b|constexpr\b|consteval\b)", decl):
            continue
        head = decl.split("=", 1)[0]
        brace = head.find("{")
        if brace != -1:
            head = head[:brace]
        if "(" in head:
            continue  # function declaration/definition
        out.append(StaticIR(src.line_at(m.end() - 1),
                            "static " + decl.strip()))
    return out


def _extract_lambdas(src, body_start, body_end):
    lambdas = []
    stripped = src.stripped
    for m in re.finditer(r"\[\s*&\s*[,\]]", stripped[body_start:body_end]):
        pos = body_start + m.start()
        # Confirm a lambda follows: `](`, `]{`, or `] {` within bounds.
        close = stripped.find("]", pos)
        if close == -1:
            continue
        after = stripped[close + 1:close + 40].lstrip()
        if not (after.startswith("(") or after.startswith("{")
                or after.startswith("mutable")):
            continue
        # Worker-job heuristic: the lambda is an argument of a `.run(` call
        # or initializes a campaign::Campaign::Job.
        window = stripped[max(0, pos - 160):pos]
        is_worker = bool(re.search(r"\.\s*run\s*\(\s*$", window)
                         or re.search(r"\bJob\b[^;]*=\s*$", window))
        lambdas.append(LambdaIR(src.line_at(pos), True, is_worker))
    return lambdas


def lower_fallback(program):
    for rel, src in program.files.items():
        for qual, start, end in _parse_blocks(src):
            fn = FuncIR(qual, rel, src.line_at(start), src.line_at(end))

            def body_line(off, _src=src, _start=start):
                return _src.line_at(_start + off)
            fn.events = _extract_events(src.stripped[start:end], body_line,
                                        program)
            fn.loops = _extract_loops(src, start, end, program)
            fn.lambdas = _extract_lambdas(src, start, end)
            program.functions.append(fn)
        if rel.startswith(WORKER_DIRS):
            for st in _extract_statics(src):
                program.statics.append((rel, st))


# --------------------------------------------------------------------------
# libclang frontend: same IR, precise boundaries and types
# --------------------------------------------------------------------------

def load_libclang():
    """Returns the clang.cindex module or None. Honors ASYNCDR_LIBCLANG
    (path to libclang.so) for containers with unusual layouts."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    override = os.environ.get("ASYNCDR_LIBCLANG")
    if override:
        try:
            cindex.Config.set_library_file(override)
        except Exception:  # pragma: no cover - defensive
            pass
    try:
        cindex.Index.create()
    except Exception:  # bindings present but no usable libclang.so
        return None
    return cindex


def lower_libclang(program, compile_db_path, warn):
    """Parses every TU in the compile database with libclang and lowers the
    AST into the shared IR. Headers are attributed to their own relpath, so
    findings land where the code lives, exactly as in the fallback."""
    cindex = load_libclang()
    assert cindex is not None
    root = program.root

    with open(compile_db_path, encoding="utf-8") as f:
        entries = json.load(f)
    index = cindex.Index.create()
    seen_functions = set()
    fnkinds = (cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
               cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
               cindex.CursorKind.FUNCTION_TEMPLATE)

    def rel_of(cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        path = os.path.normpath(os.path.join(root, str(loc.file)))
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        return rel if rel in program.files else None

    def qualname(cursor):
        parts = []
        c = cursor
        while c is not None and c.kind != cindex.CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def lower_function(cursor, rel):
        extent = cursor.extent
        fn = FuncIR(qualname(cursor), rel, extent.start.line, extent.end.line)
        src = program.files[rel]
        body = "\n".join(src.stripped.splitlines()[extent.start.line - 1:
                                                   extent.end.line])
        base = extent.start.line

        def body_line(off):
            return base + body.count("\n", 0, off)
        fn.events = _extract_events(body, body_line, program)

        def walk(c):
            for child in c.get_children():
                k = child.kind
                if k == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                    kids = list(child.get_children())
                    is_unordered = None
                    range_expr = ""
                    if len(kids) >= 2:
                        init = kids[-2]
                        t = init.type.get_canonical().spelling
                        is_unordered = "unordered_map" in t \
                            or "unordered_set" in t \
                            or "unordered_multi" in t
                        range_expr = " ".join(
                            tok.spelling for tok in init.get_tokens())[:80]
                    body_c = kids[-1] if kids else None
                    body_text = ""
                    if body_c is not None:
                        e = body_c.extent
                        lines = src.stripped.splitlines()
                        body_text = "\n".join(
                            lines[e.start.line - 1:e.end.line])
                        body_text = body_text.strip()
                        if body_text.startswith("{"):
                            body_text = body_text[1:]
                        if body_text.endswith("}"):
                            body_text = body_text[:-1]
                    fn.loops.append(LoopIR(child.location.line, range_expr,
                                           body_text, is_unordered))
                elif k == cindex.CursorKind.LAMBDA_EXPR:
                    toks = [t.spelling for t in child.get_tokens()][:4]
                    default_ref = len(toks) >= 2 and toks[0] == "[" \
                        and toks[1] == "&"
                    fn.lambdas.append(LambdaIR(child.location.line,
                                               default_ref, False))
                walk(child)
        walk(cursor)
        return fn

    def visit(cursor):
        for child in cursor.get_children():
            rel = rel_of(child)
            if rel is None:
                if child.kind in (cindex.CursorKind.NAMESPACE,):
                    visit(child)
                continue
            if child.kind in fnkinds and child.is_definition():
                key = (qualname(child), rel, child.extent.start.line)
                if key not in seen_functions:
                    seen_functions.add(key)
                    program.functions.append(lower_function(child, rel))
            elif child.kind == cindex.CursorKind.VAR_DECL \
                    and rel.startswith(WORKER_DIRS):
                if child.storage_class == cindex.StorageClass.STATIC \
                        and not child.type.spelling.startswith("const") \
                        and "const " not in child.type.spelling:
                    program.statics.append(
                        (rel, StaticIR(child.location.line,
                                       "static " + child.type.spelling + " "
                                       + child.spelling)))
            if child.kind in (cindex.CursorKind.NAMESPACE,
                              cindex.CursorKind.CLASS_DECL,
                              cindex.CursorKind.STRUCT_DECL,
                              cindex.CursorKind.CLASS_TEMPLATE):
                visit(child)

    parsed_tus = 0
    for entry in entries:
        path = os.path.normpath(os.path.join(entry["directory"],
                                             entry["file"]))
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel not in program.files:
            continue
        args = [a for a in entry.get("command", "").split()[1:]
                if a != entry["file"] and not a.endswith(".o")
                and a not in ("-c", "-o")]
        try:
            tu = index.parse(path, args=args)
        except Exception as e:  # pragma: no cover - environment-specific
            warn(f"libclang failed to parse {rel}: {e}")
            continue
        parsed_tus += 1
        visit(tu.cursor)
    if parsed_tus == 0:
        warn("libclang parsed no translation units; results are header-only")
    # Lambdas nested in functions double as worker jobs when the enclosing
    # function constructs a Campaign; reuse the fallback's textual heuristic
    # for the is_worker bit (tokens, not types — identical in both modes).
    for fn in program.functions:
        src = program.files.get(fn.relpath)
        if src is None or not fn.lambdas:
            continue
        text = "\n".join(src.stripped.splitlines()[fn.line - 1:fn.end_line])
        has_campaign = "campaign::Campaign" in text or ".run(" in text
        for lam in fn.lambdas:
            lam.is_worker_job = has_campaign


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def regex_rule(rule_id, pattern, message, *, include_dirs=SCAN_ROOTS,
               exempt_globs=()):
    """Builds a checker that flags every line on which a match of `pattern`
    starts in the comment/string-stripped whole file, so a call whose
    arguments wrap onto the next line is still one match."""
    compiled = re.compile(pattern)

    def check(program):
        findings = []
        for f in program.files.values():
            if not any(f.in_dir(d + "/") for d in include_dirs):
                continue
            if f.matches(*exempt_globs):
                continue
            last_line = 0
            for m in compiled.finditer(f.stripped):
                lineno = f.line_at(m.start())
                if lineno == last_line:
                    continue
                last_line = lineno
                match = " ".join(m.group(0).split())
                findings.append(Finding(
                    rule_id, f.relpath, lineno, message.format(match=match),
                    f.snippet(lineno)))
        return findings

    return check


def check_pragma_once(program):
    findings = []
    for f in program.files.values():
        if f.relpath.endswith((".hpp", ".h", ".hh")) \
                and "#pragma once" not in f.text:
            findings.append(Finding(
                "DR005", f.relpath, 1,
                "header lacks '#pragma once'", f.relpath))
    return findings


def check_include_hygiene(program):
    findings = []
    quoted = re.compile(r'#\s*include\s+"([^"]+)"')
    angled = re.compile(r"#\s*include\s+<([^>]+)>")
    for f in program.files.values():
        here = os.path.dirname(f.abspath)
        for lineno, raw in enumerate(f.lines, start=1):
            m = quoted.search(raw)
            if m:
                inc = m.group(1)
                if ".." in inc.split("/"):
                    findings.append(Finding(
                        "DR006", f.relpath, lineno,
                        f'relative include "{inc}" escapes its directory; '
                        "include from the src/ root instead", raw))
                    continue
                src_rooted = os.path.join(program.root, "src", inc)
                sibling = os.path.join(here, inc)
                if not (os.path.isfile(src_rooted) or os.path.isfile(sibling)):
                    findings.append(Finding(
                        "DR006", f.relpath, lineno,
                        f'quoted include "{inc}" resolves to no file under '
                        "src/ or the including directory (system headers use "
                        "<...>)", raw))
            m = angled.search(raw)
            if m and os.path.isfile(
                    os.path.join(program.root, "src", m.group(1))):
                findings.append(Finding(
                    "DR006", f.relpath, lineno,
                    f"project header <{m.group(1)}> included with angle "
                    'brackets; use "..." for repo headers', raw))
    return findings


def check_namespace(program):
    findings = []
    for f in program.files.values():
        if f.in_dir("src/") and "namespace asyncdr" not in f.text:
            findings.append(Finding(
                "DR007", f.relpath, 1,
                "src/ file declares nothing in namespace asyncdr", f.relpath))
    return findings


def check_phase_coverage(program):
    """Every honest protocol peer registered through a factory in
    src/protocols/runner.cpp must open at least one accounting phase, or its
    Q/T/M silently lands in the catch-all and the per-phase reconciliation
    has a hole. Adversary peers (attacks*.cpp) are exempt: their costs are
    the adversary's, which the paper's complexity measures do not count."""
    findings = []
    runner = program.files.get("src/protocols/runner.cpp")
    if runner is None:
        return findings
    classes = set(re.findall(r"std::make_unique<(\w+)>", runner.text))
    impl_files = [f for f in program.files.values()
                  if f.in_dir("src/protocols/") and f.relpath.endswith(".cpp")
                  and not f.matches("src/protocols/attacks*.cpp")]
    for cls in sorted(classes):
        for f in impl_files:
            if not re.search(rf"\b{cls}::on_start\b", f.text):
                continue
            if "begin_phase(" not in f.text:
                lineno = next(
                    (i for i, l in enumerate(f.lines, start=1)
                     if f"{cls}::on_start" in l), 1)
                findings.append(Finding(
                    "DR009", f.relpath, lineno,
                    f"protocol peer {cls} is registered in runner.cpp but "
                    "never calls begin_phase(); its Q/T/M would bypass the "
                    "per-phase reconciliation", f.lines[lineno - 1]))
    return findings


_check_shared_world_types = regex_rule(
    "DR012",
    r"\bstatic\s+(?!const\b|constexpr\b)[^;=(]*"
    r"\b(dr::World|sim::Engine|sim::Network|dr::Peer)\b"
    r"|\bstd::shared_ptr<\s*(dr::World|sim::Engine|sim::Network"
    r"|dr::Peer)\b",
    "cross-world mutable sharing '{match}' in sweep code (each "
    "campaign run owns its world)",
    include_dirs=tuple(d.rstrip("/") for d in WORKER_DIRS))


def check_cross_world_sharing(program):
    findings = _check_shared_world_types(program)
    for rel, st in program.statics:
        findings.append(Finding(
            "DR012", rel, st.line,
            f"non-const static '{st.decl[:60]}' in campaign/chaos worker "
            "code: one mutable static couples every run through scheduling "
            "and breaks same-seed reproducibility",
            program.files[rel].snippet(st.line)))
    for fn in program.functions:
        if not fn.relpath.startswith(WORKER_DIRS):
            continue
        for lam in fn.lambdas:
            if lam.default_ref_capture and lam.is_worker_job:
                findings.append(Finding(
                    "DR012", fn.relpath, lam.line,
                    f"campaign worker lambda in {fn.qualname} captures by "
                    "default-[&]: the shared surface is invisible; list "
                    "every capture explicitly so cross-world sharing stays "
                    "auditable",
                    program.files[fn.relpath].snippet(lam.line)))
    return findings


ACCUM_STMT_RE = re.compile(
    r"^\s*(?:\+\+\s*[\w.\[\]]+|[\w.\[\]]+\s*\+\+"
    r"|[\w.\[\]]+(?:\s*\.\s*\w+)*\s*\+=\s*[^;]+)\s*$")
PURE_CALL_RE = re.compile(r"\b(size|count|length|empty|first|second)\s*\(")


def loop_is_order_insensitive(body):
    """Conservative prover: every statement is a commutative scalar
    accumulation (`x += e`, `++x`, `x++`) whose RHS calls nothing beyond
    pure observers (size/count/length/empty). Any control flow, other call,
    or other write fails the proof."""
    statements = [s.strip() for s in body.split(";") if s.strip()]
    if not statements:
        return False
    for stmt in statements:
        if not ACCUM_STMT_RE.match(stmt):
            return False
        if CALL_RE.search(PURE_CALL_RE.sub("(", stmt)):
            return False
    return True


def check_ordered_iteration(program):
    findings = []
    for fn in program.functions:
        for loop in fn.loops:
            if loop.is_unordered is not True:
                continue
            if loop_is_order_insensitive(loop.body):
                continue
            findings.append(Finding(
                "DR013", fn.relpath, loop.line,
                f"iteration over unordered container '{loop.range_expr}' in "
                f"{fn.qualname}: hash order is not deterministic state; "
                "sort the keys, use std::map, or justify with "
                "asyncdr-lint: allow(DR013) <reason>",
                program.files[fn.relpath].snippet(loop.line)))
    return findings


def check_wal_ordering(program):
    findings = []
    # Classes that override on_restart are the journal clients; the members
    # their on_restart mutates are the recovered state the WAL protects.
    recovered_by_class = {}
    for fn in program.functions:
        if fn.simple_name == "on_restart" and fn.class_qual:
            members = {name for kind, name, _ in fn.events if kind == "mutate"}
            if members:
                recovered_by_class.setdefault(fn.class_qual,
                                              set()).update(members)
    for fn in program.functions:
        members = recovered_by_class.get(fn.class_qual)
        if not members:
            continue
        if fn.simple_name == fn.class_qual.rsplit("::", 1)[-1]:
            continue  # constructor: no incarnation to lose yet
        # Two orders are wrong. Outside on_restart (which rebuilds recovered
        # state from the journal itself), a mutation with no append before
        # it. Anywhere, a mutation between a source query (query_runs) and
        # the journal_runs append that persists it: the download is
        # applied before it is journaled. Only the first finding per member
        # is reported, so one justified allow() covers a function's later
        # writes to that member.
        flagged = set()
        journaled = fn.simple_name == "on_restart"
        downloading = False
        for kind, name, line in fn.events:
            if kind == "journal":
                journaled = True
                downloading = downloading and name == "checkpoint"
                continue
            if kind == "query":
                downloading = True
                continue
            if name not in members or name in flagged:
                continue
            if downloading:
                message = (f"{fn.qualname} applies a download to recovered "
                           f"state '{name}' before the journal_runs "
                           "append that persists it; append "
                           "first, so the journal never lags the state it "
                           "protects")
            elif not journaled:
                message = (f"{fn.qualname} mutates recovered state '{name}' "
                           "with no preceding journal_* append in this "
                           "function; bits applied but never journaled are "
                           "lost to the next incarnation and re-queried, "
                           "skewing the warm-vs-cold Q accounting")
            else:
                continue
            flagged.add(name)
            findings.append(Finding("DR014", fn.relpath, line, message,
                                    program.files[fn.relpath].snippet(line)))
    return findings


RULES = [
    Rule(
        "DR001", "wall-clock-time",
        "No wall-clock or OS time sources outside src/common/rng.*.",
        "The DR model runs on virtual sim::Time only. One std::chrono clock "
        "read mixed into protocol or substrate logic breaks bit-for-bit "
        "determinism per seed, and with it every shrunk chaos repro and "
        "golden accounting test.",
        regex_rule(
            "DR001",
            r"std::chrono::(steady_clock|system_clock|high_resolution_clock)"
            r"|\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\("
            r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)",
            "wall-clock time source '{match}' (virtual sim::Time only)",
            exempt_globs=("src/common/rng.*",)),
    ),
    Rule(
        "DR002", "ambient-randomness",
        "All randomness flows through the seeded asyncdr::Rng streams.",
        "Runs must be pure functions of (config, seed): the chaos shrinker, "
        "the two-world lower-bound adversary, and the bench baselines all "
        "rely on replaying a seed to reproduce the exact execution. "
        "std::random_device, rand(), or an ad-hoc mt19937 adds entropy the "
        "seed does not control.",
        regex_rule(
            "DR002",
            r"\b(s?rand|drand48|arc4random)\s*\("
            r"|std::random_device|\brandom_device\b|\bmt19937\b",
            "ambient randomness '{match}' (use asyncdr::Rng split streams)",
            exempt_globs=("src/common/rng.*",)),
    ),
    Rule(
        "DR003", "source-internals",
        "Source/ValueSource state mutation stays on the query-accounting "
        "path (src/dr/source.*, src/oracle/*).",
        "Every bit a peer learns from the external source must be accounted "
        "by Query — that is the quantity Theorems 1-6 bound. Code that swaps "
        "arrays or installs overlays from elsewhere can leak unaccounted "
        "bits; the two-world adversary constructions that legitimately need "
        "it carry explicit allow() annotations.",
        regex_rule(
            "DR003",
            r"\.\s*(set_data|set_overlay|enable_index_recording)\s*\("
            r"|\bsource\(\)\s*\.\s*data\s*\(\)",
            "source-internals access '{match}' outside the accounting path",
            exempt_globs=("src/dr/source.*", "src/oracle/*")),
    ),
    Rule(
        "DR004", "stdout-in-library",
        "No console I/O (std::cout/cerr/cin, printf) in library code under "
        "src/.",
        "Library-side printing corrupts machine-readable output (the CLI "
        "pipes reports and JSON to stdout) and hides information from the "
        "structured report types tests assert on; reading std::cin makes a "
        "run depend on input the seed does not control. Designated report "
        "renderers carry an allow() annotation.",
        regex_rule(
            "DR004",
            r"std::(cout|cerr|cin)\b|\bprintf\s*\("
            r"|\bfprintf\s*\(\s*std(out|err)|\bputs\s*\(",
            "direct console I/O '{match}' in library code",
            include_dirs=("src",)),
    ),
    Rule(
        "DR005", "pragma-once",
        "Every header carries #pragma once.",
        "A double-included header produces ODR spaghetti that surfaces as "
        "baffling link errors; one uniform guard style keeps the check "
        "mechanical.",
        check_pragma_once,
    ),
    Rule(
        "DR006", "include-hygiene",
        'Quoted includes resolve from the src/ root; system headers use <>.',
        "Includes that only resolve through accidental -I paths or ../ hops "
        "break as soon as a target's include dirs change; src/-rooted spelling "
        "keeps every header's location explicit and greppable.",
        check_include_hygiene,
    ),
    Rule(
        "DR007", "namespace",
        "All src/ code lives in namespace asyncdr.",
        "Global-namespace symbols collide with dependencies and make ADL "
        "surprises possible; the namespace is also what scopes the "
        "identifier-naming rules clang-tidy enforces.",
        check_namespace,
    ),
    Rule(
        "DR008", "raw-throw",
        "Use ASYNCDR_EXPECTS/ASYNCDR_INVARIANT instead of raw throw.",
        "Contract macros attach the failed expression and source location "
        "and funnel everything into asyncdr::contract_violation, which tests "
        "and the chaos runner catch by type. A raw throw bypasses that "
        "taxonomy (check.hpp itself is the single designated throw site).",
        regex_rule(
            "DR008",
            r"\bthrow\b",
            "raw '{match}' (use the ASYNCDR_* contract macros)",
            include_dirs=("src",),
            exempt_globs=("src/common/check.hpp",)),
    ),
    Rule(
        "DR009", "phase-accounting",
        "Registered protocol peers open at least one begin_phase().",
        "RunReport's per-phase Q/T/M breakdown reconciles exactly against "
        "run totals; a protocol that never opens a phase dumps its whole "
        "cost into the catch-all and the reconciliation test loses its "
        "teeth for that protocol.",
        check_phase_coverage,
    ),
    Rule(
        "DR010", "threads-outside-substrate",
        "Threading primitives only in src/campaign/, src/chaos/ and "
        "src/common/threads.*.",
        "A dr::World is single-threaded by design — determinism comes from "
        "a sequential event loop. Parallelism belongs in the sweep substrate "
        "that fans out *independent* worlds; a mutex or thread inside model "
        "code is either a data race waiting for TSan or hidden "
        "schedule-dependence. Shared read-only caches that genuinely need a "
        "lock carry an allow() annotation.",
        regex_rule(
            "DR010",
            r"std::(jthread|thread|mutex|scoped_lock|lock_guard|unique_lock"
            r"|shared_mutex|condition_variable|atomic)\b|\bstd::async\b",
            "threading primitive '{match}' outside the sweep substrate",
            include_dirs=("src",),
            exempt_globs=("src/campaign/*", "src/chaos/*",
                          "src/common/threads.*")),
    ),
    Rule(
        "DR011", "persistence-outside-journal",
        "No direct filesystem or stream persistence in src/ outside "
        "dr::Journal (src/dr/journal.*).",
        "Crash-recovery durability flows through the dr::Journal write-ahead "
        "log, whose backing store is sim-owned and deterministic. An ad-hoc "
        "fstream or fopen in model code introduces ambient filesystem state "
        "the seed does not control: restarts would replay host files instead "
        "of the journal, and chaos repros would stop being pure functions of "
        "(config, seed). Bench and CLI layers write reports freely — the "
        "rule guards src/ only.",
        regex_rule(
            "DR011",
            r"std::(o|i|w)?fstream\b|\bstd::filesystem\b"
            r"|\b(fopen|freopen|fwrite|fread|tmpfile|mkstemp)\s*\(",
            "direct persistence '{match}' outside dr::Journal",
            include_dirs=("src",),
            exempt_globs=("src/dr/journal.*",)),
    ),
    Rule(
        "DR012", "cross-world-sharing",
        "Campaign/chaos worker code shares no mutable state across runs: no "
        "static or shared_ptr world types, no non-const statics, no "
        "default-[&] worker lambdas.",
        "The campaign substrate's determinism contract (same seed => "
        "byte-identical summary at any thread count) holds because every "
        "run builds its own world and workers share only the claim cursor "
        "and their private collector shards. A static dr::World / "
        "sim::Engine / sim::Network / dr::Peer, shared ownership of one, or "
        "any mutable static couples runs through scheduling: Q/T/M would "
        "depend on which worker ran first. Job lambdas with a default "
        "by-reference capture make the shared surface invisible; explicit "
        "capture lists keep it auditable.",
        check_cross_world_sharing,
    ),
    Rule(
        "DR013", "ordered-iteration",
        "No range-for/iterator loops over std::unordered_{map,set} unless "
        "provably order-insensitive or carrying a justification.",
        "Hash-map iteration order is libstdc++-internal state: it varies "
        "with insertion history, rehash points, and pointer values. One such "
        "loop feeding a trace, report, or summary silently breaks the "
        "byte-identical-traces contract the golden A/B suite and the "
        "campaign thread-count-independence tests pin. The analyzer proves "
        "a loop harmless only when every statement is a commutative scalar "
        "accumulation (+=, ++) with no other calls; everything else needs a "
        "sorted copy, a std::map, or an allow() with the argument written "
        "down.",
        check_ordered_iteration,
    ),
    Rule(
        "DR014", "wal-ordering",
        "Journal clients append to the write-ahead journal before mutating "
        "recovered state on every path through a function.",
        "Recovery replays the journal, nothing else: bits a peer mutated "
        "into its recovered state (the members its on_restart rebuilds) "
        "without first appending them are silently re-queried — or worse, "
        "double-counted — by the next incarnation, and the warm-vs-cold Q "
        "accounting in BENCH_recovery.json stops meaning anything. DR011 "
        "only fences ambient persistence; this rule checks the "
        "append-before-mutate order inside each function of every class "
        "that overrides on_restart, and that a queried download is appended "
        "before it is applied (on_restart included). A member counts as "
        "mutated when it is a mutator's receiver, an assignment's target, or "
        "an argument the callee takes by non-const reference.",
        check_wal_ordering,
    ),
]


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def analyze(root, frontend="fallback", compile_db=None, rules=None,
            warn=lambda msg: None):
    """Runs `rules` (ids; None = the whole catalog) over the tree at `root`
    with the given concrete frontend. Returns (program, findings): findings
    sorted, one per (rule, file, line), with suppressed ones dropped."""
    program = Program(root)
    if frontend == "libclang":
        lower_libclang(program, compile_db, warn)
    else:
        lower_fallback(program)
    unique = {}
    for rule in RULES:
        if rules is not None and rule.id not in rules:
            continue
        for f in rule.check(program):
            src = program.files[f.path]
            if f.rule in src.disabled or f.rule in src.allowed_on_line(f.line):
                continue
            unique.setdefault((f.path, f.line, f.rule), f)
    return program, [unique[k] for k in sorted(unique)]


def list_rules():
    out = []
    for r in RULES:
        out.append(f"{r.id}  {r.name}")
        out.append(f"    {r.summary}")
        for line in wrap(r.rationale, 72):
            out.append(f"      {line}")
    return "\n".join(out)


def wrap(text, width):
    words, lines, cur = text.split(), [], ""
    for w in words:
        if cur and len(cur) + 1 + len(w) > width:
            lines.append(cur)
            cur = w
        else:
            cur = f"{cur} {w}".strip()
    if cur:
        lines.append(cur)
    return lines


def to_sarif(findings, frontend):
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                    "master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "asyncdr-lint",
                "informationUri": "tools/asyncdr_lint.py",
                "properties": {"frontend": frontend},
                "rules": [{
                    "id": r.id,
                    "name": r.name,
                    "shortDescription": {"text": r.summary},
                    "fullDescription": {"text": r.rationale},
                    "defaultConfiguration": {"level": "error"},
                } for r in RULES],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "partialFingerprints": {"asyncdrLint/v1": f.fingerprint()},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": f.line},
                    },
                }],
            } for f in findings],
        }],
    }


def find_compile_db(root, explicit):
    if explicit:
        return explicit if os.path.isfile(explicit) else None
    for cand in ("build/compile_commands.json",
                 "build/dev/compile_commands.json"):
        path = os.path.join(root, cand)
        if os.path.isfile(path):
            return path
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="asyncdr model-conformance analyzer")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--frontend", choices=("auto", "libclang", "fallback"),
                    default="auto",
                    help="C++ frontend for the structural rules")
    ap.add_argument("--compile-db", default=None,
                    help="compile_commands.json (default: build/, build/dev)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--sarif", metavar="FILE",
                    help="write SARIF 2.1.0 report to FILE")
    args = ap.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: {root} does not look like the repo root (no src/)",
              file=sys.stderr)
        return 2

    def warn(msg):
        print(f"asyncdr-lint: warning: {msg}", file=sys.stderr)

    frontend = args.frontend
    db = find_compile_db(root, args.compile_db)
    if frontend == "auto":
        usable = db is not None and load_libclang() is not None
        frontend = "libclang" if usable else "fallback"
    if frontend == "libclang":
        if load_libclang() is None:
            print("asyncdr-lint: libclang (python3 clang.cindex) unavailable; "
                  "install python3-clang + libclang, or use "
                  "--frontend fallback", file=sys.stderr)
            return 77
        if db is None:
            print("asyncdr-lint: no compile_commands.json (configure with "
                  "cmake first, e.g. `cmake --preset dev`)", file=sys.stderr)
            return 2

    program, findings = analyze(root, frontend, db, warn=warn)

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            json.dump(to_sarif(findings, frontend), f, indent=2)
            f.write("\n")

    for f in findings:
        print(f.render())
    print(f"asyncdr-lint[{frontend}]: {len(program.files)} file(s), "
          f"{len(program.functions)} function(s), {len(findings)} "
          "finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
