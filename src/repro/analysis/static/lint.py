"""Repo contract linter: ``python -m repro.lint`` (stdlib ``ast`` only).

The dynamic layers (kernel equivalence tests, chaos suites, the sweep
engine's own validation) enforce this repo's contracts only on the paths a
test happens to execute. This linter enforces them *lexically*, across
every file, pre-merge:

=============  ==============================================================
REPRO-K001     public kernel in ``kernels/`` does not accept an explicit
               ``accumulate_dtype`` (the PR-5 precision contract)
REPRO-DET001   unseeded randomness in ``sweep/`` / ``faults/`` (global
               ``random.*``, legacy ``np.random.*``, seedless ``Random()`` /
               ``default_rng()``) — breaks the determinism rail
REPRO-DET002   wall-clock reads (``time.time``, ``datetime.now`` ...) in
               ``sweep/`` / ``faults/`` — same rail; ``monotonic``/``sleep``
               stay legal
REPRO-ALLOC001 full-tensor temporary in a blocked/fused kernel hot path
               (``np.*_like``, ``np.empty(x.shape)``, or an elementwise
               ufunc without ``out=``)
REPRO-META001  stale allowlist entry (matches nothing; reported under
               ``--strict`` so suppressions cannot outlive their code)
REPRO-C001     nested lock acquisition in ``sweep/``/``serve/``/``faults/``:
               a lock taken while another is held, directly or through a
               same-module call (:mod:`repro.analysis.concurrency.static`)
REPRO-C002     blocking call (``time.sleep``, file I/O, ``fcntl.flock``)
               while holding a lock
REPRO-C003     blocking call inside an ``async def`` body (the serve/ event
               loop must never block)
REPRO-C004     fork / pool dispatch while holding a lock
=============  ==============================================================

Suppression, two mechanisms (both carry the rule id so every exception is
greppable):

* inline — append ``# repro-lint: allow RULE-ID (reason)`` on the offending
  line (or the ``def`` line for K001);
* allowlist file — one entry per line in ``LINT_ALLOWLIST`` at the repo
  root: ``RULE-ID path[::symbol]  reason`` (symbol is the function name
  for K001, or a line number).

``--strict`` additionally fails on stale allowlist entries and runs the
graph verifier + precision-flow analysis (:mod:`repro.analysis.static`)
over a representative model x scenario x precision grid, so an ill-formed
or precision-unsound graph fails the lint job even when no unit test
builds that combination.

Exit-code contract (stable, for pre-commit hooks): 0 clean, 1 findings,
2 internal error.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency import static as _concurrency

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2

#: Directory names never linted: bytecode caches and on-disk sweep caches
#: that may sit inside a source checkout.
SKIP_DIRS = {"__pycache__", ".sweep_cache"}

#: Default allowlist filename, looked up at the repo root (two levels above
#: the ``repro`` package when running from a source checkout).
ALLOWLIST_NAME = "LINT_ALLOWLIST"

#: kernels/ modules exempt from the accumulate_dtype contract: they hold no
#: batch reductions (rounding helpers, tuning probes, verification utils).
K001_EXEMPT_MODULES = {"__init__.py", "bf16.py", "drift.py", "tune.py",
                       "verify.py"}

#: Modules whose hot paths must stream through reused scratch (ALLOC001).
ALLOC_SCOPE = {"kernels/blocked.py", "kernels/bn_relu_conv_fused.py"}

#: Elementwise ufuncs that allocate a full result tensor without ``out=``.
ALLOC_UFUNCS = {"maximum", "minimum", "multiply", "add", "subtract",
                "divide", "square", "sqrt", "exp"}
ALLOC_LIKE = {"empty_like", "zeros_like", "ones_like", "full_like"}
ALLOC_BARE = {"empty", "zeros", "ones", "full"}

#: Legal time functions under DET002 (interval measurement, pacing).
_WALLCLOCK_TIME_ATTRS = {"time", "time_ns", "localtime", "gmtime", "ctime",
                         "asctime", "strftime"}
_WALLCLOCK_DT_ATTRS = {"now", "utcnow", "today"}

_ALLOW_RE = re.compile(
    r"#\s*repro-lint:\s*allow\s+([A-Z0-9,\s-]+?)\s*(?:\(|$)")


@dataclass
class LintFinding:
    """One linter violation, anchored to a file/line with a stable rule id."""

    rule: str
    path: str  # package-relative posix path (e.g. "kernels/blocked.py")
    line: int
    symbol: str
    message: str
    allowed: bool = False
    allow_source: str = ""  # "" | "inline" | "allowlist"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "symbol": self.symbol, "message": self.message,
            "allowed": self.allowed, "allow_source": self.allow_source,
        }

    def __str__(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}{sym} {self.message}"


@dataclass
class AllowEntry:
    """One allowlist-file suppression: ``RULE-ID path[::symbol]  reason``."""

    rule: str
    path: str
    symbol: str
    reason: str
    lineno: int
    matched: int = 0

    def matches(self, finding: LintFinding) -> bool:
        if self.rule != finding.rule or self.path != finding.path:
            return False
        return (not self.symbol or self.symbol == finding.symbol
                or self.symbol == str(finding.line))


@dataclass
class LintReport:
    """Everything one lint run produced, pre-formatted for both outputs."""

    findings: List[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    strict: bool = False

    @property
    def active(self) -> List[LintFinding]:
        return [f for f in self.findings if not f.allowed]

    @property
    def suppressed(self) -> List[LintFinding]:
        return [f for f in self.findings if f.allowed]

    @property
    def clean(self) -> bool:
        return not self.active

    def to_dict(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for f in self.active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return {
            "clean": self.clean,
            "strict": self.strict,
            "files_checked": self.files_checked,
            "counts_by_rule": dict(sorted(counts.items())),
            "findings": [f.to_dict() for f in self.findings],
        }


# -- inline allow comments -----------------------------------------------------

def _inline_allows(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """1-indexed line -> rule ids allowed on that line (or the next)."""
    allows: Dict[int, Set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allows.setdefault(i, set()).update(rules)
    return allows


def _apply_inline_allows(findings: List[LintFinding],
                         allows: Dict[int, Set[str]]) -> None:
    for f in findings:
        here = allows.get(f.line, set()) | allows.get(f.line - 1, set())
        if f.rule in here:
            f.allowed = True
            f.allow_source = "inline"


# -- AST helpers ---------------------------------------------------------------

def _param_names(fn: ast.FunctionDef) -> Set[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return set(names)


def _dotted(expr: ast.expr) -> str:
    """Best-effort dotted name of a call target (``np.random.rand`` ...)."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _has_kw(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


# -- rules ---------------------------------------------------------------------

def _rule_k001(relpath: str, tree: ast.Module,
               findings: List[LintFinding]) -> None:
    if not relpath.startswith("kernels/"):
        return
    if Path(relpath).name in K001_EXEMPT_MODULES:
        return
    for stmt in tree.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        if stmt.name.startswith("_"):
            continue
        if "accumulate_dtype" not in _param_names(stmt):
            findings.append(LintFinding(
                "REPRO-K001", relpath, stmt.lineno, stmt.name,
                f"public kernel {stmt.name}() does not accept an explicit "
                f"accumulate_dtype (precision contract, docs/kernels.md)"))


def _rule_det(relpath: str, tree: ast.Module,
              findings: List[LintFinding]) -> None:
    if not (relpath.startswith("sweep/") or relpath.startswith("faults/")):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted:
            continue
        seeded = bool(node.args or node.keywords)
        if dotted == "random.Random" and not seeded:
            findings.append(LintFinding(
                "REPRO-DET001", relpath, node.lineno, "",
                "random.Random() without a seed (determinism rail: pass "
                "an explicit seed)"))
        elif dotted.startswith("random.") and dotted.count(".") == 1 \
                and dotted not in ("random.Random", "random.SystemRandom"):
            findings.append(LintFinding(
                "REPRO-DET001", relpath, node.lineno, "",
                f"{dotted}() draws from the global unseeded RNG "
                f"(determinism rail: use a seeded random.Random)"))
        elif dotted in ("np.random.default_rng", "numpy.random.default_rng"):
            if not seeded:
                findings.append(LintFinding(
                    "REPRO-DET001", relpath, node.lineno, "",
                    "np.random.default_rng() without a seed (determinism "
                    "rail: pass an explicit seed)"))
        elif dotted.startswith(("np.random.", "numpy.random.")):
            findings.append(LintFinding(
                "REPRO-DET001", relpath, node.lineno, "",
                f"{dotted}() uses numpy's legacy global RNG state "
                f"(determinism rail: use repro.config.rng)"))
        elif dotted == "time.clock" or (
                dotted.startswith("time.")
                and dotted.split(".", 1)[1] in _WALLCLOCK_TIME_ATTRS):
            findings.append(LintFinding(
                "REPRO-DET002", relpath, node.lineno, "",
                f"{dotted}() reads the wall clock (determinism rail: use "
                f"time.monotonic for intervals)"))
        elif dotted.split(".")[-1] in _WALLCLOCK_DT_ATTRS \
                and "datetime" in dotted.split("."):
            findings.append(LintFinding(
                "REPRO-DET002", relpath, node.lineno, "",
                f"{dotted}() reads the wall clock (determinism rail)"))


def _rule_alloc001(relpath: str, tree: ast.Module,
                   findings: List[LintFinding]) -> None:
    if relpath not in ALLOC_SCOPE:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted.startswith(("np.", "numpy.")):
            continue
        attr = dotted.split(".", 1)[1]
        if attr in ALLOC_LIKE:
            findings.append(LintFinding(
                "REPRO-ALLOC001", relpath, node.lineno, "",
                f"np.{attr} allocates a full-tensor temporary in a hot "
                f"path (stream through reused scratch instead)"))
        elif attr in ALLOC_BARE and node.args \
                and isinstance(node.args[0], ast.Attribute) \
                and node.args[0].attr == "shape":
            findings.append(LintFinding(
                "REPRO-ALLOC001", relpath, node.lineno, "",
                f"np.{attr}(<tensor>.shape) allocates a full-tensor "
                f"temporary in a hot path"))
        elif attr in ALLOC_UFUNCS and not _has_kw(node, "out"):
            findings.append(LintFinding(
                "REPRO-ALLOC001", relpath, node.lineno, "",
                f"np.{attr} without out= allocates a full-tensor "
                f"temporary in a hot path"))


def _rule_concurrency(relpath: str, tree: ast.Module,
                      findings: List[LintFinding]) -> None:
    """The REPRO-C family (C001-C004)."""
    for c in _concurrency.file_findings(relpath, tree):
        findings.append(LintFinding(*c))


#: The rules :func:`lint_source` runs over every file.
_RULES = (_rule_k001, _rule_det, _rule_alloc001, _rule_concurrency)


# -- driving -------------------------------------------------------------------

def lint_source(source: str, relpath: str) -> List[LintFinding]:
    """Lint one source blob as if it lived at *relpath* in the package.

    Inline ``# repro-lint: allow`` comments are applied; the file allowlist
    is the caller's business (:func:`run_lint`).
    """
    tree = ast.parse(source, filename=relpath)
    findings: List[LintFinding] = []
    for rule in _RULES:
        rule(relpath, tree, findings)
    _apply_inline_allows(findings, _inline_allows(source.splitlines()))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def package_root() -> Path:
    """Directory of the ``repro`` package being linted."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_allowlist_path() -> Path:
    """``LINT_ALLOWLIST`` at the repo root of a source checkout."""
    return package_root().parent.parent / ALLOWLIST_NAME


def parse_allowlist(path: Path) -> List[AllowEntry]:
    entries: List[AllowEntry] = []
    if not path.is_file():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ValueError(
                f"{path}:{lineno}: malformed allowlist entry {raw!r} "
                f"(expected: RULE-ID path[::symbol]  reason)")
        rule, location = parts[0], parts[1]
        reason = parts[2] if len(parts) > 2 else ""
        loc_path, _, symbol = location.partition("::")
        entries.append(AllowEntry(rule, loc_path, symbol, reason, lineno))
    return entries


def _normalize_paths(root: Path, paths: Sequence[str]) -> List[str]:
    """Map user-supplied paths (absolute, repo-relative ``src/repro/...``,
    ``repro/...``, or package-relative) to package-relative posix form.

    Raises :class:`ValueError` for paths that cannot live under the
    package — a typo must fail loudly, never lint zero files and report
    the tree clean.
    """
    normalized = []
    for raw in paths:
        p = Path(raw)
        if p.is_absolute():
            try:
                p = p.relative_to(root)
            except ValueError:
                raise ValueError(
                    f"path {raw!r} is outside the linted package {root}")
        rel = p.as_posix()
        for prefix in ("src/repro/", "repro/"):
            if rel.startswith(prefix):
                rel = rel[len(prefix):]
                break
        normalized.append(rel.rstrip("/"))
    return normalized


def _apply_allowlist(findings: List[LintFinding],
                     entries: List[AllowEntry]) -> None:
    for f in findings:
        if f.allowed:
            continue
        for entry in entries:
            if entry.matches(f):
                entry.matched += 1
                f.allowed = True
                f.allow_source = "allowlist"
                break


def run_lint(root: Optional[Path] = None,
             allowlist_path: Optional[Path] = None,
             strict: bool = False,
             paths: Optional[Sequence[str]] = None) -> LintReport:
    """Lint the package tree; return a :class:`LintReport`.

    *paths*, when given, restricts the run to those files or directories
    (package-relative, ``src/repro/``-prefixed, or absolute); a path that
    matches nothing raises :class:`ValueError`. ``strict`` adds
    stale-allowlist (META001) findings and the graph verification /
    precision-flow sweep.
    """
    root = root or package_root()
    allowlist_path = allowlist_path or default_allowlist_path()
    entries = parse_allowlist(allowlist_path)

    report = LintReport(strict=strict)
    wanted = _normalize_paths(root, paths) if paths else None
    matched: set = set()
    for py in sorted(root.rglob("*.py")):
        relparts = py.relative_to(root).parts
        if any(part in SKIP_DIRS for part in relparts[:-1]):
            continue
        relpath = "/".join(relparts)
        if wanted is not None:
            hits = [w for w in wanted
                    if relpath == w or relpath.startswith(w + "/")]
            if not hits:
                continue
            matched.update(hits)
        report.files_checked += 1
        try:
            source = py.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {relpath}: {exc}") from exc
        try:
            findings = lint_source(source, relpath)
        except SyntaxError as exc:
            raise ValueError(
                f"cannot parse {relpath}: line {exc.lineno}: "
                f"{exc.msg}") from exc
        _apply_allowlist(findings, entries)
        report.findings.extend(findings)

    if wanted is not None:
        missing = [w for w in wanted if w not in matched]
        if missing:
            raise ValueError(
                "no python files under the package match: "
                + ", ".join(sorted(missing)))

    if strict:
        for entry in entries:
            if entry.matched == 0:
                report.findings.append(LintFinding(
                    "REPRO-META001", allowlist_path.name, entry.lineno,
                    entry.symbol,
                    f"stale allowlist entry: {entry.rule} {entry.path}"
                    f"{'::' + entry.symbol if entry.symbol else ''} "
                    f"matches no finding"))
        if wanted is None:
            report.findings.extend(strict_graph_findings())

    report.findings.sort(key=lambda f: (f.rule, f.path, f.line))
    return report


#: The graphs ``--strict`` verifies: representative of every topology family
#: (plain chain, residual EWS, dense concat, depthwise, inception branches)
#: while staying a few seconds of pure-python work.
STRICT_MODELS = ("tiny_cnn", "tiny_resnet", "tiny_densenet",
                 "tiny_mobilenet", "tiny_inception", "resnet50",
                 "densenet121")
STRICT_PRECISIONS = ("fp32", "fp16")
STRICT_BATCH = 4


def strict_graph_findings() -> List[LintFinding]:
    """Verify + precision-check every strict model x scenario x precision.

    Each graph finding becomes a lint finding whose path is the synthetic
    ``<graph:model/scenario@precision>`` location, so text/json output and
    the allowlist mechanism treat static graph analysis uniformly with the
    AST rules.
    """
    from repro.analysis.static.precision_flow import analyze_precision_flow
    from repro.analysis.static.verifier import check_graph
    from repro.models.registry import build_model
    from repro.passes.scenarios import SCENARIO_ORDER, apply_scenario
    from repro.sweep.cache import retype_graph

    findings: List[LintFinding] = []
    for model in STRICT_MODELS:
        for precision in STRICT_PRECISIONS:
            base = build_model(model, batch=STRICT_BATCH)
            if precision != "fp32":
                base = retype_graph(base, precision)
            for scenario in SCENARIO_ORDER:
                graph, _ = apply_scenario(base, scenario)
                where = f"<graph:{model}/{scenario}@{precision}>"
                for g in list(check_graph(graph)) \
                        + list(analyze_precision_flow(graph)):
                    findings.append(LintFinding(
                        g.rule, where, 0, g.subject, g.message))
    return findings


# -- output --------------------------------------------------------------------

def format_text(report: LintReport) -> str:
    """Group findings by rule id, then file — the CI-facing layout."""
    lines: List[str] = []
    active = report.active
    by_rule: Dict[str, List[LintFinding]] = {}
    for f in active:
        by_rule.setdefault(f.rule, []).append(f)
    for rule in sorted(by_rule):
        lines.append(f"{rule} ({len(by_rule[rule])} finding"
                     f"{'s' if len(by_rule[rule]) != 1 else ''})")
        by_file: Dict[str, List[LintFinding]] = {}
        for f in by_rule[rule]:
            by_file.setdefault(f.path, []).append(f)
        for path in sorted(by_file):
            lines.append(f"  {path}")
            for f in sorted(by_file[path], key=lambda f: f.line):
                sym = f" [{f.symbol}]" if f.symbol else ""
                lines.append(f"    line {f.line}{sym}: {f.message}")
        lines.append("")
    suppressed = report.suppressed
    summary = (f"{report.files_checked} files checked, "
               f"{len(active)} finding{'s' if len(active) != 1 else ''}, "
               f"{len(suppressed)} suppressed")
    if report.clean:
        lines.append(f"clean: {summary}")
    else:
        lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static contract linter + graph verifier for the repro "
                    "repo (rule catalog: docs/analysis.md). Exit codes: "
                    "0 clean, 1 findings, 2 internal error.",
    )
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="package-relative files to lint "
                             "(default: the whole repro package)")
    parser.add_argument("--strict", action="store_true",
                        help="also fail on stale allowlist entries and run "
                             "graph verification + precision-flow analysis "
                             "over the model x scenario x precision grid")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        metavar="FILE",
                        help=f"allowlist file (default: {ALLOWLIST_NAME} "
                             f"at the repo root)")
    args = parser.parse_args(argv)

    try:
        report = run_lint(allowlist_path=args.allowlist, strict=args.strict,
                          paths=args.paths or None)
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"repro.lint: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_text(report))
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS
