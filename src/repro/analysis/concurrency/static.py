"""Static lock-discipline analysis: the ``REPRO-C`` lint family.

Per-file rules over the concurrent layers (``sweep/``, ``serve/``,
``faults/``), from stdlib ``ast`` alone, checking the discipline the
runtime relies on (docs/sweeps.md, docs/serving.md):

=============  ==============================================================
REPRO-C001     nested lock acquisition: a lock taken while another is held,
               directly or through a call to a same-module function that
               takes one — with no nesting, lock order cannot form a cycle
REPRO-C002     blocking call (``time.sleep``, file I/O, ``fcntl.flock``)
               while holding a lock — stalls every thread contending the
               lock
REPRO-C003     blocking call in an ``async def`` body — stalls the whole
               event loop (serve/ is loop-confined by design)
REPRO-C004     fork / pool dispatch while holding a lock — a forked child
               inherits the held lock's state and can deadlock on it
=============  ==============================================================

Lock identification is lexical: a ``with`` (or ``async with``) whose
context expression's terminal name looks lock-ish (``lock``, ``stripe``,
``mutex``, ``semaphore``) — including a lock-returning call such as
``with self._shard_lock(s):`` — a subscript into such a table
(``self._locks[i]``), an alias assigned from either, or a direct
``fcntl.flock`` call (held for the remainder of its lexical block).
Findings name locks as ``<module>:<qualifier>``, e.g.
``sweep.cache:GraphCache._lock``.

C001 resolves calls within the file only — ``self.m()`` to a method of
the enclosing class, a bare ``f()`` to a function of the module — and
flags the call when the callee's own body takes a lock. It does not
follow calls into other modules, or through a callee into a further
call; unresolvable calls are ignored.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, \
    Tuple

#: Package-relative path prefixes the concurrency rules cover.
SCOPE_PREFIXES = ("sweep/", "serve/", "faults/")

#: Call targets that block the calling thread (C002 under a lock, C003 in
#: an async body). ``open``/``os.open`` cover file I/O; pool dispatch is
#: handled separately (C004) so each finding names one discipline.
BLOCKING_CALLS = {
    "time.sleep", "fcntl.flock", "open", "os.open", "os.fdopen",
    "tempfile.mkstemp", "tempfile.NamedTemporaryFile", "shutil.rmtree",
    "subprocess.run", "subprocess.Popen", "subprocess.check_call",
    "subprocess.check_output", "socket.create_connection",
}

#: Terminal attribute names that block regardless of receiver (pathlib-style
#: whole-file I/O).
BLOCKING_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}

#: Pool/fork entry points (C004 when called under a lock; C003 in async).
FORK_CALLS = {"os.fork", "multiprocessing.Pool", "multiprocessing.Process",
              "multiprocessing.get_context", "ProcessPoolExecutor",
              "concurrent.futures.ProcessPoolExecutor"}

#: Dispatch/teardown methods that block or fork when the receiver is a pool.
POOL_DISPATCH_ATTRS = {"apply", "apply_async", "map", "map_async", "imap",
                       "imap_unordered", "starmap", "starmap_async", "join"}

_LOCKISH_RE = re.compile(r"(?i)(?<![a-z])(?:lock|stripe|mutex|semaphore)s?"
                         r"(?![a-z])")


class CFinding(NamedTuple):
    """A concurrency finding; field order matches ``LintFinding``'s init."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str


def in_scope(relpath: str) -> bool:
    return relpath.startswith(SCOPE_PREFIXES)


def _module_of(relpath: str) -> str:
    return relpath[:-3].replace("/", ".") if relpath.endswith(".py") \
        else relpath.replace("/", ".")


def _lockish(name: str) -> bool:
    return bool(_LOCKISH_RE.search(name))


def _dotted(expr: ast.expr) -> str:
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# -- per-function collection ---------------------------------------------------

class _Acq(NamedTuple):
    lock: str
    line: int
    held: Tuple[str, ...]


class _CallEv(NamedTuple):
    dotted: str
    recv: str  # dotted minus the terminal attribute ("" for bare names)
    line: int
    held: Tuple[str, ...]


class _FuncInfo:
    def __init__(self, name: str, is_async: bool) -> None:
        self.name = name
        self.is_async = is_async
        self.acqs: List[_Acq] = []
        self.calls: List[_CallEv] = []


#: (class name or ``None``, function name) -> what its body does.
_FuncTable = Dict[Tuple[Optional[str], str], _FuncInfo]


def _key_sort(key: Tuple[Optional[str], str]) -> Tuple[str, str]:
    return (key[0] or "", key[1])


def _analyze_function(fn: ast.AST, module: str, cls: Optional[str],
                      out: _FuncTable) -> None:
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    key = (cls, fn.name)
    info = _FuncInfo(fn.name, isinstance(fn, ast.AsyncFunctionDef))
    if key not in out:  # first definition wins (nested shadows are rare)
        out[key] = info
    aliases: Dict[str, str] = {}
    flock_id = f"{module}:flock"

    def lock_id_of(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            if expr.id in aliases:
                return aliases[expr.id]
            if _lockish(expr.id):
                return f"{module}:{expr.id}"
            return None
        if isinstance(expr, ast.Attribute):
            if not _lockish(expr.attr):
                return None
            if isinstance(expr.value, ast.Name) and expr.value.id == "self" \
                    and cls:
                return f"{module}:{cls}.{expr.attr}"
            dotted = _dotted(expr)
            return f"{module}:{dotted}" if dotted else f"{module}:{expr.attr}"
        if isinstance(expr, ast.Subscript):
            return lock_id_of(expr.value)
        if isinstance(expr, ast.Call):
            return lock_id_of(expr.func)
        return None

    def record_calls(expr: ast.expr, held: Tuple[str, ...]) -> List[int]:
        """Record every call inside *expr*; return flock-call line numbers."""
        flock_lines: List[int] = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted:
                continue
            recv = dotted.rsplit(".", 1)[0] if "." in dotted else ""
            info.calls.append(_CallEv(dotted, recv, node.lineno, held))
            if dotted == "fcntl.flock":
                flock_lines.append(node.lineno)
        return flock_lines

    def own_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.expr):
                        yield v

    def child_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value \
                    and isinstance(value[0], ast.stmt):
                yield value
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.ExceptHandler):
                        yield v.body
                    elif v.__class__.__name__ == "match_case":
                        yield v.body  # type: ignore[union-attr]

    def note_flocks(lines: List[int], held: List[str]) -> None:
        for line in lines:
            info.acqs.append(_Acq(flock_id, line, tuple(held)))
            if flock_id not in held:
                held.append(flock_id)

    def visit_block(stmts: Sequence[ast.stmt],
                    held_in: Sequence[str]) -> None:
        held: List[str] = list(held_in)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _analyze_function(stmt, module, cls, out)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner: List[str] = list(held)
                for item in stmt.items:
                    note_flocks(record_calls(item.context_expr, tuple(inner)),
                                inner)
                    lid = lock_id_of(item.context_expr)
                    if lid:
                        info.acqs.append(
                            _Acq(lid, item.context_expr.lineno, tuple(inner)))
                        inner.append(lid)
                visit_block(stmt.body, inner)
                continue
            if isinstance(stmt, ast.Assign):
                lid = lock_id_of(stmt.value)
                if lid:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            aliases[target.id] = lid
            for expr in own_exprs(stmt):
                note_flocks(record_calls(expr, tuple(held)), held)
            for body in child_bodies(stmt):
                visit_block(body, held)

    visit_block(fn.body, ())


def _collect_module(relpath: str, tree: ast.Module) -> _FuncTable:
    module = _module_of(relpath)
    funcs: _FuncTable = {}

    def walk(body: Sequence[ast.stmt], cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _analyze_function(node, module, cls, funcs)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, node.name)

    walk(tree.body, None)
    return funcs


def _callee(funcs: _FuncTable, cls: Optional[str],
            dotted: str) -> Optional[_FuncInfo]:
    """The same-module function a call resolves to, if any.

    ``self.m()`` is a method of the enclosing class; a bare ``f()`` is a
    module function, or else a closure defined inside a method of the
    enclosing class (closures are collected under their class).
    """
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] == "self" and cls:
        return funcs.get((cls, parts[1]))
    if len(parts) == 1:
        return funcs.get((None, dotted)) or funcs.get((cls, dotted))
    return None


# -- the rules -----------------------------------------------------------------

def file_findings(relpath: str, tree: ast.Module) -> List[CFinding]:
    """The REPRO-C rules for one file (none outside the scoped layers)."""
    if not in_scope(relpath):
        return []
    funcs = _collect_module(relpath, tree)
    findings: List[CFinding] = []
    for key in sorted(funcs, key=_key_sort):
        f = funcs[key]
        nested: Dict[int, CFinding] = {}  # one C001 per line
        for acq in f.acqs:
            if acq.held:
                nested.setdefault(acq.line, CFinding(
                    "REPRO-C001", relpath, acq.line, f.name,
                    f"acquires {acq.lock} while holding "
                    f"{', '.join(acq.held)} — nested lock acquisition "
                    f"(take one lock at a time, docs/analysis.md)"))
        for call in f.calls:
            callee = _callee(funcs, key[0], call.dotted)
            if call.held and callee is not None and callee.acqs:
                nested.setdefault(call.line, CFinding(
                    "REPRO-C001", relpath, call.line, f.name,
                    f"{call.dotted}() acquires {callee.acqs[0].lock} "
                    f"while the caller holds {', '.join(call.held)} — "
                    f"nested lock acquisition (take one lock at a time, "
                    f"docs/analysis.md)"))
            blocking = _is_blocking(call)
            forking = _is_forking(call)
            if blocking and call.held:
                findings.append(CFinding(
                    "REPRO-C002", relpath, call.line, f.name,
                    f"blocking call {call.dotted}() while holding "
                    f"{', '.join(call.held)} — stalls every thread "
                    f"contending the lock"))
            if (blocking or forking) and f.is_async:
                findings.append(CFinding(
                    "REPRO-C003", relpath, call.line, f.name,
                    f"blocking call {call.dotted}() inside async def "
                    f"{f.name} — stalls the event loop (use "
                    f"run_in_executor, docs/serving.md)"))
            if forking and call.held:
                findings.append(CFinding(
                    "REPRO-C004", relpath, call.line, f.name,
                    f"{call.dotted}() forks/dispatches to a worker pool "
                    f"while holding {', '.join(call.held)} — a forked "
                    f"child inherits the lock state and can deadlock"))
        findings.extend(nested.values())
    return findings


def _is_blocking(call: _CallEv) -> bool:
    if call.dotted in BLOCKING_CALLS:
        return True
    return call.dotted.rsplit(".", 1)[-1] in BLOCKING_ATTRS


def _is_forking(call: _CallEv) -> bool:
    if call.dotted in FORK_CALLS:
        return True
    last = call.dotted.rsplit(".", 1)[-1]
    return last in POOL_DISPATCH_ATTRS and "pool" in call.recv.lower()
