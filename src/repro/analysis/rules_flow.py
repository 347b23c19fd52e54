"""The flow-aware lint rules (RPR008..RPR011).

These rules guard invariants of the serve daemon's ownership model,
the fork pool and the governed kernels — structure a purely syntactic
scan cannot see, hence the CFG/dataflow machinery of
:mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow` and the
provenance tracker of :mod:`repro.analysis.provenance`:

RPR008
    A session's ``Manager``/handle table belongs to the connection
    thread that created the session, and its verbs run under the fair
    token (``token.run(key, session.execute, ...)``: one call per
    session at a time, round-robin across sessions).  Touching
    ``session.manager`` (or calling ``session.execute``) anywhere else
    — stats snapshots on another thread, module globals, thread
    targets — races the owner or skips the token.
RPR009
    Payloads crossing the fork pool's pipes are pickled; a ``Task``
    payload capturing a Manager/Function/store/session, a lambda, or a
    nested closure breaks (or silently degrades) the worker protocol,
    and so does a worker callable that is not a module-level function.
RPR010
    Every cycle in a governed kernel function must contain a governor
    checkpoint call *inside the cycle's strongly connected component*.
    A checkpoint on a ``break``/``return`` path leaves the component
    and does not count.  A ``for`` cycle whose only calls are cheap
    container operations is proven safe without a pragma; a ``while``
    cycle never is, because cheap iterations do not bound a worklist
    loop that runs as long as the graph is big.
RPR011
    A ``store.mk(...)``/``incref(...)`` result must reach a root
    registration, a deref, or any other consuming use on *every* CFG
    path out of the function; a path that drops the handle leaks an
    unrooted node (forward may-analysis of pending handle names).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePath

from .cfg import build_cfg
from .dataflow import Fact, ForwardAnalysis
from .lint import FileContext, Violation, register_rule
from .provenance import FUNCTION, MANAGER, SESSION, STORE, ScopeProvenance
from .rules import (NODE_FACTORY_SUFFIXES, _collect_functions,
                    _is_checkpoint_ref, _path_matches,
                    is_governed_module)

#: Serve modules: everything under ``repro/serve/`` is written against
#: the session-ownership discipline; the pragma lets the rule corpus
#: exercise it from fixture files.
_SERVE_FRAGMENT = "repro/serve/"


def is_serve_module(ctx: FileContext) -> bool:
    """Serve modules by path — or by a ``serve`` pragma."""
    if _SERVE_FRAGMENT in PurePath(ctx.path).as_posix():
        return True
    return any("# repro-lint: serve" in line
               for line in ctx.source.splitlines()[:10])


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own code, not the bodies of nested defs."""
    stack: list[ast.AST] = [func]
    while stack:
        node = stack.pop()
        if node is not func and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _callee_parts(call: ast.Call) -> tuple[str | None, str | None]:
    """``(receiver simple name, method/function name)`` of a call."""
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id, func.attr
        return "", func.attr
    return None, None


# ----------------------------------------------------------------------
# RPR008 — sessions must not escape their connection thread and token
# ----------------------------------------------------------------------

#: Session attributes owned by the connection thread: the manager and
#: the handle table.  ``session.id``/``session.requests``/``close()``
#: are safe from any thread by design (plain-int/str reads, no kernel
#: access).
_SESSION_OWNED_ATTRS = frozenset({"manager", "_functions", "_by_key"})

#: Session methods that run kernel work inline when called directly.
_SESSION_KERNEL_METHODS = frozenset({"execute"})


def _token_run_argument_ids(func: ast.AST) -> set[int]:
    """ids of every node inside ``<x>.run(...)`` arguments.

    Attribute references like ``session.execute`` passed *into* the
    fair token's ``run`` are the sanctioned way to run session work.
    """
    exempt: set[int] = set()
    for node in _own_nodes(func):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "run":
            for arg in list(node.args) + [kw.value
                                          for kw in node.keywords]:
                exempt.update(id(sub) for sub in ast.walk(arg))
    return exempt


@register_rule(
    "RPR008", "session-escape", "error",
    "A session's Manager or handle table is touched outside the "
    "session's own methods and outside the fair token's run(...) — "
    "that races the connection thread that owns the session or skips "
    "the token; go through token.run or publish plain-value counters "
    "instead.")
def check_session_escape(ctx: FileContext) -> Iterator[Violation]:
    if not is_serve_module(ctx):
        return
    for info in _collect_functions(ctx.tree):
        if info.classname == "Session" \
                or info.qualname.startswith("Session."):
            continue  # the owner itself
        prov = ScopeProvenance.scan(info.node)
        sessions = prov.names(SESSION)
        if not sessions:
            continue
        exempt = _token_run_argument_ids(info.node)
        declared_globals: set[str] = set()
        for node in _own_nodes(info.node):
            if isinstance(node, ast.Global):
                declared_globals.update(node.names)
        for node in _own_nodes(info.node):
            if isinstance(node, ast.Attribute) \
                    and node.attr in _SESSION_OWNED_ATTRS \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in sessions \
                    and id(node) not in exempt:
                yield ctx.violation(
                    "RPR008", node,
                    f"session-owned state "
                    f"{node.value.id}.{node.attr} accessed outside "
                    f"the fair token's run; the session's connection "
                    f"thread owns it")
            elif isinstance(node, ast.Call):
                receiver, name = _callee_parts(node)
                if receiver in sessions \
                        and name in _SESSION_KERNEL_METHODS \
                        and id(node) not in exempt:
                    yield ctx.violation(
                        "RPR008", node,
                        f"{receiver}.{name}() called outside "
                        f"the fair token's run; session verbs must be "
                        f"passed to token.run")
                elif name == "Thread":
                    for arg in list(node.args) + \
                            [kw.value for kw in node.keywords]:
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Name) \
                                    and sub.id in sessions:
                                yield ctx.violation(
                                    "RPR008", sub,
                                    f"session {sub.id!r} handed to a "
                                    f"Thread; a session is owned by "
                                    f"the connection thread that "
                                    f"created it")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id in declared_globals \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id in sessions:
                        yield ctx.violation(
                            "RPR008", node,
                            f"session {node.value.id!r} published to "
                            f"module global {target.id!r}; sessions "
                            f"must stay private to their connection")


# ----------------------------------------------------------------------
# RPR009 — fork-pool payload and worker capture
# ----------------------------------------------------------------------

_UNPICKLABLE_KINDS = frozenset({MANAGER, FUNCTION, STORE, SESSION})


def _payload_expr(call: ast.Call) -> ast.expr | None:
    """The payload argument of a ``Task(key, payload)`` call."""
    for keyword in call.keywords:
        if keyword.arg == "payload":
            return keyword.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _capture_findings(payload: ast.expr, nested_defs: set[str],
                      prov: ScopeProvenance
                      ) -> Iterator[tuple[ast.AST, str]]:
    """Unpicklable things referenced *directly* in a payload expr.

    Anything nested inside a further call is the call's *input*, not
    necessarily part of the payload value (``payload=spec_of(manager)``
    is the sanctioned spec-conversion idiom), so only top-level
    references are flagged.
    """
    inside_calls: set[int] = set()
    for node in ast.walk(payload):
        if isinstance(node, ast.Call):
            for sub in ast.walk(node):
                if sub is not node:
                    inside_calls.add(id(sub))
    for node in ast.walk(payload):
        if id(node) in inside_calls:
            continue
        if isinstance(node, ast.Lambda):
            yield node, "a lambda (not picklable)"
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load):
            if node.id in nested_defs:
                yield node, (f"nested function {node.id!r} "
                             f"(not picklable)")
            elif prov.kind(node.id) in _UNPICKLABLE_KINDS:
                yield node, (f"{node.id!r} holds a "
                             f"{prov.kind(node.id)} (BDD runtime "
                             f"objects are not picklable)")


@register_rule(
    "RPR009", "fork-capture", "warning",
    "A fork-pool task payload captures something the pipe cannot "
    "pickle (lambda, closure, Manager/Function/store/session), or a "
    "run_tasks worker callable is a lambda or closure — both break "
    "the fork worker protocol.")
def check_fork_capture(ctx: FileContext) -> Iterator[Violation]:
    for info in _collect_functions(ctx.tree):
        nested_defs = {node.name for node in ast.walk(info.node)
                       if node is not info.node and isinstance(
                           node, (ast.FunctionDef,
                                  ast.AsyncFunctionDef))}
        prov = ScopeProvenance.scan(info.node)
        for node in _own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            _receiver, name = _callee_parts(node)
            if name == "Task":
                payload = _payload_expr(node)
                if payload is None:
                    continue
                for bad, why in _capture_findings(
                        payload, nested_defs, prov):
                    yield ctx.violation(
                        "RPR009", bad,
                        f"Task payload captures {why}; payloads cross "
                        f"the worker pipe pickled — ship a spec and "
                        f"rebuild in the worker")
            elif name == "run_tasks" and node.args:
                worker = node.args[0]
                if isinstance(worker, ast.Lambda) or (
                        isinstance(worker, ast.Name)
                        and worker.id in nested_defs):
                    yield ctx.violation(
                        "RPR009", worker,
                        "worker callable must be an importable "
                        "module-level function; a lambda/closure "
                        "breaks under the spawn start method")


# ----------------------------------------------------------------------
# RPR010 — every governed cycle passes through a checkpoint (CFG proof)
# ----------------------------------------------------------------------

#: Container/O(1) operations that cannot run unbounded kernel work; a
#: ``for`` cycle whose calls are all of this shape is provably cheap
#: and needs no checkpoint.
_TRIVIAL_ATTR_CALLS = frozenset({
    "pop", "popleft", "append", "appendleft", "add", "discard",
    "remove", "extend", "update", "get", "items", "keys", "values",
    "setdefault", "clear",
})
_TRIVIAL_NAME_CALLS = frozenset({
    "len", "min", "max", "abs", "id", "isinstance", "iter", "next",
    "range", "zip", "enumerate", "reversed", "sorted", "tuple",
    "list", "set", "dict", "frozenset", "bool", "int",
})


def _checkpoint_aliases(tree: ast.Module) -> set[str]:
    """``check = manager.governor.checkpoint`` hot-loop aliases."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and _is_checkpoint_ref(node.value):
            aliases.add(node.targets[0].id)
    return aliases


def _has_checkpoint(stmt: ast.AST, aliases: set[str]) -> bool:
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if _is_checkpoint_ref(func):
            return True
        if isinstance(func, ast.Name) and func.id in aliases:
            return True
    return False


def _nontrivial_calls(stmts: list[ast.AST]) -> list[ast.Call]:
    out: list[ast.Call] = []
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _TRIVIAL_ATTR_CALLS:
                continue
            if isinstance(func, ast.Name) \
                    and func.id in _TRIVIAL_NAME_CALLS:
                continue
            out.append(node)
    return out


def _cycle_location(stmts: list[ast.AST]) -> tuple[int, int]:
    located = [(stmt.lineno, stmt.col_offset) for stmt in stmts
               if hasattr(stmt, "lineno")]
    return min(located) if located else (1, 0)


@register_rule(
    "RPR010", "governed-cycle-checkpoint", "error",
    "A cycle in a governed kernel function never passes through a "
    "governor checkpoint (CFG strongly-connected-component proof): "
    "a while-loop, a for-loop doing kernel work, or a loop whose only "
    "checkpoint sits on a break/return path can spin without budgets "
    "or deadlines being able to abort it.")
def check_governed_cycle_checkpoint(ctx: FileContext
                                    ) -> Iterator[Violation]:
    if not is_governed_module(ctx):
        return
    aliases = _checkpoint_aliases(ctx.tree)
    for info in _collect_functions(ctx.tree):
        while_tests = {id(node.test) for node in ast.walk(info.node)
                       if isinstance(node, ast.While)}
        cfg = build_cfg(info.node)
        for component in cfg.cycles():
            stmts = list(cfg.statements(component))
            if any(_has_checkpoint(stmt, aliases) for stmt in stmts):
                continue
            # A for cycle over container work is bounded by what it
            # iterates; a while cycle runs as long as its test holds,
            # and a worklist drains as slowly as the graph is big.
            is_while = any(id(stmt) in while_tests for stmt in stmts)
            if not is_while and not _nontrivial_calls(stmts):
                continue
            line, col = _cycle_location(stmts)
            yield ctx.violation(
                "RPR010", (line, col),
                f"cycle in governed kernel {info.qualname!r} has no "
                f"governor checkpoint on its looping paths; tick "
                f"Governor.checkpoint(op) inside the cycle (a "
                f"checkpoint on a break/return path does not count)")


# ----------------------------------------------------------------------
# RPR011 — mk/incref results must be consumed on every path
# ----------------------------------------------------------------------

def _is_handle_source(value: ast.expr, aliases: set[str]) -> bool:
    """``<store>.mk(...)`` / ``<store>.incref(...)`` (or an alias)."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in aliases
    if not isinstance(func, ast.Attribute) \
            or func.attr not in ("mk", "incref"):
        return False
    for node in ast.walk(func.value):
        if isinstance(node, ast.Name) and "store" in node.id:
            return True
        if isinstance(node, ast.Attribute) and "store" in node.attr:
            return True
    return False


def _mk_aliases(tree: ast.Module) -> set[str]:
    """``mk = store.mk`` hot-loop aliases (kernel idiom)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr in ("mk", "incref"):
            receiver = node.value.value
            for sub in ast.walk(receiver):
                if (isinstance(sub, ast.Name)
                        and "store" in sub.id) or \
                        (isinstance(sub, ast.Attribute)
                         and "store" in sub.attr):
                    aliases.add(node.targets[0].id)
    return aliases


def is_refcounted_module(ctx: FileContext) -> bool:
    """Node-factory modules by path — or by a ``refs`` pragma."""
    if _path_matches(ctx.path, NODE_FACTORY_SUFFIXES):
        return True
    return any("# repro-lint: refs" in line
               for line in ctx.source.splitlines()[:10])


@register_rule(
    "RPR011", "ref-deref-pairing", "warning",
    "A store.mk()/incref() result is dropped on some control-flow "
    "path without reaching a root registration, a deref, or any "
    "consuming use — an unrooted node that silently leaks until the "
    "next GC sweep.")
def check_ref_deref_pairing(ctx: FileContext) -> Iterator[Violation]:
    if not is_refcounted_module(ctx):
        return
    aliases = _mk_aliases(ctx.tree)
    for info in _collect_functions(ctx.tree):
        gen_sites: dict[str, ast.AST] = {}

        def transfer(stmt: ast.AST, fact: Fact) -> Fact:
            if isinstance(stmt, ast.Raise):
                # Exception unwinding is not a leak path: the pending
                # node is reclaimed by the next GC like any garbage.
                return frozenset()
            loaded = {node.id for node in ast.walk(stmt)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)}
            fact = fact - loaded
            if isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if _is_handle_source(stmt.value, aliases):
                    gen_sites.setdefault(name, stmt)
                    return fact | {name}
                return fact - {name}
            return fact

        cfg = build_cfg(info.node)
        analysis = ForwardAnalysis(cfg, transfer).run()
        pending: set[str] = set()
        for block in cfg.blocks.values():
            if cfg.exit in block.successors:
                pending |= analysis.fact_out(block.id)
        for name in sorted(pending):
            site = gen_sites.get(name)
            if site is None:
                continue
            yield ctx.violation(
                "RPR011", site,
                f"handle {name!r} from store.mk()/incref() can leave "
                f"{info.qualname!r} unused on some path; root it "
                f"(Function/table insert) or deref it on every path")
