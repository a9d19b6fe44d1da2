"""The initial invariant rule pack: REP001 — REP008.

Every rule encodes an invariant a previous PR established by hand and
the test suite can only sample:

==========  ==============================================================
``REP001``  Float accumulation must be explicit and ordered (no ``sum``/
            ``np.sum``/``math.fsum`` over float terms, no accumulating
            out of ``set``/``dict.values()`` iteration) in ``optimizer/``,
            ``sla/``, ``availability/``, ``cost/`` and
            ``broker/telemetry.py`` — the scalar kernel's bit-identity
            with the full-topology oracle, shared model-table rows and
            byte-identical reports across interpreters all depend on
            exact operation order.
``REP002``  No blocking calls (pool shutdown, engine close, joins,
            socket/file IO) while holding a fast lock (``self._lock``) —
            the PR 5 eviction deadlock class.
``REP003``  No blocking calls (``time.sleep``, sync sockets/HTTP,
            ``subprocess``, file IO) inside ``async def`` in ``server/``
            — CPU/IO work must go through ``run_in_executor``.
``REP004``  Resource lifecycle: ``SharedMemory``/executor/``Manager``
            creations need a cleanup path in the same class, must not
            leak on exception windows, and ``.acquire()`` leases need a
            paired ``.release()``.
``REP005``  Wire envelopes round-trip: every dataclass field of every
            envelope in ``broker/envelope.py`` must appear in both the
            ``to_dict`` and ``from_dict`` key sets.
``REP007``  No ad-hoc clock (``time.time``/``time.monotonic``/
            ``time.perf_counter``/``datetime.now``) or global-RNG
            (``random.random`` etc.) reads anywhere outside the
            sanctioned sources — randomness comes from ``rng.py``,
            time comes from ``repro.obs.clock`` (the one module
            allowed to touch the ``time`` module directly).
``REP008``  Fork safety in ``server/``: processes are spawned, never
            forked — the serving stack already runs threads (the event
            loop's executor, ingest shard workers), and forking a
            threaded process inherits locks in whatever state the
            other threads held them.
==========  ==============================================================

``REP000`` (suppression hygiene / unparseable files) is built into the
driver itself — see :mod:`repro.analysis.core`.
"""

from __future__ import annotations

import ast

from repro.analysis.core import INTEGRITY_RULE_ID, LintContext, Rule

__all__ = [
    "DEFAULT_RULES",
    "RULE_DESCRIPTIONS",
    "FloatAccumulationRule",
    "LockDisciplineRule",
    "AsyncHygieneRule",
    "ResourceLifecycleRule",
    "WireRoundTripRule",
    "WallClockRule",
    "ForkSafetyRule",
]


def _dotted(expr: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return None if base is None else f"{base}.{expr.attr}"
    return None


def _enclosing_statement(node: ast.AST, ctx: LintContext) -> ast.stmt | None:
    """The nearest ancestor-or-self that is a statement."""
    current: ast.AST | None = node
    while current is not None and not isinstance(current, ast.stmt):
        current = ctx.parent(current)
    return current


def _sibling_after(stmt: ast.stmt, parent: ast.AST) -> ast.stmt | None:
    """The statement right after ``stmt`` in whichever block holds it."""
    for _, value in ast.iter_fields(parent):
        if isinstance(value, list) and stmt in value:
            index = value.index(stmt)
            if index + 1 < len(value):
                following = value[index + 1]
                return following if isinstance(following, ast.stmt) else None
            return None
    return None


# -- REP001 ----------------------------------------------------------------

class FloatAccumulationRule(Rule):
    """Order-sensitive float reductions must be explicit ordered loops."""

    rule_id = "REP001"
    title = "deterministic float accumulation"
    paths = (
        "optimizer/*", "sla/*", "availability/*", "cost/*",
        "broker/telemetry.py",
    )

    _REDUCERS = {"sum", "math.fsum"}
    _NUMPY_ROOTS = {"np", "numpy"}

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            flagged = dotted in self._REDUCERS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("sum", "prod")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self._NUMPY_ROOTS
            )
            if flagged:
                ctx.report(
                    self,
                    node,
                    f"order-sensitive reduction {dotted or 'np reduction'}() "
                    "in a bit-identical code path",
                    hint=(
                        "accumulate with an explicit ordered loop "
                        "(total = 0.0; total += term) so the float op order "
                        "is pinned; suppress with a justification if the "
                        "operands are order-free integers"
                    ),
                )
            return
        if isinstance(node, ast.For) and self._unordered_iter(node.iter):
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.AugAssign) and isinstance(
                        inner.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
                    ):
                        ctx.report(
                            self,
                            node,
                            "accumulation over set/dict-.values() iteration; "
                            "the operation order is a container "
                            "implementation detail",
                            hint=(
                                "iterate a keyed, explicitly ordered "
                                "sequence (e.g. the topology's cluster "
                                "order) instead"
                            ),
                        )
                        return

    @staticmethod
    def _unordered_iter(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "values"
                and not expr.args
            ):
                return True
        return False


# -- REP002 ----------------------------------------------------------------

class LockDisciplineRule(Rule):
    """Never call blocking teardown/IO while holding a fast lock."""

    rule_id = "REP002"
    title = "no blocking calls under fast locks"
    paths = ()

    _BLOCKING_ATTRS = {
        "shutdown",
        "close",
        "join",
        "unlink",
        "terminate",
        "wait",
        "recv",
        "sendall",
        "connect",
        "result",
    }

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call) or not ctx.held_locks:
            return
        if self._is_condition_wait(node):
            return  # cond.wait() releases the lock it was built on
        dotted = _dotted(node.func)
        blocking = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._BLOCKING_ATTRS
        ) or dotted in ("open", "time.sleep")
        if blocking:
            lock = ctx.held_locks[-1]
            ctx.report(
                self,
                node,
                f"potentially blocking call {dotted or node.func.attr}() "
                f"while holding {lock}",
                hint=(
                    "collect the resource under the lock and "
                    "close/join/shutdown it after releasing (see "
                    "ShardedIngestor.close), or rename the lock if it is "
                    "a slow-path lock that may legitimately block "
                    "(e.g. _build_lock)"
                ),
            )

    @staticmethod
    def _is_condition_wait(node: ast.Call) -> bool:
        """``cond.wait()`` *releases* the lock the Condition wraps."""
        if not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr not in ("wait", "wait_for", "notify", "notify_all"):
            return False
        receiver = node.func.value
        name = (
            receiver.attr
            if isinstance(receiver, ast.Attribute)
            else receiver.id
            if isinstance(receiver, ast.Name)
            else ""
        )
        return name.lstrip("_").lower().endswith(("cond", "condition"))


# -- REP003 ----------------------------------------------------------------

class AsyncHygieneRule(Rule):
    """No blocking calls on the event loop in ``server/``."""

    rule_id = "REP003"
    title = "async handlers never block the event loop"
    paths = ("server/*",)

    _BLOCKING_DOTTED = {"time.sleep", "os.system", "os.popen", "open"}
    _BLOCKING_ROOTS = {"socket", "subprocess", "urllib", "requests"}
    _BLOCKING_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes"}

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call) or not ctx.in_async_function:
            return
        dotted = _dotted(node.func)
        root = dotted.split(".", 1)[0] if dotted else None
        blocking = (
            dotted in self._BLOCKING_DOTTED
            or root in self._BLOCKING_ROOTS
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BLOCKING_ATTRS
            )
        )
        if blocking:
            ctx.report(
                self,
                node,
                f"blocking call {dotted or '<call>'}() inside an "
                "async def — this stalls every connection on the loop",
                hint=(
                    "run it via loop.run_in_executor(None, ...) like the "
                    "recommend/ingest handlers, or use the asyncio-native "
                    "equivalent"
                ),
            )


# -- REP004 ----------------------------------------------------------------

class ResourceLifecycleRule(Rule):
    """Created resources need reachable cleanup, even on error paths."""

    rule_id = "REP004"
    title = "resource lifecycle pairing"
    paths = ()

    _CREATIONS = {
        "SharedMemory",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Manager",
        "Pool",
    }
    _CLEANUP_ATTRS = {
        "close",
        "shutdown",
        "unlink",
        "release",
        "terminate",
        "stop",
        "join",
    }

    def __init__(self) -> None:
        self._class_creations: dict[ast.ClassDef, list[ast.Call]] = {}
        self._class_cleanup: set[ast.ClassDef] = set()
        self._class_acquires: dict[ast.ClassDef, list[ast.Call]] = {}
        self._class_releases: set[ast.ClassDef] = set()

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        cls = ctx.current_class
        if isinstance(node.func, ast.Attribute):
            if cls is not None and node.func.attr in self._CLEANUP_ATTRS:
                self._class_cleanup.add(cls)
            if cls is not None and node.func.attr == "release":
                self._class_releases.add(cls)
        terminal = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id
            if isinstance(node.func, ast.Name)
            else None
        )
        if terminal in self._CREATIONS:
            if cls is not None:
                self._class_creations.setdefault(cls, []).append(node)
            self._check_exception_window(node, ctx, terminal)
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
            and cls is not None
        ):
            stmt = _enclosing_statement(node, ctx)
            if isinstance(stmt, ast.Assign):
                self._class_acquires.setdefault(cls, []).append(node)

    def _check_exception_window(
        self, node: ast.Call, ctx: LintContext, terminal: str
    ) -> None:
        """A local-variable creation must not leak if a later stmt raises."""
        stmt = _enclosing_statement(node, ctx)
        if not isinstance(stmt, ast.Assign):
            return  # returned/with-item/expression: ownership moves out
        if not all(isinstance(target, ast.Name) for target in stmt.targets):
            return  # stored on self/container: reachable from cleanup
        # Only a Try ancestor protects the window: an enclosing `with`
        # (a lock, another resource) does not clean up what its *body*
        # creates.
        if any(
            isinstance(ancestor, ast.Try)
            for ancestor in self._ancestors_in_function(stmt, ctx)
        ):
            return
        parent = ctx.parent(stmt)
        following = (
            _sibling_after(stmt, parent) if parent is not None else None
        )
        while following is None and parent is not None and not isinstance(
            parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            stmt_above = _enclosing_statement(parent, ctx)
            if stmt_above is None or stmt_above is stmt:
                break
            parent = ctx.parent(stmt_above)
            following = (
                _sibling_after(stmt_above, parent)
                if parent is not None
                else None
            )
            stmt = stmt_above
        if following is None or isinstance(following, ast.Try):
            return  # nothing follows, or the very next statement handles it
        ctx.report(
            self,
            node,
            f"{terminal}(...) assigned to a local with statements "
            "following outside any try: an exception before cleanup "
            "registration leaks the resource",
            hint=(
                "wrap the window in try/except BaseException that "
                "closes/unlinks/shuts down the fresh resource, then "
                "re-raises"
            ),
        )

    @staticmethod
    def _ancestors_in_function(node: ast.AST, ctx: LintContext):
        for ancestor in ctx.ancestors(node):
            yield ancestor
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return

    def finish(self, tree: ast.Module, ctx: LintContext) -> None:
        for cls, creations in self._class_creations.items():
            if cls in self._class_cleanup:
                continue
            for node in creations:
                ctx.report(
                    self,
                    node,
                    f"class {cls.name} creates a pooled/OS resource but "
                    "has no close/shutdown/unlink/release path",
                    hint=(
                        "add a close()/shutdown() method (and ideally "
                        "__exit__) that tears the resource down "
                        "deterministically"
                    ),
                )
        for cls, acquires in self._class_acquires.items():
            if cls in self._class_releases:
                continue
            for node in acquires:
                ctx.report(
                    self,
                    node,
                    f"class {cls.name} acquires a lease but never calls "
                    ".release()",
                    hint=(
                        "pair every PoolHandle/lock acquire with a release "
                        "on every exit path"
                    ),
                )


# -- REP005 ----------------------------------------------------------------

class WireRoundTripRule(Rule):
    """Envelope dataclass fields must survive to_dict/from_dict."""

    rule_id = "REP005"
    title = "wire envelopes round-trip field-by-field"
    paths = ("broker/envelope.py",)

    _METADATA_KEYS = {"schema_version", "kind"}

    def finish(self, tree: ast.Module, ctx: LintContext) -> None:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                item.name: item
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "to_dict" not in methods:
                continue
            fields = self._dataclass_fields(cls)
            to_keys = self._returned_dict_keys(methods["to_dict"])
            if "from_dict" not in methods:
                ctx.report(
                    self,
                    cls,
                    f"envelope {cls.name} serializes (to_dict) but cannot "
                    "be parsed back (no from_dict)",
                    hint=(
                        "add a from_dict classmethod validating the key "
                        "set, so clients can round-trip every wire object"
                    ),
                )
                continue
            from_keys = self._string_constants(methods["from_dict"])
            for name in fields:
                if to_keys and name not in to_keys:
                    ctx.report(
                        self,
                        cls,
                        f"{cls.name}.{name} is a dataclass field missing "
                        "from the to_dict key set",
                        hint="serialize every field or drop it",
                    )
                if name not in from_keys:
                    ctx.report(
                        self,
                        cls,
                        f"{cls.name}.{name} is a dataclass field never "
                        "read back in from_dict",
                        hint="parse every field or drop it",
                    )
            for key in sorted(to_keys - self._METADATA_KEYS - from_keys):
                ctx.report(
                    self,
                    cls,
                    f"{cls.name} serializes key {key!r} that from_dict "
                    "never reads",
                    hint="wire keys must round-trip both directions",
                )

    @staticmethod
    def _dataclass_fields(cls: ast.ClassDef) -> tuple[str, ...]:
        names = []
        for item in cls.body:
            if (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and not item.target.id.startswith("_")
                and "ClassVar" not in ast.dump(item.annotation)
            ):
                names.append(item.target.id)
        return tuple(names)

    @staticmethod
    def _returned_dict_keys(func: ast.FunctionDef) -> set[str]:
        keys: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Dict
            ):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        keys.add(key.value)
        return keys

    @staticmethod
    def _string_constants(func: ast.FunctionDef) -> set[str]:
        return {
            node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }


# -- REP007 ----------------------------------------------------------------

class WallClockRule(Rule):
    """No ad-hoc clock or global-RNG reads outside the sanctioned sources.

    Randomness routes through ``rng.py``; time routes through
    ``repro.obs.clock`` — the single module blessed to call the ``time``
    module directly, so a reviewer can audit every clock read in one
    place and tests can fake time by patching one module.
    """

    rule_id = "REP007"
    title = "no ad-hoc clocks / global RNG"
    paths = ()

    _CLOCKS = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
    }
    _MONOTONIC = {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
    _GLOBAL_RANDOM = {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "triangular",
        "getrandbits",
    }

    def applies_to(self, scope_path: str, config) -> bool:
        # rng.py owns randomness; obs/clock.py owns time.  Both get to
        # call the underlying stdlib primitives raw.
        if scope_path.endswith(("rng.py", "obs/clock.py")):
            return False
        return super().applies_to(scope_path, config)

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in self._CLOCKS:
            ctx.report(
                self,
                node,
                f"wall-clock read {dotted}() — results must not depend "
                "on when they run",
                hint=(
                    "route through repro.obs.clock (wall_clock() for "
                    "display anchors only, monotonic()/perf_counter() "
                    "for durations), or plumb an injectable clock like "
                    "BrokerSession._clock"
                ),
            )
            return
        if dotted in self._MONOTONIC:
            ctx.report(
                self,
                node,
                f"ad-hoc monotonic clock read {dotted}() — all time "
                "reads route through the sanctioned source",
                hint=(
                    "call repro.obs.clock.monotonic() (deadlines/TTLs) "
                    "or repro.obs.clock.perf_counter() (span timings, "
                    "benchmarks) instead"
                ),
            )
            return
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in self._GLOBAL_RANDOM
        ):
            ctx.report(
                self,
                node,
                f"global RNG call {dotted}() — shared interpreter state "
                "breaks reproducibility",
                hint=(
                    "take an explicit seed or random.Random via "
                    "repro.rng.make_rng / spawn"
                ),
            )


# -- REP008 ----------------------------------------------------------------

class ForkSafetyRule(Rule):
    """Server processes are spawned, never forked.

    The serving stack is threaded before any child process exists: the
    event loop's default executor runs handler work, ingest shards run
    on their own threads, and ``start_in_thread`` hosts the loop itself
    on one.  ``fork()`` clones only the calling thread but the *whole*
    address space — every lock another thread held at fork time stays
    locked forever in the child (the classic post-fork deadlock).  The
    gateway therefore builds workers from
    ``multiprocessing.get_context("spawn")``; this rule keeps fork (and
    the fork-defaulting conveniences) from creeping back in.
    """

    rule_id = "REP008"
    title = "spawn, never fork, in server/ processes"
    paths = ("server/*",)

    _FORK_CALLS = {"os.fork", "os.forkpty"}
    #: Process constructors bound to the *default* start method (fork on
    #: Linux).  ``<ctx>.Process`` from a spawn context is the sanctioned
    #: idiom and is not matched: only these exact roots are.
    _DEFAULT_PROCESS = {"multiprocessing.Process", "mp.Process", "Process"}
    _FORKING_METHODS = {"fork", "forkserver"}

    _HINT = (
        'build children via multiprocessing.get_context("spawn")'
        ".Process(...) as repro.server.gateway does"
    )

    def visit(self, node: ast.AST, ctx: LintContext) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted in self._FORK_CALLS:
            ctx.report(
                self,
                node,
                f"{dotted}() in a server module — forking a threaded "
                "process inherits locks mid-flight",
                hint=self._HINT,
            )
            return
        if dotted in self._DEFAULT_PROCESS:
            ctx.report(
                self,
                node,
                f"{dotted}(...) uses the platform-default start method "
                "(fork on Linux) in a threaded server process",
                hint=self._HINT,
            )
            return
        name = dotted.rsplit(".", 1)[-1]
        if name not in ("get_context", "set_start_method"):
            return
        method = None
        if node.args:
            first = node.args[0]
            if not isinstance(first, ast.Constant):
                return  # dynamic method name: out of static reach
            method = first.value
        if method is None or method in self._FORKING_METHODS:
            what = (
                f'{dotted}("{method}")' if method is not None
                else f"{dotted}() with no method"
            )
            ctx.report(
                self,
                node,
                f"{what} selects a fork-based (or platform-default) "
                "start method in a server module",
                hint=self._HINT,
            )


DEFAULT_RULES: tuple[type[Rule], ...] = (
    FloatAccumulationRule,
    LockDisciplineRule,
    AsyncHygieneRule,
    ResourceLifecycleRule,
    WireRoundTripRule,
    WallClockRule,
    ForkSafetyRule,
)

#: ``--list-rules`` output: id -> (title, scope patterns).
RULE_DESCRIPTIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    INTEGRITY_RULE_ID: (
        "lint integrity: justified suppressions, parseable files",
        (),
    ),
    **{
        rule.rule_id: (rule.title, rule.paths)
        for rule in DEFAULT_RULES
    },
}
