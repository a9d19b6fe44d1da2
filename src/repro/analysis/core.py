"""The invariant linter's rule engine: one AST pass, many rules.

The repo's headline guarantee — bit-identical results on every
serving path and interpreter — rests on a set of *unwritten*
rules the test suites can only sample: explicit-order float
accumulation, no blocking work under fast locks, no blocking calls on
the event loop, paired resource lifecycles, symmetric wire envelopes.
This module makes those rules executable.  Each invariant is a
:class:`Rule` with a stable ``REPxxx`` id; :func:`run_lint` parses each
source file once and drives every applicable rule over a single AST
walk with parent/scope/lock tracking, collecting :class:`Finding`\\ s.

Suppressions are inline and must be justified::

    total = sum(widths)  # repro: lint-ok[REP001] integer widths, order-free

A suppression comment with no justification text is itself a finding
(:data:`INTEGRITY_RULE_ID`), so every exemption documents *why* the
invariant does not apply.  A comment-only suppression line covers the
next source line, for statements that are awkward to annotate inline.

Rules are scoped per directory (``Rule.paths`` fnmatch patterns against
the path relative to the ``repro`` package root), so e.g. the float
determinism rule runs over ``optimizer/``, ``sla/`` and
``availability/`` without flagging the CLI's cosmetic arithmetic.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "Rule",
    "Suppressions",
    "iter_python_files",
    "run_lint",
]

#: Rule id reserved for the linter's own integrity findings: unparseable
#: files and suppression comments with no justification.
INTEGRITY_RULE_ID = "REP000"

#: Schema version of the JSON report (bumped on shape changes).
REPORT_SCHEMA_VERSION = 1

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[A-Za-z0-9_,\s]+)\](?P<why>[^#]*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file:line."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass(frozen=True)
class _SuppressionEntry:
    rule_ids: tuple[str, ...]
    justified: bool
    line: int  # the line the comment sits on (for REP000 anchoring)


class Suppressions:
    """Per-file ``# repro: lint-ok[REPxxx]`` comment index.

    A trailing comment covers its own line; a comment-only line covers
    the next line.  ``use()`` records which suppressions actually fired
    so the report can count them.
    """

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, _SuppressionEntry] = {}
        self.used = 0
        for number, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESSION_RE.search(text)
            if match is None:
                continue
            rule_ids = tuple(
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            entry = _SuppressionEntry(
                rule_ids=rule_ids,
                justified=bool(match.group("why").strip()),
                line=number,
            )
            covered = number
            if text.strip().startswith("#"):
                covered = number + 1  # own-line comment covers the next line
            self._by_line[covered] = entry

    def entries(self) -> tuple[_SuppressionEntry, ...]:
        return tuple(
            self._by_line[line] for line in sorted(self._by_line)
        )

    def use(self, line: int, rule_id: str) -> bool:
        """True (and counted) when ``rule_id`` is suppressed on ``line``."""
        entry = self._by_line.get(line)
        if entry is None or rule_id not in entry.rule_ids:
            return False
        if not entry.justified:
            # An unjustified suppression never silences anything; the
            # integrity rule reports it instead.
            return False
        self.used += 1
        return True


@dataclass
class LintConfig:
    """Knobs for one lint run.

    ``select`` restricts which rule ids run (``None`` = all registered).
    ``rule_paths`` overrides a rule's directory scope, keyed by rule id
    — fixture tests use it to point a rule at arbitrary trees.
    ``fast_lock_names`` are the attribute names REP002 treats as
    never-block-while-held locks (slow-path locks like ``_build_lock``
    are exempt by naming convention).
    """

    select: tuple[str, ...] | None = None
    rule_paths: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    fast_lock_names: tuple[str, ...] = ("_lock", "lock")


class Rule:
    """Base class: one invariant, one stable id.

    Subclasses set ``rule_id``/``title``/``paths`` and override
    :meth:`visit` (called once per AST node, in source order, with the
    driver's context stacks live) and/or :meth:`finish` (called once
    after the walk, for whole-module invariants).  Rules are
    instantiated fresh per file, so they may keep per-module state.
    """

    rule_id: str = ""
    title: str = ""
    #: fnmatch patterns against the package-relative path ("" = all).
    paths: tuple[str, ...] = ()

    def applies_to(self, scope_path: str, config: LintConfig) -> bool:
        patterns = tuple(config.rule_paths.get(self.rule_id, self.paths))
        if not patterns:
            return True
        return any(fnmatch.fnmatch(scope_path, pattern) for pattern in patterns)

    def visit(self, node: ast.AST, ctx: "LintContext") -> None:
        """Per-node hook (source order, scope stacks live)."""

    def finish(self, tree: ast.Module, ctx: "LintContext") -> None:
        """Whole-module hook, after the walk."""


class LintContext:
    """What the driver knows at the current point of the walk.

    Exposes the parent map, the enclosing function/class stacks, and
    the lexically-held fast locks (masked inside nested ``def``\\ s,
    which do not run under the enclosing ``with``).
    """

    def __init__(
        self,
        *,
        display_path: str,
        scope_path: str,
        source: str,
        config: LintConfig,
    ) -> None:
        self.display_path = display_path
        self.scope_path = scope_path
        self.source = source
        self.config = config
        self.suppressions = Suppressions(source)
        self.findings: list[Finding] = []
        self._parents: dict[ast.AST, ast.AST] = {}
        # Mixed stack of ("func", node) / ("class", node) / ("lock", name)
        # markers; locks are only "held" below their function boundary.
        self._stack: list[tuple[str, Any]] = []

    # -- structure ---------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    @property
    def function_stack(self) -> tuple[ast.AST, ...]:
        return tuple(node for kind, node in self._stack if kind == "func")

    @property
    def class_stack(self) -> tuple[ast.ClassDef, ...]:
        return tuple(node for kind, node in self._stack if kind == "class")

    @property
    def current_class(self) -> ast.ClassDef | None:
        classes = self.class_stack
        return classes[-1] if classes else None

    @property
    def in_async_function(self) -> bool:
        functions = self.function_stack
        return bool(functions) and isinstance(
            functions[-1], ast.AsyncFunctionDef
        )

    @property
    def held_locks(self) -> tuple[str, ...]:
        """Fast-lock names lexically held at this point of the walk.

        A ``def`` nested inside a ``with self._lock:`` body does *not*
        run under the lock, so markers above the innermost function
        boundary are masked.
        """
        held: list[str] = []
        for kind, value in self._stack:
            if kind == "func":
                held.clear()
            elif kind == "lock":
                held.append(value)
        return tuple(held)

    def segment_lines(self, node: ast.AST) -> str:
        """The raw source lines spanned by ``node`` (comments included)."""
        lines = self.source.splitlines()
        start = getattr(node, "lineno", 1) - 1
        end = getattr(node, "end_lineno", start + 1)
        return "\n".join(lines[start:end])

    # -- reporting ---------------------------------------------------------

    def report(
        self, rule: Rule, node: ast.AST, message: str, hint: str = ""
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressions.use(line, rule.rule_id):
            return
        self.findings.append(
            Finding(
                rule_id=rule.rule_id,
                path=self.display_path,
                line=line,
                col=col,
                message=message,
                hint=hint,
            )
        )


def _lock_name(
    expr: ast.AST, fast_lock_names: Sequence[str]
) -> str | None:
    """The fast-lock name a ``with`` item guards, or ``None``."""
    if isinstance(expr, ast.Attribute) and expr.attr in fast_lock_names:
        return expr.attr
    if isinstance(expr, ast.Name) and expr.id in fast_lock_names:
        return expr.id
    return None


class _ModuleLinter:
    """One file's single-pass walk, dispatching to the active rules."""

    def __init__(self, ctx: LintContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = rules

    def run(self, tree: ast.Module) -> None:
        self._walk(tree)
        for rule in self.rules:
            rule.finish(tree, self.ctx)
        self._check_suppression_integrity()

    def _walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        pushed = 0
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx._stack.append(("func", node))
            pushed += 1
        elif isinstance(node, ast.ClassDef):
            ctx._stack.append(("class", node))
            pushed += 1
        elif isinstance(node, ast.With):
            for item in node.items:
                name = _lock_name(
                    item.context_expr, ctx.config.fast_lock_names
                )
                if name is not None:
                    ctx._stack.append(("lock", name))
                    pushed += 1
        for rule in self.rules:
            rule.visit(node, ctx)
        for child in ast.iter_child_nodes(node):
            ctx._parents[child] = node
            self._walk(child)
        for _ in range(pushed):
            ctx._stack.pop()

    def _check_suppression_integrity(self) -> None:
        ctx = self.ctx
        for entry in ctx.suppressions.entries():
            if entry.justified:
                continue
            ctx.findings.append(
                Finding(
                    rule_id=INTEGRITY_RULE_ID,
                    path=ctx.display_path,
                    line=entry.line,
                    col=0,
                    message=(
                        "suppression "
                        f"lint-ok[{','.join(entry.rule_ids)}] has no "
                        "justification text"
                    ),
                    hint=(
                        "write WHY the invariant does not apply, e.g. "
                        "'# repro: lint-ok[REP001] integer counters, "
                        "order-free'"
                    ),
                )
            )


# -- file discovery ---------------------------------------------------------

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths``, deterministically sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
            continue
        yield from sorted(
            candidate
            for candidate in path.rglob("*.py")
            if not any(part in _SKIP_DIRS for part in candidate.parts)
        )


def _scope_path(path: Path, root: Path | None) -> str:
    """The path rules are scoped by: relative to the ``repro`` package.

    Falls back to the path relative to the scanned root (fixture trees
    have no ``repro`` component), then to the bare file name.
    """
    parts = list(path.parts)
    for marker in ("repro", "src"):
        if marker in parts:
            index = len(parts) - 1 - parts[::-1].index(marker)
            tail = parts[index + 1:]
            if tail:
                return "/".join(tail)
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.name


# -- the run ---------------------------------------------------------------

@dataclass(frozen=True)
class LintReport:
    """Everything one lint run produced."""

    findings: tuple[Finding, ...]
    files_checked: int
    suppressions_used: int
    rule_ids: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "rules": list(self.rule_ids),
            "files_checked": self.files_checked,
            "suppressions_used": self.suppressions_used,
            "finding_count": len(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        lines = [finding.format_text() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s); {self.suppressions_used} suppression(s) honoured"
        )
        return "\n".join(lines)


def run_lint(
    paths: Iterable[str | Path],
    *,
    rules: Sequence[type[Rule]] | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with the selected rules.

    ``rules`` is a sequence of :class:`Rule` *classes* (instantiated
    fresh per file); ``None`` uses the registered default pack.  Files
    that fail to parse produce an :data:`INTEGRITY_RULE_ID` finding
    rather than aborting the run; a path that does not exist raises
    :class:`~repro.errors.ValidationError`, so a mistyped path is never
    a clean run over zero files.
    """
    from repro.errors import ValidationError

    if rules is None:
        from repro.analysis.rules import DEFAULT_RULES

        rules = DEFAULT_RULES
    config = config or LintConfig()
    if config.select is not None:
        known = {rule_class.rule_id for rule_class in rules}
        unknown = set(config.select) - known - {INTEGRITY_RULE_ID}
        if unknown:
            raise ValidationError(
                f"unknown lint rule id(s) {sorted(unknown)}; "
                f"known: {sorted(known | {INTEGRITY_RULE_ID})}"
            )
        rules = [
            rule_class
            for rule_class in rules
            if rule_class.rule_id in config.select
        ]

    findings: list[Finding] = []
    files_checked = 0
    suppressions_used = 0
    path_list = list(paths)
    missing = [str(raw) for raw in path_list if not Path(raw).exists()]
    if missing:
        raise ValidationError(f"no such file or directory: {missing}")
    roots = [Path(raw) for raw in path_list if Path(raw).is_dir()]
    root = roots[0] if roots else None
    for path in iter_python_files(path_list):
        files_checked += 1
        display = path.as_posix()
        scope = _scope_path(path, root)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            findings.append(
                Finding(
                    rule_id=INTEGRITY_RULE_ID,
                    path=display,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    message=f"file cannot be linted: {exc}",
                )
            )
            continue
        ctx = LintContext(
            display_path=display,
            scope_path=scope,
            source=source,
            config=config,
        )
        active = [
            rule
            for rule in (rule_class() for rule_class in rules)
            if rule.applies_to(scope, config)
        ]
        # An empty rule list still runs: suppression integrity is global.
        _ModuleLinter(ctx, active).run(tree)
        findings.extend(ctx.findings)
        suppressions_used += ctx.suppressions.used
    findings.sort(key=lambda finding: finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_checked=files_checked,
        suppressions_used=suppressions_used,
        rule_ids=tuple(
            sorted({rule_class.rule_id for rule_class in rules})
        ),
    )
