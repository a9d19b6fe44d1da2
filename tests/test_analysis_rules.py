"""repro.analysis: every rule fires on seeded violations and only those.

Each rule gets positive fixtures (a minimal snippet that must produce a
finding) and negative fixtures (the idiomatic repo pattern that must
not).  Fixture files live in tmp trees, so rules with directory scopes
are pointed at them via ``LintConfig.rule_paths``.  The suite ends with
the self-check the CI gate depends on: ``repro lint src`` is clean at
HEAD.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_RULES,
    INTEGRITY_RULE_ID,
    LintConfig,
    REPORT_SCHEMA_VERSION,
    RULE_DESCRIPTIONS,
    run_lint,
)
from repro.analysis.rules import (
    AsyncHygieneRule,
    FloatAccumulationRule,
    ForkSafetyRule,
    LockDisciplineRule,
    ResourceLifecycleRule,
    WallClockRule,
    WireRoundTripRule,
)
from repro.cli.main import main
from repro.errors import ValidationError

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
GOLDEN = Path(__file__).parent / "data" / "analysis_golden.json"


def lint_snippet(tmp_path, code, rule_class, name="mod.py"):
    """Lint one snippet with one rule, scope forced onto the tmp tree."""
    path = tmp_path / name
    path.write_text(code)
    config = LintConfig(rule_paths={rule_class.rule_id: ("*",)})
    return run_lint([path], rules=[rule_class], config=config)


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


class TestDriver:
    def test_every_rule_has_id_title_and_description(self):
        for rule_class in DEFAULT_RULES:
            assert rule_class.rule_id.startswith("REP")
            assert rule_class.title
            assert rule_class.rule_id in RULE_DESCRIPTIONS
        assert INTEGRITY_RULE_ID in RULE_DESCRIPTIONS

    def test_rule_ids_unique(self):
        ids = [rule_class.rule_id for rule_class in DEFAULT_RULES]
        assert len(ids) == len(set(ids))

    def test_unknown_rule_selection_rejected(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(ValidationError, match="REP999"):
            run_lint([tmp_path], config=LintConfig(select=("REP999",)))

    def test_unparseable_file_is_an_integrity_finding(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        report = run_lint([tmp_path])
        assert rule_ids(report) == [INTEGRITY_RULE_ID]
        assert "cannot be linted" in report.findings[0].message
        assert report.exit_code == 1

    def test_missing_path_rejected(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        missing = tmp_path / "no-such-dir"
        with pytest.raises(ValidationError, match="no-such-dir"):
            run_lint([tmp_path, missing])

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        report = run_lint([tmp_path])
        assert report.findings == ()
        assert report.exit_code == 0
        assert report.files_checked == 1

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        report = run_lint([tmp_path], rules=[WallClockRule])
        paths = [finding.path for finding in report.findings]
        assert paths == sorted(paths)


class TestSuppressions:
    def test_justified_trailing_suppression_silences(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "t = sum(xs)  # repro: lint-ok[REP001] integer widths, order-free\n",
            FloatAccumulationRule,
        )
        assert report.findings == ()
        assert report.suppressions_used == 1

    def test_own_line_suppression_covers_next_line(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "# repro: lint-ok[REP001] integer widths, order-free\n"
            "t = sum(xs)\n",
            FloatAccumulationRule,
        )
        assert report.findings == ()
        assert report.suppressions_used == 1

    def test_unjustified_suppression_is_finding_and_does_not_silence(
        self, tmp_path
    ):
        report = lint_snippet(
            tmp_path,
            "t = sum(xs)  # repro: lint-ok[REP001]\n",
            FloatAccumulationRule,
        )
        assert sorted(rule_ids(report)) == [INTEGRITY_RULE_ID, "REP001"]
        assert report.suppressions_used == 0

    def test_suppression_for_other_rule_does_not_silence(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "t = sum(xs)  # repro: lint-ok[REP007] wrong rule id entirely\n",
            FloatAccumulationRule,
        )
        assert rule_ids(report) == ["REP001"]

    def test_multi_rule_suppression(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            "t = sum(xs)  # repro: lint-ok[REP001, REP007] order-free ints\n",
            FloatAccumulationRule,
        )
        assert report.findings == ()


class TestREP001FloatAccumulation:
    @pytest.mark.parametrize(
        "snippet",
        [
            "total = sum(values)\n",
            "import math\ntotal = math.fsum(values)\n",
            "import numpy as np\ntotal = np.sum(values)\n",
            "import numpy\ntotal = numpy.sum(values)\n",
        ],
    )
    def test_reducers_flagged(self, tmp_path, snippet):
        report = lint_snippet(tmp_path, snippet, FloatAccumulationRule)
        assert rule_ids(report) == ["REP001"]

    def test_values_iteration_accumulation_flagged(self, tmp_path):
        code = (
            "total = 1.0\n"
            "for value in table.values():\n"
            "    total *= value\n"
        )
        report = lint_snippet(tmp_path, code, FloatAccumulationRule)
        assert rule_ids(report) == ["REP001"]

    def test_set_iteration_accumulation_flagged(self, tmp_path):
        code = "t = 0.0\nfor x in set(items):\n    t += x\n"
        report = lint_snippet(tmp_path, code, FloatAccumulationRule)
        assert rule_ids(report) == ["REP001"]

    def test_explicit_ordered_loop_clean(self, tmp_path):
        code = "total = 0.0\nfor term in terms:\n    total += term\n"
        report = lint_snippet(tmp_path, code, FloatAccumulationRule)
        assert report.findings == ()

    def test_values_iteration_without_accumulation_clean(self, tmp_path):
        code = "for value in table.values():\n    print(value)\n"
        report = lint_snippet(tmp_path, code, FloatAccumulationRule)
        assert report.findings == ()

    def test_scope_defaults_to_math_packages(self, tmp_path):
        # Without a path override the rule only covers optimizer/sla/
        # availability, so a CLI-ish file is out of scope.
        (tmp_path / "cli.py").write_text("t = sum(values)\n")
        report = run_lint([tmp_path / "cli.py"], rules=[FloatAccumulationRule])
        assert report.findings == ()

    def test_scope_covers_telemetry_estimates(self, tmp_path):
        # Seeded defect: the failover mean as a builtin sum(), which
        # compensates on Python >= 3.12 only.  The telemetry module is
        # in scope; its broker siblings are not.
        broker = tmp_path / "repro" / "broker"
        broker.mkdir(parents=True)
        code = "def mean(samples):\n    return sum(samples) / len(samples)\n"
        (broker / "telemetry.py").write_text(code)
        (broker / "api.py").write_text(code)
        report = run_lint([tmp_path], rules=[FloatAccumulationRule])
        assert [
            (finding.rule_id, Path(finding.path).name)
            for finding in report.findings
        ] == [("REP001", "telemetry.py")]


class TestREP002LockDiscipline:
    def test_shutdown_under_fast_lock_flagged(self, tmp_path):
        code = (
            "class Registry:\n"
            "    def close(self):\n"
            "        with self._lock:\n"
            "            self._pool.shutdown(wait=True)\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert rule_ids(report) == ["REP002"]

    def test_teardown_after_lock_released_clean(self, tmp_path):
        code = (
            "class Registry:\n"
            "    def close(self):\n"
            "        with self._lock:\n"
            "            doomed = self._pool\n"
            "        doomed.shutdown(wait=True)\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert report.findings == ()

    def test_slow_path_build_lock_exempt_by_name(self, tmp_path):
        code = (
            "class Registry:\n"
            "    def build(self):\n"
            "        with self._build_lock:\n"
            "            self._old.shutdown(wait=True)\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert report.findings == ()

    def test_nested_def_masks_enclosing_lock(self, tmp_path):
        # The nested function does not *run* under the with.
        code = (
            "class Registry:\n"
            "    def close(self):\n"
            "        with self._lock:\n"
            "            def finisher():\n"
            "                self._pool.shutdown(wait=True)\n"
            "            self._callbacks.append(finisher)\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert report.findings == ()

    def test_condition_wait_exempt(self, tmp_path):
        # cond.wait() releases the lock the Condition wraps.
        code = (
            "class Cache:\n"
            "    def drain(self, entry):\n"
            "        with entry.lock:\n"
            "            while entry.shared:\n"
            "                entry.cond.wait()\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert report.findings == ()

    def test_sleep_under_lock_flagged(self, tmp_path):
        code = (
            "import time\n"
            "class C:\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        )
        report = lint_snippet(tmp_path, code, LockDisciplineRule)
        assert rule_ids(report) == ["REP002"]


class TestREP003AsyncHygiene:
    def test_sleep_in_async_def_flagged(self, tmp_path):
        code = (
            "import time\n"
            "async def handler(request):\n"
            "    time.sleep(1.0)\n"
        )
        report = lint_snippet(tmp_path, code, AsyncHygieneRule)
        assert rule_ids(report) == ["REP003"]

    @pytest.mark.parametrize(
        "call",
        [
            "subprocess.run(['ls'])",
            "socket.create_connection(('h', 80))",
            "urllib.request.urlopen('http://x')",
            "open('f.txt')",
            "path.read_text()",
        ],
    )
    def test_blocking_io_in_async_def_flagged(self, tmp_path, call):
        code = f"async def handler(request):\n    {call}\n"
        report = lint_snippet(tmp_path, code, AsyncHygieneRule)
        assert rule_ids(report) == ["REP003"]

    def test_run_in_executor_pattern_clean(self, tmp_path):
        code = (
            "async def handler(loop, work):\n"
            "    return await loop.run_in_executor(None, work)\n"
        )
        report = lint_snippet(tmp_path, code, AsyncHygieneRule)
        assert report.findings == ()

    def test_sync_function_not_flagged(self, tmp_path):
        code = "import time\ndef worker():\n    time.sleep(1.0)\n"
        report = lint_snippet(tmp_path, code, AsyncHygieneRule)
        assert report.findings == ()

    def test_scope_defaults_to_server(self, tmp_path):
        (tmp_path / "bench.py").write_text(
            "import time\nasync def probe():\n    time.sleep(1)\n"
        )
        report = run_lint([tmp_path / "bench.py"], rules=[AsyncHygieneRule])
        assert report.findings == ()


class TestREP004ResourceLifecycle:
    def test_creation_without_cleanup_path_flagged(self, tmp_path):
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class Runner:\n"
            "    def start(self):\n"
            "        self._pool = ProcessPoolExecutor(4)\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert rule_ids(report) == ["REP004"]
        assert "no close/shutdown/unlink/release path" in report.findings[0].message

    def test_creation_with_cleanup_method_clean(self, tmp_path):
        code = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class Runner:\n"
            "    def start(self):\n"
            "        self._pool = ProcessPoolExecutor(4)\n"
            "    def close(self):\n"
            "        self._pool.shutdown(wait=True)\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert report.findings == ()

    def test_exception_window_between_create_and_register_flagged(
        self, tmp_path
    ):
        code = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def publish(registry, data):\n"
            "    segment = SharedMemory(name='x', create=True, size=10)\n"
            "    registry.register(segment)\n"
            "    return segment\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert rule_ids(report) == ["REP004"]
        assert "leaks the resource" in report.findings[0].message

    def test_try_guarded_window_clean(self, tmp_path):
        code = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def publish(registry, data):\n"
            "    segment = SharedMemory(name='x', create=True, size=10)\n"
            "    try:\n"
            "        registry.register(segment)\n"
            "    except BaseException:\n"
            "        segment.unlink()\n"
            "        raise\n"
            "    return segment\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert report.findings == ()

    def test_enclosing_with_lock_is_not_protection(self, tmp_path):
        # A with-block around the creation window does not clean up
        # what the body creates.
        code = (
            "import multiprocessing\n"
            "def build(self):\n"
            "    with self._build_lock:\n"
            "        manager = multiprocessing.Manager()\n"
            "        tables = manager.dict()\n"
            "    return tables\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert rule_ids(report) == ["REP004"]

    def test_acquire_without_release_flagged(self, tmp_path):
        code = (
            "class Backend:\n"
            "    def ensure(self, registry):\n"
            "        self._handle = registry.acquire(2)\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert rule_ids(report) == ["REP004"]
        assert "never calls .release()" in report.findings[0].message

    def test_acquire_release_pair_clean(self, tmp_path):
        code = (
            "class Backend:\n"
            "    def ensure(self, registry):\n"
            "        self._handle = registry.acquire(2)\n"
            "    def close(self):\n"
            "        self._handle.release()\n"
        )
        report = lint_snippet(tmp_path, code, ResourceLifecycleRule)
        assert report.findings == ()


class TestREP005WireRoundTrip:
    def test_to_dict_without_from_dict_flagged(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Event:\n"
            "    kind: str\n"
            "    def to_dict(self):\n"
            "        return {'kind': self.kind}\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert rule_ids(report) == ["REP005"]
        assert "no from_dict" in report.findings[0].message

    def test_field_missing_from_serialization_flagged(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Env:\n"
            "    kind: str\n"
            "    detail: str\n"
            "    def to_dict(self):\n"
            "        return {'kind': self.kind}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kind=payload['kind'], detail='')\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert any(
            "missing from the to_dict key set" in finding.message
            for finding in report.findings
        )

    def test_serialized_key_never_parsed_flagged(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Env:\n"
            "    kind: str\n"
            "    def to_dict(self):\n"
            "        return {'kind': self.kind, 'extra': 1}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kind=payload['kind'])\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert rule_ids(report) == ["REP005"]
        assert "'extra'" in report.findings[0].message

    def test_symmetric_envelope_clean(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Env:\n"
            "    kind: str\n"
            "    request_id: str\n"
            "    def to_dict(self):\n"
            "        return {'schema_version': 2, 'kind': self.kind,\n"
            "                'request_id': self.request_id}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kind=payload['kind'],\n"
            "                   request_id=payload.get('request_id'))\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert report.findings == ()

    def test_optional_wire_field_round_trips_clean(self, tmp_path):
        """The idempotency_key shape: an optional (default-None) field
        is held to the same symmetry bar as required ones."""
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Env:\n"
            "    kind: str\n"
            "    idempotency_key: 'str | None' = None\n"
            "    def to_dict(self):\n"
            "        return {'kind': self.kind,\n"
            "                'idempotency_key': self.idempotency_key}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kind=payload['kind'],\n"
            "                   idempotency_key=payload.get('idempotency_key'))\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert report.findings == ()

    def test_optional_field_serialized_but_never_parsed_flagged(self, tmp_path):
        code = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Env:\n"
            "    kind: str\n"
            "    idempotency_key: 'str | None' = None\n"
            "    def to_dict(self):\n"
            "        return {'kind': self.kind,\n"
            "                'idempotency_key': self.idempotency_key}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(kind=payload['kind'])\n"
        )
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        # Flagged from both directions: the field is never parsed back,
        # and the serialized key is never read.
        assert set(rule_ids(report)) == {"REP005"}
        assert any(
            "never read back" in finding.message
            for finding in report.findings
        )

    def test_plain_class_without_to_dict_ignored(self, tmp_path):
        code = "class Helper:\n    def run(self):\n        return 1\n"
        report = lint_snippet(tmp_path, code, WireRoundTripRule)
        assert report.findings == ()


class TestREP007WallClock:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.time_ns()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "import random\nx = random.random()\n",
            "import random\nx = random.randint(1, 6)\n",
            "import random\nrandom.seed(7)\n",
            "import time\nt = time.monotonic()\n",
            "import time\nt = time.perf_counter()\n",
            "import time\nt = time.monotonic_ns()\n",
        ],
    )
    def test_wall_clock_and_global_rng_flagged(self, tmp_path, snippet):
        report = lint_snippet(tmp_path, snippet, WallClockRule)
        assert rule_ids(report) == ["REP007"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "from repro.obs import clock\nt = clock.monotonic()\n",
            "from repro.obs import clock\nt = clock.perf_counter()\n",
            "import random\nrng = random.Random(7)\nx = rng.random()\n",
        ],
    )
    def test_sanctioned_clock_and_seeded_rng_clean(self, tmp_path, snippet):
        report = lint_snippet(tmp_path, snippet, WallClockRule)
        assert report.findings == ()

    def test_obs_clock_module_itself_exempt(self, tmp_path):
        # Lint the tree, not the bare file: the exemption keys on the
        # package-relative "obs/clock.py" scope path.
        obs = tmp_path / "obs"
        obs.mkdir()
        (obs / "clock.py").write_text(
            "import time\nt = time.monotonic()\nw = time.time()\n"
        )
        report = run_lint([tmp_path], rules=[WallClockRule])
        assert report.findings == ()

    def test_other_clock_named_modules_not_exempt(self, tmp_path):
        (tmp_path / "clock.py").write_text(
            "import time\nt = time.monotonic()\n"
        )
        report = run_lint([tmp_path], rules=[WallClockRule])
        assert rule_ids(report) == ["REP007"]

    def test_rng_module_itself_exempt(self, tmp_path):
        (tmp_path / "rng.py").write_text("import time\nt = time.time()\n")
        report = run_lint([tmp_path / "rng.py"], rules=[WallClockRule])
        assert report.findings == ()


class TestREP008ForkSafety:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import os\npid = os.fork()\n",
            "import os\npid, fd = os.forkpty()\n",
            "import multiprocessing\np = multiprocessing.Process(target=f)\n",
            "import multiprocessing as mp\np = mp.Process(target=f)\n",
            "from multiprocessing import Process\np = Process(target=f)\n",
            "import multiprocessing\nctx = multiprocessing.get_context()\n",
            'import multiprocessing\n'
            'ctx = multiprocessing.get_context("fork")\n',
            'import multiprocessing\n'
            'ctx = multiprocessing.get_context("forkserver")\n',
            'import multiprocessing\n'
            'multiprocessing.set_start_method("fork")\n',
            "import multiprocessing\nmultiprocessing.set_start_method()\n",
        ],
    )
    def test_fork_idioms_flagged(self, tmp_path, snippet):
        report = lint_snippet(tmp_path, snippet, ForkSafetyRule)
        assert rule_ids(report) == ["REP008"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # The sanctioned idiom: an explicit spawn context.
            'import multiprocessing\n'
            'ctx = multiprocessing.get_context("spawn")\n'
            "p = ctx.Process(target=f)\n",
            'import multiprocessing\n'
            'multiprocessing.set_start_method("spawn")\n',
            # Dynamic method names are beyond static reach: no finding.
            "import multiprocessing\n"
            "ctx = multiprocessing.get_context(pick())\n",
            # Thread pools and threads are fine; only forking is not.
            "import threading\nt = threading.Thread(target=f)\n",
        ],
    )
    def test_spawn_idioms_clean(self, tmp_path, snippet):
        report = lint_snippet(tmp_path, snippet, ForkSafetyRule)
        assert report.findings == ()

    def test_scoped_to_server_modules_only(self, tmp_path):
        code = "import os\npid = os.fork()\n"
        server = tmp_path / "server"
        server.mkdir()
        (server / "forky.py").write_text(code)
        (tmp_path / "elsewhere.py").write_text(code)
        report = run_lint([tmp_path], rules=[ForkSafetyRule])
        assert rule_ids(report) == ["REP008"]
        assert report.findings[0].path.endswith("forky.py")


class TestJsonReport:
    def fixture_tree(self, tmp_path):
        tree = tmp_path / "fixture"
        tree.mkdir()
        (tree / "clocks.py").write_text(
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        (tree / "sums.py").write_text(
            "def total(values):\n"
            "    return sum(values)  # repro: lint-ok[REP001]\n"
        )
        server = tree / "server"
        server.mkdir()
        (server / "spawner.py").write_text(
            "import multiprocessing\n"
            "def shard():\n"
            "    return multiprocessing.Process(target=shard)\n"
        )
        return tree

    def normalized_report(self, tmp_path):
        tree = self.fixture_tree(tmp_path)
        config = LintConfig(rule_paths={"REP001": ("*",)})
        report = run_lint(
            [tree],
            rules=[FloatAccumulationRule, WallClockRule, ForkSafetyRule],
            config=config,
        )
        payload = json.loads(report.to_json())
        for finding in payload["findings"]:
            finding["path"] = finding["path"].replace(
                tree.as_posix(), "<fixture>"
            )
        return payload

    def test_json_schema_and_content(self, tmp_path):
        payload = self.normalized_report(tmp_path)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["files_checked"] == 3
        assert payload["finding_count"] == len(payload["findings"]) == 4
        assert {f["rule"] for f in payload["findings"]} == {
            "REP000", "REP001", "REP007", "REP008",
        }
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "col", "message", "hint",
            }

    def test_matches_golden_file(self, tmp_path):
        payload = self.normalized_report(tmp_path)
        golden = json.loads(GOLDEN.read_text())
        assert payload == golden


class TestCliLint:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_findings_exit_nonzero_text(self, tmp_path, capsys):
        (tmp_path / "clock.py").write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP007" in out
        assert "hint:" in out

    def test_lint_json_format(self, tmp_path, capsys):
        (tmp_path / "clock.py").write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["rule"] == "REP007"

    def test_lint_rule_selection(self, tmp_path, capsys):
        (tmp_path / "clock.py").write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--rules", "REP002"]) == 0
        assert main(["lint", str(tmp_path), "--rules", "REP007"]) == 1
        capsys.readouterr()

    def test_lint_unknown_rule_is_cli_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--rules", "REP999"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err

    def test_lint_missing_path_is_cli_error(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(["lint", str(missing)]) == 1
        captured = capsys.readouterr()
        assert "0 finding(s)" not in captured.out
        assert str(missing) in captured.err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_class in DEFAULT_RULES:
            assert rule_class.rule_id in out
        assert INTEGRITY_RULE_ID in out


class TestSelfCheck:
    def test_src_is_clean_at_head(self):
        """The CI gate: the shipped tree satisfies its own invariants."""
        report = run_lint([SRC])
        assert report.findings == (), report.to_text()
        assert report.exit_code == 0
        assert report.files_checked >= 90

    def test_suppressions_in_src_are_all_justified_and_used(self):
        report = run_lint([SRC])
        assert report.suppressions_used >= 2
