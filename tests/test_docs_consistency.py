"""Documentation hygiene: the docs reference real artifacts.

DESIGN.md and EXPERIMENTS.md promise specific benchmark files and
experiment ids; these tests keep the promises true as the repo evolves.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_every_referenced_bench_exists(self):
        text = _read("DESIGN.md")
        for match in re.findall(r"benchmarks/(\w+\.py)", text):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_every_bench_file_is_referenced_somewhere(self):
        documented = set(
            re.findall(r"benchmarks/(\w+\.py)", _read("DESIGN.md"))
        ) | set(re.findall(r"benchmarks/(\w+\.py)", _read("EXPERIMENTS.md")))
        on_disk = {
            path.name
            for path in (ROOT / "benchmarks").glob("bench_*.py")
        }
        undocumented = on_disk - documented
        assert not undocumented, (
            f"benches missing from DESIGN.md/EXPERIMENTS.md: {sorted(undocumented)}"
        )

    def test_referenced_example_scripts_exist(self):
        text = _read("DESIGN.md") + _read("README.md")
        for match in set(re.findall(r"examples/(\w+\.py)", text)):
            assert (ROOT / "examples" / match).exists(), match

    def test_design_confirms_paper_match(self):
        # DESIGN.md must record the title-collision check outcome.
        assert "matches" in _read("DESIGN.md").lower()


class TestExperimentsDoc:
    def test_core_experiment_ids_present(self):
        text = _read("EXPERIMENTS.md")
        for exp_id in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                       "A1", "A2", "A3", "A4"):
            assert f"## {exp_id} " in text or f"### {exp_id} " in text, exp_id

    def test_headline_savings_recorded(self):
        assert "62.0%" in _read("EXPERIMENTS.md")

    def test_regeneration_command_documented(self):
        assert "pytest benchmarks/ --benchmark-only" in _read("EXPERIMENTS.md")


class TestReadme:
    def test_quickstart_code_actually_runs(self):
        """Execute the README's quickstart block verbatim."""
        text = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - our own documentation
        result = namespace["result"]
        assert result.best.label == "#3 HA: storage"

    def test_cli_commands_documented_exist(self):
        from repro.cli.main import build_parser

        text = _read("README.md")
        documented = set(re.findall(r"python -m repro (\w[\w-]*)", text))
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        real = set(subparsers.choices)
        assert documented <= real, documented - real


class TestSessionCalls:
    def test_documented_session_calls_exist(self):
        """Every ``session.<name>(`` in the docs and examples is real."""
        from repro.broker.api import BrokerSession

        texts = [_read("README.md"), _read("DESIGN.md")] + [
            path.read_text() for path in sorted((ROOT / "examples").glob("*.py"))
        ]
        called = {
            name
            for text in texts
            for name in re.findall(r"\bsession\.(\w+)\(", text)
        }
        assert "recommend" in called, "no session calls found"
        missing = {name for name in called if not hasattr(BrokerSession, name)}
        assert not missing, sorted(missing)
