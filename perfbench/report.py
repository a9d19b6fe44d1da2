"""Provenance, result records and ``--compare``.

Every run writes ``result.json`` beside its captured ``mix.json``.  A
result records what was measured (each metric with its unit and the
sample count behind it) and on what: the commit, a digest of ``src/``,
its line count, ``nproc``, and the Python and numpy versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from loadgen import nproc


class Outcome(NamedTuple):
    """What one run measured and what the gate found."""

    metrics: dict
    samples: dict
    details: dict
    attempted: int
    #: ``{id(record): reason}`` for every failed operation.
    failures: dict
    #: Every record sent to the server the metrics describe.
    log: list


def metric(value: float, unit: str) -> dict:
    """One metric as the result line carries it."""
    return {"value": value, "unit": unit}


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, or None outside a git checkout.

    Git may not look above ``root``, so an export of the repository
    inside some other checkout does not report that checkout's commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path) -> dict:
    """What the numbers were measured on."""
    sha = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        sha.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(root),
        "src_sha256": sha.hexdigest(),
        "src_loc": lines,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def write_result(path: Path, result: dict) -> None:
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def print_metrics(metrics: dict, samples: dict) -> None:
    for name, metric in metrics.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}{suffix}")


# -- compare mode --------------------------------------------------------------

def _load_results(directory: Path) -> dict[str, list[dict]]:
    """Correct, valid untraced results under ``directory``, by workload.

    A run whose generator fell behind offered another load than the
    workload's, so it is left out, and the count left out is printed.
    """
    grouped: dict[str, list[dict]] = {}
    invalid = 0
    for path in sorted(directory.rglob("result.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != 0 or not result.get("correct"):
            continue
        if not result["details"].get("valid", False):
            invalid += 1
            continue
        grouped.setdefault(result["workload"], []).append(result)
    if invalid:
        print(f"{directory}: left out {invalid} run(s) whose generator fell behind")
    return grouped


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: dict[int, float], new: dict[int, float], bound: float,
            higher: bool) -> str:
    """better / worse / same / unresolved, per the benchmark's bound.

    Worse: the new median is worse than the base median by more than the
    bound.  Better: the new median beats the base by more than the base's
    own quartile spread, and at least nine tenths of runs paired by seed
    (or, unpaired, of all cross pairs) favour the new side.  Unresolved:
    the base spreads wider than the bound, unless every new run beats
    every base run.  Otherwise same.
    """
    sign = 1.0 if higher else -1.0
    seeds = sorted(set(base) & set(new))
    pairs = [(base[s], new[s]) for s in seeds] or [
        (b, n) for b in base.values() for n in new.values()
    ]
    base, new = list(base.values()), list(new.values())
    base_median, new_median = statistics.median(base), statistics.median(new)
    change = sign * (new_median - base_median) / abs(base_median)
    every_better = min(sign * v for v in new) > max(sign * v for v in base)
    if _spread(base) > bound and not every_better:
        return "unresolved"
    if change < -bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if change > _spread(base) and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(benchmark: dict, base_dir: Path, new_dir: Path) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse."""
    base, new = _load_results(base_dir), _load_results(new_dir)
    if not base or not new:
        print(f"no correct untraced results under {base_dir if not base else new_dir}")
        return 2
    print(
        f"{'workload':<12} {'metric':<22} {'unit':<6} {'base':>12} "
        f"{'new':>12} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    worse = False
    for workload in sorted(set(base) & set(new)):
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            base_runs = {r["seed"]: r["metrics"][name]["value"] for r in base[workload]}
            new_runs = {r["seed"]: r["metrics"][name]["value"] for r in new[workload]}
            higher = spec["better"] == "higher"
            label = verdict(base_runs, new_runs, spec["bound"], higher)
            base_values, new_values = list(base_runs.values()), list(new_runs.values())
            worse |= label == "worse"
            base_median = statistics.median(base_values)
            new_median = statistics.median(new_values)
            change = (new_median - base_median) / abs(base_median)
            print(
                f"{workload:<12} {name:<22} {spec['unit']:<6} "
                f"{base_median:>12.5g} {new_median:>12.5g} {change:>+8.1%} "
                f"{_spread(base_values):>7.1%} {spec['bound']:>6.0%}  {label}"
                f"  (n={len(base_values)}/{len(new_values)})"
            )
    return 1 if worse else 0
