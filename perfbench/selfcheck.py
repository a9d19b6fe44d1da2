"""``--self-check``: tiny runs of every workload, then corrupted copies.

Each workload runs for a couple of seconds against a real ``repro serve``
and must pass the gate.  The gate then re-checks its log five times, each
with one response replaced: a report with one digit changed, the same
report sent while a flush was in flight (so it may pass only as a torn
read), an error envelope, a timeout, and a flush acknowledgement that
merged too few records.  Every replacement must be caught, and only it.
"""

from __future__ import annotations

import dataclasses
import json
import re

import gate
from workloads import WORKLOADS, build_mix

#: Seconds each tiny workload runs.
SECONDS = 2.0

_NUMBER = re.compile(r'("total_with_base": )(\d)')


def _flip_digit(text: str) -> str:
    match = _NUMBER.search(text)
    digit = str((int(match.group(2)) + 1) % 10)
    return text[:match.start(2)] + digit + text[match.end(2):]


_ERROR = json.dumps({
    "schema_version": 2, "kind": "error", "code": "internal",
    "message": "injected", "request_id": None,
})


def _corruptions(log):
    """(name, index into log, replacement record) for each injected fault."""
    flushes = [(r.sent, r.done) for r in log if r.op.kind == "flush"]
    recommend = next(
        i for i, r in enumerate(log)
        if r.op.kind == "recommend" and r.op.index >= 0 and r.status == 200
        # One with no flush in flight: only those are checked byte-exact.
        and not any(sent <= r.done and r.sent < done for sent, done in flushes)
    )
    flush = next(
        i for i, r in enumerate(log)
        if r.op.kind == "flush" and json.loads(r.text)["merged"] > 0
    )
    original, ack = log[recommend], log[flush]
    short = dict(json.loads(ack.text))
    short["merged"] -= 1
    # Sent just before the last flush that completed ahead of it.
    overlapped = max(sent for sent, done in flushes if done <= original.sent)
    flipped = _flip_digit(original.text)
    return [
        ("digit changed", recommend,
         dataclasses.replace(original, text=flipped)),
        ("digit in flight", recommend,
         dataclasses.replace(original, sent=overlapped - 1e-6, text=flipped)),
        ("error envelope", recommend,
         dataclasses.replace(original, status=500, text=_ERROR)),
        ("timeout", recommend,
         dataclasses.replace(original, status=-1, text="TimeoutError: timed out")),
        ("short flush", flush,
         dataclasses.replace(ack, text=json.dumps(short))),
    ]


def main(run_untraced) -> int:
    ok = True
    for name in WORKLOADS:
        outcome = run_untraced(build_mix(name, seed=1, seconds=SECONDS), setups=1)
        clean = not outcome.failures
        ok &= clean
        print(f"{name:<12} genuine log: {len(outcome.log)} ops, "
              f"{len(outcome.failures)} failed -> {'pass' if clean else 'FAIL'}")
        workload = WORKLOADS[name]
        for label, index, bad in _corruptions(outcome.log):
            log = list(outcome.log)
            log[index] = bad
            failures, _ = gate.verify(workload, 1, log)
            caught = set(failures) == {id(bad)}
            ok &= caught
            reason = failures.get(id(bad), "not caught")
            print(f"{'':<12} {label:<16} -> {'caught' if caught else 'MISSED'}"
                  f" ({reason})")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1
