"""Server processes and the open- and closed-loop load generators.

The benchmark process is the only load generator.  It opens at most
``nproc`` keep-alive connections (one per sender thread) and sends
pre-serialized bodies through :meth:`ServerClient.request_raw`, so typed
client parsing never runs inside a timed window.  Every operation becomes
an :class:`OpRecord` with its due, send and completion times; the
correctness gate and the metrics read only those records.
"""

from __future__ import annotations

import collections
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.server.client import ServerClient

import procs
from workloads import BURST_BODY_CHUNKS, FLUSH_EVERY

#: The line ``repro serve`` prints on stderr once its socket is bound.
_SERVING = re.compile(r"serving v2 envelopes on http://([^:\s]+):(\d+)")

#: Seconds one HTTP exchange may take before it counts as failed, and
#: seconds a server may take to bind and to exit after SIGINT: short
#: enough that a hung server still ends the run well inside its limit.
REQUEST_TIMEOUT = 10.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0

#: Periodic telemetry merges are pushed past any run, so the served
#: store changes exactly at the mix's flushes and the twin can replay it.
MERGE_INTERVAL = "3600"

#: Engines the server keeps: eight warm contracts on three providers
#: need 24, more than the default 16, or the LRU evicts every engine
#: just before its contract comes round again.
CACHE_CAPACITY = "32"


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Op:
    """One HTTP operation: a recommend, an ingest body or a flush."""

    kind: str
    path: str
    body: bytes | None
    #: Recommend: body index in the mix, or one of the negative tags
    #: below.  Ingest: chunk number.  Flush: -1.
    index: int = -1
    #: Records an ingest body carries.
    lines: int = 0


#: ``Op.index`` of recommends outside the timed stream.
WARMUP, FINAL, PROBE = -1, -2, -3


@dataclass
class OpRecord:
    op: Op
    due: float
    sent: float
    done: float
    #: HTTP status, or -1 when the exchange raised (timeout, reset).
    status: int
    text: str

    @property
    def latency(self) -> float:
        """Seconds from due time to completion (open-loop latency)."""
        return self.done - self.due

    @property
    def rtt(self) -> float:
        return self.done - self.sent

    @property
    def lag(self) -> float:
        """Seconds the generator sent this op after it was due."""
        return self.sent - self.due


def recommend_op(body: bytes, index: int) -> Op:
    return Op("recommend", "/v2/recommend", body, index)


def ingest_op(body: bytes, index: int, lines: int) -> Op:
    return Op("ingest", "/v2/ingest", body, index, lines)


def flush_op() -> Op:
    return Op("flush", "/v2/ingest/flush", None)


def new_client(host: str, port: int) -> ServerClient:
    return ServerClient(
        host, port, timeout=REQUEST_TIMEOUT, idempotency=False,
        rate_limit_budget=0.0,
    )


def send(client: ServerClient, op: Op, due: float | None = None) -> OpRecord:
    """One exchange; transport failures become a status -1 record."""
    sent = time.perf_counter()
    try:
        status, text = client.request_raw("POST", op.path, op.body)
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        status, text = -1, f"{type(exc).__name__}: {exc}"
    return OpRecord(
        op, sent if due is None else due, sent, time.perf_counter(), status,
        text,
    )


def send_all(client: ServerClient, ops: Sequence[Op]) -> list[OpRecord]:
    """Send ops one after another (warm-up, final checks, bursts)."""
    return [send(client, op) for op in ops]


# -- open loop ---------------------------------------------------------------

def open_loop_schedule(mix) -> list[tuple[float, Op]]:
    """The open-loop phase as ``(due offset, op)`` in due order.

    Recommends arrive at the workload's fixed rate, evenly spaced.  The
    telemetry stream, when the workload has one, arrives at its own
    rate, with a flush after every few bodies.
    """
    workload = mix.workload
    schedule = [
        (index / workload.rate, recommend_op(mix.bodies[index], index))
        for index in range(mix.open_requests)
    ]
    for number in range(mix.open_chunks):
        chunk = number % len(mix.chunks)
        offset = number / workload.ingest_rate
        schedule.append(
            (offset, ingest_op(mix.chunks[chunk], number, mix.chunk_lines[chunk]))
        )
        if (number + 1) % FLUSH_EVERY == 0 or number + 1 == mix.open_chunks:
            schedule.append((offset, flush_op()))
    return sorted(schedule, key=lambda item: item[0])


def run_open_loop(
    client: ServerClient, width: int, schedule: Sequence[tuple[float, Op]]
) -> list[OpRecord]:
    """``width`` senders send each op at its due time, or at once if late.

    Senders share the schedule: each takes the next op as soon as it is
    free.  Latency is measured from the due time, so a stall counts
    against every request it delays.  Ingest bodies and flushes keep
    their order: each waits until the one before it has completed, so
    the served store changes only at flushes the twin can replay.
    """
    start = time.perf_counter() + 0.05
    records: list[OpRecord] = []
    lock = threading.Lock()
    cursor = iter(schedule)
    previous = threading.Event()
    previous.set()

    def sender() -> None:
        nonlocal previous
        while True:
            with lock:
                item = next(cursor, None)
                if item is None:
                    return
                offset, op = item
                after, done = None, None
                if op.kind != "recommend":
                    after, done = previous, threading.Event()
                    previous = done
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if after is not None:
                after.wait()
            record = send(client, op, due)
            if done is not None:
                done.set()
            with lock:
                records.append(record)

    threads = [threading.Thread(target=sender) for _ in range(width)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda record: record.due)


# -- closed loop -------------------------------------------------------------

def run_closed_loop(
    client: ServerClient, width: int, ops: Sequence[Op], seconds: float
) -> tuple[list[OpRecord], float, bool]:
    """``width`` senders send ``ops`` back to back for ``seconds``.

    Returns the records, the window's end (ops completing after it are
    verified but not counted) and whether the op pool ran out.
    """
    start = time.perf_counter()
    deadline = start + seconds
    records: list[OpRecord] = []
    lock = threading.Lock()
    cursor = iter(ops)
    exhausted = []

    def sender() -> None:
        while time.perf_counter() < deadline:
            with lock:
                op = next(cursor, None)
            if op is None:
                exhausted.append(True)
                return
            record = send(client, op)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=sender) for _ in range(width)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda r: r.sent), deadline, bool(exhausted)


def burst_ops(mix, bodies: int, first_chunk: int) -> list[Op]:
    """``bodies`` large ingest bodies, a flush after every few and at the end.

    Each body joins :data:`BURST_BODY_CHUNKS` pool chunks, so a burst
    measures parsing and merging rather than per-request round trips.
    """
    ops = []
    for number in range(bodies):
        first = first_chunk + number * BURST_BODY_CHUNKS
        picks = [(first + k) % len(mix.chunks) for k in range(BURST_BODY_CHUNKS)]
        ops.append(ingest_op(
            b"".join(mix.chunks[pick] for pick in picks), first,
            sum(mix.chunk_lines[pick] for pick in picks),
        ))
        if (number + 1) % FLUSH_EVERY == 0:
            ops.append(flush_op())
    if ops[-1].kind != "flush":
        ops.append(flush_op())
    return ops


def run_ingest_burst(
    client: ServerClient, mix, bodies: int, first_chunk: int
) -> tuple[list[OpRecord], float]:
    """Closed-loop telemetry: :func:`burst_ops` sent back to back.

    The burst is a fixed amount of work, not a fixed time, so history
    grows by the same amount in every run.  Returns the records and the
    records merged per second, flush included.
    """
    ops = burst_ops(mix, bodies, first_chunk)
    start = time.perf_counter()
    records = send_all(client, ops)
    merged = sum(r.op.lines for r in records)
    return records, merged / (records[-1].done - start)


# -- the server under test ----------------------------------------------------

class ServerProcess:
    """One ``repro serve`` child, bound to an ephemeral port."""

    def __init__(self, root: Path, workload, seed: int) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", str(workload.workers),
            "--observe-years", repr(workload.observe_years),
            "--seed", str(seed),
            "--merge-interval", MERGE_INTERVAL,
            "--cache-capacity", CACHE_CAPACITY,
        ]
        # REPRO_* variables change serve defaults (workers, tracing,
        # auth, backend); the benchmark pins its own configuration.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        self.tail: collections.deque[str] = collections.deque(maxlen=40)
        self.host: str | None = None
        self.port: int | None = None
        self._bound = threading.Event()
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.tail.append(line.rstrip())
            if self.port is None:
                match = _SERVING.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._bound.set()
        self._bound.set()

    def client(self) -> ServerClient:
        """A client once the socket is bound; raises if it never binds."""
        if not self._bound.wait(START_TIMEOUT) or self.port is None:
            self.stop()
            raise RuntimeError(
                "repro serve did not bind:\n" + "\n".join(self.tail)
            )
        return new_client(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """Sum of peak resident set sizes over the server's process tree."""
        total_kb = 0
        for pid in procs.tree(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful: the gateway stops its workers), then SIGKILL."""
        if self.proc.poll() is None:
            descendants = procs.tree(self.proc.pid)[1:]
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            procs.await_exit(descendants)
        self._reader.join(timeout=10.0)
        if self.proc.stderr is not None:
            self.proc.stderr.close()

