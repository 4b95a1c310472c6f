"""Shared plumbing of the benchmark: spans, quantiles, counters, RSS.

Spans are recorded by the benchmark itself, around each call it makes
into a layer of the package (the program is not edited to measure it).
A :class:`Tracer` always times its spans, so the untraced and traced
passes run the same measuring code; only a tracing tracer keeps the
spans and switches :mod:`repro.obs` tracing on.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run (missing program, server did not start)."""


class Span:
    """One timed region; ``seconds`` is valid after the ``with`` block."""

    __slots__ = ("tracer", "name", "attrs", "id", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = 0
        self.parent = 0

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.enabled:
            self.id = tracer.next_id()
            self.parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        tracer = self.tracer
        if tracer.enabled:
            tracer.stack.pop()
            tracer.keep(self.id, self.parent, self.name, self.start, self.end, self.attrs)
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder: name, start, end, parent and attributes per span.

    Spans opened with :meth:`span` nest by a stack (one thread); spans
    timed elsewhere (the serve reader thread, per-request spans) are
    added with :meth:`add` and an explicit parent.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self._next = 0

    def next_id(self) -> int:
        self._next += 1
        return self._next

    def keep(self, sid, parent, name, start, end, attrs) -> None:
        self.spans.append((sid, parent, name, start, end, attrs))

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def current(self) -> int:
        return self.stack[-1] if self.stack else 0

    def add(self, name: str, start: float, end: float, parent: int, **attrs) -> None:
        if self.enabled:
            self.keep(self.next_id(), parent, name, start, end, attrs)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, start, end, _attrs in self.spans:
            children[parent].append((start, end))
        result = {}
        for sid, _parent, _name, start, end, _attrs in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            result[sid] = (end - start) - covered
        return result

    def idle_seconds(self, idle_names) -> float:
        """Seconds in which only spans named in ``idle_names`` ran.

        Per parent: the union of its children's intervals minus the
        union of the children not named in ``idle_names``.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        busy: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, parent, name, start, end, _attrs in self.spans:
            children[parent].append((start, end))
            if name not in idle_names:
                busy[parent].append((start, end))
        total = 0.0
        for parent, intervals in children.items():
            lo = min(a for a, _b in intervals)
            hi = max(b for _a, b in intervals)
            total += _union_length(intervals, lo, hi) - _union_length(busy[parent], lo, hi)
        return total

    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        own = self.self_times()
        totals: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, _start, _end, _attrs in self.spans:
            totals[name] += own[sid]
        return dict(totals)

    def dump(self, path: str, header: dict) -> None:
        own = self.self_times()
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "self": own[sid],
                **attrs,
            }
            for sid, parent, name, start, end, attrs in self.spans
        ]
        document = dict(header)
        document["layer_self_s"] = self.layer_seconds()
        document["spans"] = rows
        with open(path, "w") as handle:
            json.dump(document, handle)


def _union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


#: Seconds the calibration kernel takes at the reference host speed
#: (its median on the 2-core machine this benchmark was tuned on).
CALIBRATION_REF_S = 0.007


def _calibration_kernel() -> float:
    """Seconds of a fixed dict-and-integer loop, like the package's own work."""
    started = perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(20000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        acc += key ^ i
    [value for value in table.values() if value & 1]
    return perf_counter() - started


class Speedometer:
    """Host speed, sampled between timed operations.

    The machines this runs on share their cores: the same work can take
    twice as long a minute later.  A closed-loop operation's seconds are
    scaled by ``CALIBRATION_REF_S`` over the mean calibration time just
    before and after it ("seconds at reference speed"), which cancels
    the host's drift but not a change to the program.
    """

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.samples: List[float] = []

    def sample(self) -> float:
        with self.tracer.span("calibrate"):
            seconds = min(_calibration_kernel(), _calibration_kernel())
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor turning seconds measured between two samples into reference seconds."""
        return 2.0 * CALIBRATION_REF_S / (before + after)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def manager_counters(manager) -> Dict[str, float]:
    """A manager's native counters, summed per metric family.

    Read through the manager's public ``collect_metrics`` hook into a
    private registry, so no other live manager is sampled with it.
    """
    from repro.obs import MetricsRegistry

    collect = getattr(manager, "collect_metrics", None)
    if collect is None:
        return {}
    registry = MetricsRegistry()
    collect(registry)
    return snapshot_totals(registry.snapshot())


#: ``manager_counters`` families that are peaks, not totals.
PEAK_KEYS = ("repro_manager_peak_nodes",)


def core_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """The ``core.*`` per-layer metrics of summed ``manager_counters``."""
    return {
        "core.apply_calls": counts.get("repro_manager_apply_total", 0),
        "core.computed_hit_rate": ratio(
            counts.get("repro_manager_computed_hits_total", 0),
            counts.get("repro_manager_computed_lookups_total", 0),
        ),
        "core.unique_hit_rate": ratio(
            counts.get("repro_manager_unique_hits_total", 0),
            counts.get("repro_manager_unique_lookups_total", 0),
        ),
        "core.gc_reclaimed": counts.get("repro_manager_gc_reclaimed_total", 0),
        "core.peak_nodes": counts.get("repro_manager_peak_nodes", 0),
    }


def snapshot_totals(snap: dict) -> Dict[str, float]:
    """``{family: value summed over its samples}`` of counters and gauges."""
    totals = {}
    for name, entry in snap.items():
        if entry.get("type") == "histogram":
            continue
        totals[name] = sum(sample["value"] for sample in entry.get("samples", ()))
    return totals


def add_counts(into: Dict[str, float], counts: Dict[str, float]) -> None:
    """Add ``counts`` into ``into``: totals sum, ``PEAK_KEYS`` take the max."""
    for key, value in counts.items():
        if key in PEAK_KEYS:
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of process ``pid`` and its descendants."""
    total_kib = 0
    pending = [pid]
    seen = set()
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
            with open(f"/proc/{current}/task/{current}/children") as handle:
                pending.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return total_kib / 1024.0


#: ``prctl`` option that makes a process the parent of its orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent ends first.

    The server's worker and resource tracker can outlive the server by
    a moment; adopted, they can be waited for instead of being left to
    init.  Without ``prctl`` this does nothing.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def descendants(pid: int) -> List[int]:
    """Process ids of every running descendant of ``pid``."""
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            continue
        found.extend(children)
        pending.extend(children)
    return found


def _proc_state(pid: int) -> Tuple[str, int]:
    """State letter and parent id of ``pid``; ``("", 0)`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return "", 0
    return fields[0], int(fields[1])


def _children() -> List[int]:
    """Process ids of this process's children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _proc_state(int(entry))[1] == me:
            pids.append(int(entry))
    return pids


def _ended(pid: int) -> bool:
    """Reap ``pid`` if it is a finished child; True once it has ended."""
    try:
        done, _status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return True
    except ChildProcessError:
        pass
    return _proc_state(pid)[0] in ("", "Z", "X")


def _release_resource_tracker() -> None:
    """Let this process's ``multiprocessing`` resource tracker exit.

    It ends when the pipe to it closes (it ignores SIGTERM); the wait
    for it is :func:`stop_processes`'s.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)
        tracker._fd = None
        tracker._pid = None


def stop_processes(pids: Optional[Iterable[int]] = None, grace_s: float = 10.0) -> None:
    """Wait until ``pids`` (default: every child of this process) have ended.

    A process still running after ``grace_s`` seconds is killed; one
    that outlives a second ``grace_s`` fails the run.
    """
    if pids is None:
        _release_resource_tracker()
    wanted = None if pids is None else list(pids)
    started = perf_counter()
    while True:
        alive = [pid for pid in (_children() if wanted is None else wanted) if not _ended(pid)]
        if not alive:
            return
        waited = perf_counter() - started
        if waited > 2 * grace_s:
            raise BenchError(f"processes {alive} did not end")
        if waited > grace_s:
            for pid in alive:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.02)


def out_dir(root: str) -> str:
    """The benchmark's scratch directory inside the checkout."""
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path


class Checks:
    """Counts operations attempted and failed (wrong, refused, timed out)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


def pass_budget(started: float, seconds: float, pass_times: List[float]) -> bool:
    """Whether another pass fits: at least one, then while one more fits."""
    if not pass_times:
        return True
    elapsed = perf_counter() - started
    return elapsed + median(pass_times) <= seconds


def per_key_medians(passes: List[dict], field: str) -> Dict:
    """Per operation key, the median of its seconds over the passes."""
    return {
        key: median([p[field][key] for p in passes if key in p[field]])
        for key in passes[0][field]
    }


def op_latency_metrics(op_seconds: Iterable[float]) -> Dict[str, float]:
    """p50/p99 (ms) and throughput (1/s) of closed-loop operations."""
    op_seconds = list(op_seconds)
    return {
        "p50_ms": percentile(op_seconds, 50) * 1000.0,
        "p99_ms": percentile(op_seconds, 99) * 1000.0,
        "throughput": ratio(len(op_seconds), sum(op_seconds)),
    }


def blif_input(network) -> str:
    """BLIF text of ``network`` with internal signals renamed apart.

    ``write_blif`` emits output names beside internal signal names; a
    generator that names an output like an internal wire (``count``
    does) would otherwise produce BLIF whose outputs alias the wrong
    wires.  Renaming every internal gate to ``w_<name>`` keeps the
    function and the input order exactly.
    """
    from repro.network.blif import write_blif
    from repro.network.network import LogicNetwork

    renamed = LogicNetwork(network.name)
    renamed.add_inputs(network.inputs)
    mapping = {name: name for name in network.inputs}
    for signal in network.topological_order():
        gate = network.gates[signal]
        mapping[signal] = renamed.add_gate(
            gate.op, [mapping[f] for f in gate.fanins], name="w_" + signal
        )
    for name, signal in network.outputs:
        renamed.set_output(name, mapping[signal])
    return write_blif(renamed)
