"""Workload ``serve``: TCP traffic against ``python -m repro.serve``.

Setup builds and sifts misex3 from its BLIF text, writes it as a v2
compressed dump and starts the server as a subprocess with
``--workers 1``, so the shared-memory (``ShmForest``) zero-copy path
and the worker IPC are on the blocking path of every request.

One client sends over one connection on a seeded schedule.  The mix is
90% ``eval``, 8.5% ``p_one`` with random weights and 1.5% ``marginals``,
in blocks of 200 requests that hold the exact mix with each heavy kind
evenly spaced from a seeded offset; each request picks an output
uniformly and covers that output's own support.

* End to end (``--trace 0``), closed loop: the client sends one request,
  waits for its reply and sends the next.  The schedule is replayed
  pass after pass; each request's round trip is the median over the
  passes, and ``p50_ms``/``p99_ms``/``throughput`` are taken over those
  medians, as for the closed-loop workloads.  The same request kinds
  replayed in process on the ``bbdd`` (served forest), ``bdd`` and
  ``xmem`` forests give ``bbdd_s``/``bdd_s``/``xmem_s`` and double as a
  differential oracle.
* Traced (``--trace 1``), open loop: a step at the fixed reference rate,
  latency timed from each request's due time (so a stall also delays
  the requests queued behind it), gives ``serve.client_p50_ms``/
  ``serve.client_p99_ms``; a ladder gives ``serve.max_qps``, the highest
  offered rate whose latency tail stays within the limit with no
  growing backlog.  It doubles or halves its rate until one step
  passes and one fails, then bisects between the two until they are at
  most 10% apart.  On a shared 2-core host these open-loop figures
  spread too widely between runs for a 25% bound, so they are per-layer
  metrics, without one.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction
from typing import Dict, List, Optional

from common import (
    BenchError,
    Speedometer,
    descendants,
    median,
    op_latency_metrics,
    pass_budget,
    percentile,
    perf_counter,
    ratio,
    stop_processes,
    tree_peak_rss_mb,
)

CIRCUIT = "misex3"
#: Offered rate of the reference step: a little under half the knee (~250 q/s)
#: measured on the commit that introduced this benchmark, 2 cores.
REFERENCE_QPS = 110.0
#: Latency limit of the ladder, from each request's due time.  It holds
#: on the p99 of a step with at least 1,000 requests, and otherwise on
#: the highest percentile with ten samples beyond it (see
#: ``tail_percentile``).  A ``marginals`` request alone takes 30-60 ms
#: of service there and p99 sits on that plateau from 60 to 200 q/s, so
#: a 50 ms limit would measure which outputs the rare heavy requests hit;
#: 100 ms lies above the plateau, where the knee is the point at which
#: the server saturates and latency climbs steeply.
LATENCY_LIMIT_MS = 100.0
#: First rate of the ladder.  It only sets how many steps the search
#: takes, not where it ends: the rate doubles or halves from here until
#: the knee is bracketed by a passing and a failing step.
LADDER_START_QPS = 2 * REFERENCE_QPS
#: The ladder bisects until its passing and failing rates are at most
#: this factor apart.
LADDER_RESOLUTION = 1.10
#: A ladder that has not bracketed the knee after this many steps
#: fails the run rather than report a rate it never resolved.
LADDER_STEP_LIMIT = 12
#: Length of one ladder step and of the reference-rate step (open loop,
#: traced run only).
LADDER_STEP_S = 2.0
REFERENCE_STEP_S = 8.0
#: Requests in the closed-loop schedule, and the share of ``--seconds``
#: spent replaying it (the rest goes to the in-process replay).  933
#: requests hold 14 ``marginals``, one on each misex3 output: p99 falls
#: among them, so it must not depend on which outputs a seed picks.
CLOSED_REQUESTS = 933
CLOSED_SHARE = 0.7
#: A backlog above this many seconds' worth of requests when sending
#: stops counts as growing; above ``ABORT_BACKLOG_S`` the step stops.
BACKLOG_S = 0.1
ABORT_BACKLOG_S = 0.5
#: Seconds to wait for outstanding replies before they count as lost.
DRAIN_TIMEOUT_S = 30.0
SERVER_START_TIMEOUT_S = 60.0
#: Weight vectors per output drawn for p_one (marginals use the first).
WEIGHT_POOL = 4
#: In-process replay per output: evals, p_one calls, marginals calls.
REPLAY_EVALS = 10
REPLAY_P_ONE = 2
REPLAY_MARGINALS = 1
REPLAY_REPS = 5
TOLERANCE = 1e-9
REPLAY_SPANS = {"eval": "serve.bulk", "p_one": "wmc.p_one", "marginals": "wmc.marginals"}
#: One block of the request mix: 90% eval, 8.5% p_one, 1.5% marginals.
#: With exactly 1% marginals, p99 would sit on the boundary between the
#: slowest marginals and everything else and jump between the two.
MIX_BLOCK = 200
MIX_HEAVY = (("marginals", 3), ("p_one", 17))


def tail_percentile(samples: int) -> float:
    """p99, or the highest percentile with ten of ``samples`` beyond it."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / max(samples, 1))))


class _Connection:
    """One TCP connection: a sender (caller's thread) and a reader thread."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.replies: Dict[int, tuple] = {}
        self.cond = threading.Condition()
        self.closed = False
        self._file = self.sock.makefile("rb")
        self._reader = threading.Thread(target=self._read, name="serve-reader", daemon=True)
        self._reader.start()

    def _read(self) -> None:
        try:
            for line in self._file:
                received = perf_counter()
                reply = json.loads(line)
                with self.cond:
                    self.replies[reply.get("id")] = (received, reply)
                    self.cond.notify_all()
        except (OSError, ValueError):
            pass
        with self.cond:
            self.closed = True
            self.cond.notify_all()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def answered(self) -> int:
        return len(self.replies)

    def wait_for(self, ids, timeout: float) -> None:
        deadline = perf_counter() + timeout
        with self.cond:
            while not self.closed and any(i not in self.replies for i in ids):
                left = deadline - perf_counter()
                if left <= 0:
                    return
                self.cond.wait(left)

    def call(self, request: dict, timeout: float = 30.0) -> dict:
        """Send one control request (``stats``/``metrics``) and wait for it."""
        self.send((json.dumps(request) + "\n").encode())
        self.wait_for([request["id"]], timeout)
        reply = self.replies.pop(request["id"], None)
        if reply is None:
            raise BenchError(f"no reply to control request {request!r}")
        return reply[1]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)
        self._file.close()


class Serve:
    name = "serve"

    def __init__(self, out: str) -> None:
        self.out = out
        # The reader thread and the sender share the interpreter lock;
        # a short switch interval keeps reply timestamps from waiting
        # out the sender's time slice.
        sys.setswitchinterval(0.0005)
        self.path: Optional[str] = None
        self.server: Optional[subprocess.Popen] = None
        self.conn: Optional[_Connection] = None
        self._next_id = 0
        self._exact: Dict = {}

    # -- setup ----------------------------------------------------------------

    def setup(self, seed: int) -> None:
        from repro import io as rio
        from repro.circuits.registry import TABLE1_ROWS
        from repro.network.blif import parse_blif
        from repro.network.build import build
        from common import blif_input

        self.rng = random.Random(seed)
        row = next(r for r in TABLE1_ROWS if r.name == CIRCUIT)
        network = parse_blif(blif_input(row.build(full=False)))
        manager, functions = build(network, backend="bbdd")
        manager.sift()
        self.path = os.path.join(self.out, f"serve-{os.getpid()}.bbdd")
        manager.dump(functions, self.path, compress=True)
        self._start_server()
        served_manager, self.served = rio.load(self.path)
        self.forests = {"bbdd": self.served}
        for backend in ("bdd", "xmem"):
            kwargs = {"spill_dir": self.out} if backend == "xmem" else {}
            _m, self.forests[backend] = build(network, backend=backend, **kwargs)
        self.served_manager = served_manager
        self.outputs = sorted(self.served)
        self.supports = {out: sorted(self.served[out].support()) for out in self.outputs}
        self.weights = {
            out: [
                {v: self.rng.randrange(1, 64) / 64 for v in self.supports[out]}
                for _ in range(WEIGHT_POOL)
            ]
            for out in self.outputs
        }
        self._marginals_order = list(self.outputs)
        self.rng.shuffle(self._marginals_order)
        self._marginals_next = 0
        self.replay = self._replay_items()
        self._exact = {}

    def _start_server(self) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = self.out
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", self.path, "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = _read_line(self.server.stdout, SERVER_START_TIMEOUT_S)
        if not line.startswith("serving "):
            self._stop_server()
            raise BenchError(f"server did not start: {line!r}")
        port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.conn = _Connection(port)

    def _stop_server(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            # Its worker and resource tracker may outlive it by a moment.
            spawned = descendants(self.server.pid)
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait(timeout=30)
            self.server.stdout.close()
            self.server = None
            stop_processes(spawned)

    def discard(self) -> None:
        self._stop_server()
        if self.path is not None and os.path.exists(self.path):
            os.remove(self.path)

    def finish(self, tracer, checks) -> None:
        pass

    def close(self) -> None:
        self.discard()

    def peak_rss_mb(self) -> float:
        if self.server is None:
            raise BenchError("server is not running")
        return tree_peak_rss_mb(self.server.pid)

    # -- requests -----------------------------------------------------------

    def _request(self, kind: str, out: str) -> dict:
        self._next_id += 1
        request = {"id": self._next_id, "f": out}
        if kind == "eval":
            request["assignment"] = {v: self.rng.getrandbits(1) for v in self.supports[out]}
        else:
            index = 0 if kind == "marginals" else self.rng.randrange(WEIGHT_POOL)
            request["op"] = kind
            request["weights"] = self.weights[out][index]
            request["_w"] = index
        return request

    def _mix_block(self) -> List[str]:
        """One block of kinds, each heavy kind evenly spaced from a seeded offset.

        Shuffled blocks would let heavy requests cluster by chance, and
        how often they do would decide the latency tail more than the
        server does.
        """
        kinds = ["eval"] * MIX_BLOCK
        for kind, count in MIX_HEAVY:
            offset = self.rng.random()
            for index in range(count):
                slot = int((index + offset) * MIX_BLOCK / count)
                while kinds[slot % MIX_BLOCK] != "eval":
                    slot += 1
                kinds[slot % MIX_BLOCK] = kind
        return kinds

    def _schedule(self, count: int) -> List[dict]:
        kinds: List[str] = []
        while len(kinds) < count:
            kinds.extend(self._mix_block())
        requests = []
        for kind in kinds[:count]:
            if kind == "marginals":
                # The rare heavy requests visit every output in turn, so
                # a short step does not hinge on which outputs they hit.
                out = self._marginals_order[self._marginals_next % len(self.outputs)]
                self._marginals_next += 1
            else:
                out = self.rng.choice(self.outputs)
            requests.append(self._request(kind, out))
        return requests

    def _replay_items(self) -> List[tuple]:
        items = []
        for out in self.outputs:
            for _ in range(REPLAY_EVALS):
                items.append(("eval", out, self._request("eval", out)))
            for index in range(REPLAY_P_ONE):
                items.append(("p_one", out, {"weights": self.weights[out][index], "_w": index}))
            for _ in range(REPLAY_MARGINALS):
                items.append(("marginals", out, {"weights": self.weights[out][0], "_w": 0}))
        self.rng.shuffle(items)
        return items

    # -- one open-loop step ---------------------------------------------------

    def _step(self, rate: float, seconds: float, abort: bool, tracer, parent: int = 0) -> dict:
        """Offer ``rate`` requests/s for ``seconds``; returns the step record.

        Spans (generator wait, send and drain, and one per request from
        its due time to its reply) go to ``tracer`` under ``parent``.
        """
        count = max(1, int(round(rate * seconds)))
        requests = self._schedule(count)
        payloads = _encode(requests)
        conn = self.conn
        base = conn.answered()
        sent: List[dict] = []
        lateness: List[float] = []
        limit = rate * ABORT_BACKLOG_S + 10
        aborted = False
        with _gc_paused():
            start = perf_counter() + 0.02
            for index, (request, data) in enumerate(zip(requests, payloads)):
                due = start + index / rate
                now = perf_counter()
                if due > now:
                    time.sleep(due - now)
                    tracer.add("gen.wait", now, perf_counter(), parent)
                at = perf_counter()
                conn.send(data)
                tracer.add("gen.send", at, perf_counter(), parent)
                lateness.append(at - due)
                request["_due"] = due
                sent.append(request)
                if abort and len(sent) - (conn.answered() - base) > limit:
                    aborted = True
                    break
            backlog_end = len(sent) - (conn.answered() - base)
            drain_start = perf_counter()
            conn.wait_for([r["id"] for r in sent], DRAIN_TIMEOUT_S)
            tracer.add("gen.drain", drain_start, perf_counter(), parent)
        latencies = []
        answered = []
        for request in sent:
            got = conn.replies.pop(request["id"], None)
            if got is None:
                answered.append((request, None))
                continue
            received, reply = got
            latencies.append(received - request["_due"])
            answered.append((request, reply))
            tracer.add(
                "serve.request", request["_due"], received, parent,
                rid=request["id"], kind=request.get("op", "eval"),
            )
        errors = sum(1 for _r, reply in answered if reply is None or "error" in reply)
        tail = percentile(latencies, tail_percentile(len(latencies))) * 1000.0 if latencies else float("inf")
        ok = (
            not aborted
            and errors == 0
            and tail <= LATENCY_LIMIT_MS
            and backlog_end <= rate * BACKLOG_S + 2
        )
        return {
            "rate": rate,
            "answered": answered,
            "latencies": latencies,
            "lateness": lateness,
            "backlog_end": backlog_end,
            "aborted": aborted,
            "ok": ok,
            "tail_ms": tail,
        }

    def _ladder(self, tracer, parent: int) -> tuple:
        """Bracket the knee by doubling or halving, then bisect it.

        Returns the highest passing rate and the steps run.  Both it
        and a failing rate at most ``LADDER_RESOLUTION`` above it were
        offered; when the steps run out first, the run fails.
        """
        rate, low, high = LADDER_START_QPS, None, None
        steps: List[dict] = []
        while low is None or high is None or high / low > LADDER_RESOLUTION:
            if len(steps) == LADDER_STEP_LIMIT:
                raise BenchError(
                    f"ladder did not resolve the knee in {LADDER_STEP_LIMIT} steps "
                    f"(highest pass {low}, lowest fail {high} q/s)"
                )
            step = self._step(rate, LADDER_STEP_S, abort=True, tracer=tracer, parent=parent)
            steps.append(step)
            if step["ok"]:
                low = rate
            else:
                high = rate
            if high is None:
                rate = 2 * low
            elif low is None:
                rate = high / 2
            else:
                rate = math.sqrt(low * high)
        return low, steps

    # -- in-process replay and checking ---------------------------------------

    def _replay(self, backend: str, tracer) -> tuple:
        """The replay set on one backend: per-item seconds and answers."""
        functions = self.forests[backend]
        times, values = [], []
        with tracer.span("serve.replay", backend=backend):
            for kind, out, request in self.replay:
                f = functions[out]
                with tracer.span(REPLAY_SPANS[kind], backend=backend) as s:
                    if kind == "eval":
                        value = f.evaluate_batch([request["assignment"]])[0]
                    elif kind == "p_one":
                        value = f.p_one(request["weights"], exact=False)
                    else:
                        value = f.marginals(request["weights"], exact=False)
                times.append(s.seconds)
                values.append(value)
        return times, values

    def _check_replay(self, backend: str, values: list, tracer, checks) -> None:
        with tracer.span("check"):
            for (kind, out, request), value in zip(self.replay, values):
                checks.check(
                    self._matches(kind, out, request, value),
                    f"in-process {kind} on {backend}/{out} differs from the oracle",
                )

    def _oracle(self, kind: str, out: str, request: dict):
        if kind == "eval":
            return None
        key = (kind, out, request["_w"])
        if key not in self._exact:
            weights = {v: Fraction(w) for v, w in request["weights"].items()}
            f = self.served[out]
            self._exact[key] = (
                f.p_one(weights) if kind == "p_one" else f.marginals(weights)
            )
        return self._exact[key]

    def _matches(self, kind: str, out: str, request: dict, value) -> bool:
        if kind == "eval":
            expected = self.served[out].evaluate_batch([request["assignment"]])[0]
            return value is not None and bool(value) == bool(expected)
        exact = self._oracle(kind, out, request)
        if kind == "p_one":
            return isinstance(value, float) and abs(value - float(exact)) <= TOLERANCE
        return (
            isinstance(value, dict)
            and set(value) == set(exact)
            and all(abs(value[v] - float(exact[v])) <= TOLERANCE for v in exact)
        )

    def _check_replies(self, steps: List[dict], tracer, checks) -> None:
        with tracer.span("check"):
            evals: Dict[str, list] = {}
            for step in steps:
                for request, reply in step["answered"]:
                    kind = request.get("op", "eval")
                    if reply is None or "error" in reply:
                        checks.check(False, f"request {request['id']} ({kind}) failed: {reply}")
                    elif kind == "eval":
                        evals.setdefault(request["f"], []).append((request, reply["result"]))
                    else:
                        checks.check(
                            self._matches(kind, request["f"], request, reply["result"]),
                            f"served {kind} on {request['f']} differs from the oracle",
                        )
            for out, pairs in evals.items():
                batch = [request["assignment"] for request, _value in pairs]
                expected = self.served[out].evaluate_batch(batch)
                for (request, value), want in zip(pairs, expected):
                    checks.check(
                        value is bool(want),
                        f"served eval {request['id']} on {out} differs from evaluate_batch",
                    )

    # -- metrics --------------------------------------------------------------

    def _closed_pass(self, requests: List[dict], payloads: List[bytes]) -> tuple:
        """Send each request after the previous reply; round trips and answers."""
        conn = self.conn
        times: List[float] = []
        answered: List[tuple] = []
        with _gc_paused():
            for request, data in zip(requests, payloads):
                sent = perf_counter()
                conn.send(data)
                conn.wait_for([request["id"]], DRAIN_TIMEOUT_S)
                got = conn.replies.pop(request["id"], None)
                times.append((got[0] if got else perf_counter()) - sent)
                answered.append((request, got[1] if got else None))
        return times, answered

    def measure(self, seconds: float, tracer, checks) -> Dict[str, float]:
        requests = self._schedule(CLOSED_REQUESTS)
        payloads = _encode(requests)
        # The freshly started server answers its first requests slowly.
        _times, answered = self._closed_pass(requests, payloads)
        started = perf_counter()
        passes: List[List[float]] = []
        while pass_budget(started, CLOSED_SHARE * seconds, [sum(p) for p in passes]):
            times, pairs = self._closed_pass(requests, payloads)
            passes.append(times)
            answered.extend(pairs)
        self._check_replies([{"answered": answered}], tracer, checks)
        round_trips = [median(column) for column in zip(*passes)]
        replay = {backend: [] for backend in self.forests}
        speed = Speedometer(tracer)
        before = speed.sample()
        for rep in range(REPLAY_REPS):
            for backend in self.forests:
                times, values = self._replay(backend, tracer)
                after = speed.sample()
                factor = speed.scale(before, after)
                before = after
                replay[backend].append([t * factor for t in times])
                if rep == 0:
                    self._check_replay(backend, values, tracer, checks)
        return {
            # Per replay item, the median over repetitions; summed.
            **{
                f"{backend}_s": sum(median(column) for column in zip(*replay[backend]))
                for backend in self.forests
            },
            "bbdd_nodes": self.served_manager.node_count(list(self.served.values())),
            **op_latency_metrics(round_trips),
        }

    def one_pass(self, tracer, checks) -> dict:
        """Open loop (reference-rate step, ladder) and the in-process side."""
        stats_before = self.conn.call({"op": "stats", "id": "stats-before"})["result"]
        metrics_before = self.conn.call({"op": "metrics", "id": "metrics-before"})["result"]
        with tracer.span("serve.pass") as whole:
            parent = tracer.current()
            step = self._step(
                REFERENCE_QPS, REFERENCE_STEP_S, abort=False, tracer=tracer, parent=parent,
            )
            # The server's counters and latency histogram describe the
            # reference step, not the ladder's overload.
            with tracer.span("serve.stats"):
                stats_after = self.conn.call({"op": "stats", "id": "stats-after"})["result"]
                metrics_after = self.conn.call({"op": "metrics", "id": "metrics-after"})["result"]
            ladder_start = perf_counter()
            knee, ladder = self._ladder(tracer, parent)
            ladder_s = perf_counter() - ladder_start
            for backend in self.forests:
                self._replay(backend, tracer)
            shm = self._shared_memory_side(tracer)
        self._check_replies([step] + ladder, tracer, checks)
        delta = {k: stats_after[k] - stats_before.get(k, 0)
                 for k, v in stats_after.items() if isinstance(v, (int, float))}
        latency = _histogram_delta(
            metrics_before.get("repro_serve_request_latency_seconds"),
            metrics_after.get("repro_serve_request_latency_seconds"),
        )
        stats = {
            "wall_s": whole.seconds,
            # The ladder's length varies with where it ends; traced and
            # untraced passes compare the rest.
            "timed_s": whole.seconds - ladder_s,
            "knee": knee,
            "server": delta,
            "latency": latency,
            "step": step,
            "shm": shm,
        }
        return stats

    def _shared_memory_side(self, tracer) -> dict:
        from repro.par import freeze

        with tracer.span("par.freeze") as s:
            segment = freeze(self.served_manager, self.served)
        result = {"freeze_s": s.seconds, "bytes": segment.nbytes, "shm": 0.0, "inproc": 0.0}
        try:
            for out in self.outputs:
                for weights in self.weights[out]:
                    with tracer.span("par.p_one_shm") as s:
                        segment.p_one(out, weights, exact=False)
                    result["shm"] += s.seconds
                    with tracer.span("wmc.p_one_inproc") as s:
                        self.served[out].p_one(weights, exact=False)
                    result["inproc"] += s.seconds
        finally:
            segment.close()
            segment.unlink()
        return result

    def layer_metrics(self, stats: dict, tracer) -> Dict[str, float]:
        from repro.obs import snapshot_quantile

        server = stats["server"]
        step = stats["step"]
        latency = stats["latency"]
        hits = server.get("cache_hits", 0)
        misses = server.get("cache_misses", 0)
        out = {
            "par.freeze_s": stats["shm"]["freeze_s"],
            "par.segment_bytes": stats["shm"]["bytes"],
            "par.p_one_shm_s": stats["shm"]["shm"],
            "wmc.p_one_inproc_s": stats["shm"]["inproc"],
            "serve.mean_batch": ratio(server.get("queries", 0), server.get("batches_flushed", 0)),
            "serve.flushes": server.get("batches_flushed", 0),
            "serve.cache_hit_rate": ratio(hits, hits + misses),
            "serve.shards_dispatched": server.get("shards_dispatched", 0),
            "serve.worker_restarts": server.get("worker_restarts", 0),
            "serve.batch_retries": server.get("batch_retries", 0),
            "serve.gen_late_ms": percentile(step["lateness"], 99) * 1000.0,
            "serve.backlog_end": step["backlog_end"],
            "serve.client_p50_ms": percentile(step["latencies"], 50) * 1000.0,
            "serve.client_p99_ms": percentile(step["latencies"], 99) * 1000.0,
            "serve.max_qps": stats["knee"],
        }
        if latency is not None:
            out["serve.server_p50_ms"] = snapshot_quantile(latency, 0.5) * 1000.0
            out["serve.server_p99_ms"] = snapshot_quantile(latency, 0.99) * 1000.0
        return out


def _encode(requests: List[dict]) -> List[bytes]:
    """Request lines as sent: the benchmark's own ``_w`` key left out."""
    return [
        (json.dumps({k: v for k, v in r.items() if k != "_w"}) + "\n").encode()
        for r in requests
    ]


@contextlib.contextmanager
def _gc_paused():
    """Collect now and keep the client's collector off until the block ends.

    Its pauses would otherwise show as server latency.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _histogram_delta(before: Optional[dict], after: Optional[dict]) -> Optional[dict]:
    """``after - before`` of an unlabeled histogram snapshot entry."""
    if after is None:
        return None
    entry = dict(after)
    if before is not None:
        old = before["samples"][0]
        new = after["samples"][0]
        sample = dict(new)
        sample["counts"] = [b - a for a, b in zip(old["counts"], new["counts"])]
        sample["count"] = new["count"] - old["count"]
        sample["sum"] = new["sum"] - old["sum"]
        entry["samples"] = [sample]
    return entry


def _read_line(stream, timeout: float) -> str:
    """The next line of ``stream``, or ``""`` after ``timeout`` seconds."""
    box: List[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else ""
