"""``tune-service``: a closed loop of one client, a ``ReproClient``,
sending managed tuning sessions one after another to a ``repro.service``
server (2 drainers, ``jobs=1``, store on) in a child process.

One client, not two: the server runs sessions on drainer threads of one
Python process, so a second concurrent session mostly waits for the
first (on a 2-CPU host two clients completed fewer sessions per second
than one) and its latency measures the scheduler, not the service.

The requests come in blocks with the same kinds of work in each, so a
run's figures do not depend on which requests its seed drew.  Block
``b`` holds eight cold requests -- ex14fj and jacobi2d under ``static``
(one with the intensity rule, one without), and the six regular and
irregular kernels under random, genetic, annealing or simplex with
budgets of 32 to 64 -- plus repeats of four cold requests of block
``b - 1`` (:data:`REPEATS`), which the store serves warm.  A third of
the sessions repeat, not a half: warm and cold sessions form two
clusters, and with half of each the median session would fall in the
gap between them and jump from run to run.  The eight
cold requests of a block use each GPU twice; the seed draws the
rotation that pairs kernels with GPUs and the order within each block;
sizes, strategies and budgets follow the block number.  No two cold
requests of a run share a (kernel, GPU, size) within the first twelve
blocks, so none is served from another's measurements.

Every session builds a fresh ``Measurer``, so compiles and redundant
branch fractions dominate cold sessions; the repeats put HTTP, protocol
and store overhead on the critical path.
"""

from __future__ import annotations

import json
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import harness
import layers

BRANCHY = ("ex14fj", "jacobi2d")
REGULAR = ("atax", "gemm", "histogram", "mvt", "scan", "spmv_csr")
STRATEGIES = ("annealing", "genetic", "random", "simplex")
BUDGETS = (32, 48, 64)
SEARCH_SEED = 1
REPEATS = ((0, 3, 5, 6), (1, 2, 4, 7))
"""Which of the previous block's cold requests a block repeats, in turn:
one branchy kernel and three others, on four different GPUs."""
REPEAT_GAP = 6
"""A repeat is issued at least this many sessions after its original."""
MIN_BLOCKS = 5
"""Five blocks give 56 sessions (block 0 has no repeats), enough for
the tail; a run normally completes ten."""
POLL_S = 0.02
"""``ReproClient.wait`` poll interval, well below the median session
(about 0.25 s on a 2-CPU x86 container)."""
TAIL_PCT = 80
"""Five blocks give 56 sessions, so 11 lie beyond the 80th percentile."""
SESSION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Request:
    kernel: str
    gpu: str
    size: int
    search: str
    budget: int | None = None
    use_rule: bool = False

    @property
    def key(self) -> str:
        return (f"{self.kernel}/{self.gpu}/{self.size}/{self.search}/"
                f"{self.budget}/{int(self.use_rule)}")

    @property
    def search_args(self) -> dict:
        return {} if self.search == "static" else {"seed": SEARCH_SEED}


def _gpus() -> list:
    from repro.arch.specs import ALL_GPUS

    return [g.name for g in ALL_GPUS]


def _sizes(kernel: str) -> tuple:
    """A kernel's two mid-range sizes, then its smallest.  Blocks 0-7
    use the mid-range ones; a run that outlasts eight blocks goes on to
    the smallest, which keeps its cold requests distinct."""
    from repro.kernels import get_benchmark

    sizes = get_benchmark(kernel).sizes
    return sizes[1], sizes[2], sizes[0]


def pool() -> list:
    """Every request a schedule can issue (the recorded digest table
    covers exactly these)."""
    out = []
    for kernel in BRANCHY:
        for gpu in _gpus():
            for size in _sizes(kernel):
                for rule in (False, True):
                    out.append(Request(kernel, gpu, size, "static",
                                       use_rule=rule))
    for kernel in REGULAR:
        for gpu in _gpus():
            for size in _sizes(kernel):
                for search in STRATEGIES:
                    for budget in BUDGETS:
                        out.append(Request(kernel, gpu, size, search,
                                           budget))
    return out


class Schedule:
    """The seeded request sequence, handed out block by block.  Once
    ``deadline`` has passed and at least :data:`MIN_BLOCKS` blocks were
    handed out, no new block starts and :meth:`next` returns ``None``."""

    def __init__(self, seed: int, deadline: float):
        self._rng = random.Random(seed)
        self._deadline = deadline
        self.rotation = self._rng.randrange(len(_gpus()))
        self._block: list = []
        self.blocks = 0
        self._previous: list = []
        self.issued: list = []   # (request, is_repeat) in issue order

    def _cold(self, b: int) -> list:
        """Block ``b``'s cold requests: kernel ``i`` runs on GPU
        ``b + i`` (plus the seeded rotation), so each GPU serves two,
        and on size ``b // 4``.  A kernel's (GPU, size) pairs repeat
        only after twelve blocks."""
        gpus = _gpus()

        def where(i, kernel):
            return (gpus[(b + i + self.rotation) % len(gpus)],
                    _sizes(kernel)[b // len(gpus) % 3])

        out = []
        for i, kernel in enumerate(BRANCHY):
            gpu, size = where(i, kernel)
            out.append(Request(kernel, gpu, size, "static",
                               use_rule=(b + i) % 2 == 1))
        for i, kernel in enumerate(REGULAR):
            gpu, size = where(len(BRANCHY) + i, kernel)
            out.append(Request(kernel, gpu, size,
                               STRATEGIES[(b + b // 4 + i) % len(STRATEGIES)],
                               BUDGETS[(b + i) % len(BUDGETS)]))
        return out

    def _new_block(self) -> list:
        cold = self._cold(self.blocks)
        items = [(r, False) for r in cold] + [
            (self._previous[j], True) for j in REPEATS[self.blocks % 2]
            if self._previous]
        self._previous = cold
        self.blocks += 1
        issued = [r for r, _rep in self.issued]
        while True:
            self._rng.shuffle(items)
            seq = issued + [r for r, _rep in items]
            base = len(issued)
            if all(seq.index(r) <= base + j - REPEAT_GAP
                   for j, (r, rep) in enumerate(items) if rep):
                return items

    def next(self):
        """The next ``(request, is_repeat)``, or ``None`` when the run
        is over."""
        if not self._block:
            if (self.blocks >= MIN_BLOCKS
                    and time.perf_counter() >= self._deadline):
                return None
            self._block = self._new_block()
        item = self._block.pop(0)
        self.issued.append(item)
        return item


def result_digest(result) -> str:
    doc = result.to_json()
    doc.pop("session_id")
    return harness.digest(doc)


# -- the server process ------------------------------------------------------

_LISTENING = re.compile(r"listening on (http://\S+)")


def _spawn(scratch, index: int, trace: bool):
    """Start a server; returns ``(process, url, seconds_to_hello,
    stats_path)``.  The time runs from spawn until ``/v1/hello``
    answers."""
    from repro.client import connect

    store = scratch / f"store-{index}"
    stats = scratch / f"stats-{index}.json"
    log = scratch / f"server-{index}.log"
    cmd = [sys.executable, str(harness.HERE / "service_child.py"),
           str(store), str(stats)] + (["--trace"] if trace else [])
    t0 = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=harness.child_env(), cwd=harness.ROOT)
    try:
        deadline = t0 + 60
        while True:
            match = _LISTENING.search(log.read_text())
            if match:
                break
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: "
                                   f"{log.read_text()[-500:]}")
            time.sleep(0.002)
        connect(match.group(1))  # the handshake
        return proc, match.group(1), time.perf_counter() - t0, stats
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def _stop(proc, stats) -> dict:
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"server exited with {rc}")
    return json.loads(stats.read_text())


# -- the workload ------------------------------------------------------------

def _client_loop(client, schedule, sessions):
    from repro.client import ServiceError

    while (item := schedule.next()) is not None:
        request, repeat = item
        t0 = time.perf_counter()
        try:
            status = client.submit_tune(
                request.kernel, request.gpu, request.size,
                search=request.search, budget=request.budget,
                use_rule=request.use_rule, **request.search_args)
            result = client.wait(status.session_id,
                                 timeout=SESSION_TIMEOUT_S, poll_s=POLL_S)
        except (ServiceError, OSError) as e:  # OSError covers timeouts
            result = e
        sessions.append((request, repeat, time.perf_counter() - t0, result))


def run(seed: int, seconds: float, scratch, recorder=None) -> dict:
    from repro.client import ReproClient

    traced = recorder is not None
    probes = 1 if traced else harness.SETUP_PROBES
    setup_times = []
    for i in range(probes):
        proc, url, setup, stats = _spawn(scratch, i, traced)
        setup_times.append(setup)
        if i < probes - 1:
            _stop(proc, stats)

    sessions: list = []
    try:
        client = ReproClient(url)
        start = time.perf_counter()
        schedule = Schedule(seed, start + seconds)
        _client_loop(client, schedule, sessions)
        elapsed = time.perf_counter() - start
    finally:
        server = _stop(proc, stats)
    snapshot = None
    if traced:
        snapshot = layers.merge(recorder.snapshot(), server["layers"])

    done = [(r, rep, lat, res) for r, rep, lat, res in sessions
            if not isinstance(res, Exception)]
    problems = [f"session {r.key} failed: {res}"
                for r, _rep, _lat, res in sessions
                if isinstance(res, Exception)]
    observed = {}
    for request, _rep, _lat, result in done:
        d = result_digest(result)
        if observed.setdefault(request.key, d) != d:
            problems.append(f"{request.key}: a repeat returned a different "
                            f"result")
    problems += harness.check_digests("tune-service", observed)
    problems += harness.oracle(random.Random(seed),
                               {(r.kernel, r.gpu) for r, *_ in done})

    lat = harness.tail_summary([x[2] for x in done], TAIL_PCT)
    warm = [(lat_s, len(res.measurements))
            for _r, rep, lat_s, res in done if rep]
    points = sum(len(res.measurements) for *_x, res in done)
    return {
        "e2e": {
            "setup_s": None if traced else statistics.median(setup_times),
            "points_per_s": points / elapsed,
            "warm_points_per_s":
                sum(n for _l, n in warm) / sum(lt for lt, _n in warm),
            "session_p50_s": lat["p50"],
            "session_tail_s": lat["tail"],
            "sessions_per_s": len(done) / elapsed,
            "peak_rss_mb": server["peak_rss_mb"],
        },
        "attempted": len(sessions),
        "failed": len(sessions) - len(done),
        "problems": problems,
        "sessions": len(sessions),
        "snapshot": snapshot,
        "expect": {},
        "report": [
            f"sessions={len(sessions)} blocks={schedule.blocks} "
            f"repeats={len(warm)} gpu_rotation={schedule.rotation} "
            f"clients=1 poll_s={POLL_S}",
            harness.tail_report("submit to SessionResult", lat),
        ],
    }
