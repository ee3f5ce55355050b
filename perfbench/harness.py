"""Closed-loop harness: one client, one thread, one workload per process.

The harness builds the workload's inputs, then runs whole rounds of its
jobs, each job starting after the previous one ends, until the timed
seconds of wall clock are spent.  Two more set-up builds are timed after
each round.  Whole rounds keep the mix of jobs the same from run to run.
Job outputs are checked against the oracles only after the timed phase, and
peak memory is read before the oracles import networkx or allocate anything.

The host this was built on switches between a fast and a slow state, up to
twice as slow, for seconds to minutes at a time, so plain wall seconds of
one run follow the host more than the program.  A fixed reference task,
which shares no code with the package, is therefore timed right before and
right after every job and every timed set-up build, and each of those times
is reported scaled by REF_S / (the mean of the two reference times):
seconds on a host on which the reference takes REF_S.  The raw medians are
kept in the run information.

An untraced run reports the end-to-end metrics.  A traced run alternates
one untraced and one traced round and reports the per-layer metrics, the
tracing overhead and the failed ratio.
"""

from __future__ import annotations

import ast
import gc
import hashlib
import inspect
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import textwrap
import time
from collections import deque
from contextlib import contextmanager

from . import oracles, tracing
from .workloads import WORKLOADS

JOB_LIMIT_S = 60
# the reference task's time that scaled times are expressed against, about
# its median on the 2-vCPU Xeon VM the benchmark was built on
REF_S = 0.01
# the reference task's three parts: breadth-first search from every vertex
# of the Hamming graph K_4^3 (built by the oracles' coordinate rule, so that
# it shares no code with the package), counting the placements of 8 queens,
# and unparsing the syntax tree of the standard library's textwrap module
REF_N, REF_T = 4, 3
REF_QUEENS = 8
SETUP_BUILDS_PER_ROUND = 2
DISTANCE_PASSES = 5
WORK_DIR = ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s_p50": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{name: "s/job" for name in tracing.SELF_TIME_METRICS},
    **{name: "count/job" for name in tracing.COUNT_METRICS},
    "graphs.distance_ns": "ns",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


class JobTimeout(Exception):
    pass


class JobError:
    """Observation of a job that raised or ran out of time."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self) -> str:
        return f"JobError({self.message!r})"


def _adjacency(n: int, edges: set) -> list:
    adjacency = [[] for _ in range(n)]
    for u, v in sorted(edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


REF_ADJACENCY = _adjacency(REF_N ** REF_T,
                           oracles.hamming_edges(REF_N, REF_T))


def _queens(row: int, columns: set, rising: set, falling: set,
            n: int) -> int:
    if row == n:
        return 1
    total = 0
    for c in range(n):
        if c in columns or row - c in rising or row + c in falling:
            continue
        columns.add(c)
        rising.add(row - c)
        falling.add(row + c)
        total += _queens(row + 1, columns, rising, falling, n)
        columns.discard(c)
        rising.discard(row - c)
        falling.discard(row + c)
    return total


REF_TREE = ast.parse(inspect.getsource(textwrap))


def ref_task() -> float:
    """Seconds for the fixed reference task.

    Its parts are pure-Python work of the kinds the jobs do: list and queue
    walks, recursive search over sets, and many small calls building
    strings.  A host slowdown moves the package's jobs about as much as it
    moves this task, where a tight arithmetic loop moved less."""
    start = time.perf_counter()
    adjacency = REF_ADJACENCY
    n = len(adjacency)
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
    _queens(0, set(), set(), set(), REF_QUEENS)
    ast.unparse(REF_TREE)
    return time.perf_counter() - start


@contextmanager
def _time_limit(seconds: float):
    def on_alarm(_signum, _frame):
        raise JobTimeout(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(job) -> tuple:
    """(seconds from start to verdict, observation); never raises.

    The forced collection before the job is outside its verdict time, so
    the garbage of earlier jobs is not counted against this one."""
    elapsed = 0.0
    gc.collect()
    try:
        with _time_limit(JOB_LIMIT_S):
            start = time.perf_counter()
            try:
                value = job.run()
            finally:
                elapsed = time.perf_counter() - start
    except Exception as exc:  # a failing job is counted, not fatal
        return elapsed, JobError(f"{type(exc).__name__}: {exc}")
    return elapsed, job.collect(value)


def git_commit(root: str):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Ledger:
    """Every job's output digest; the first output per digest
    is kept for the oracles, so memory stays flat however many jobs run."""

    def __init__(self):
        self.records: list = []  # (key, digest) per job
        self.samples: dict = {}  # (key, digest) -> observation

    def add(self, key: str, observation) -> None:
        digest = hashlib.sha256(repr(observation).encode()).hexdigest()
        self.records.append((key, digest))
        self.samples.setdefault((key, digest), observation)

    def failures(self, workload, inputs) -> dict:
        """(key, digest) -> reason, for every output that fails its check.

        A job whose outputs differ between runs fails on every run: the
        package promises byte-identical output for fixed inputs, traced or
        not."""
        digests: dict = {}
        for key, digest in self.records:
            digests.setdefault(key, set()).add(digest)
        bad = {}
        for (key, digest), observation in self.samples.items():
            if isinstance(observation, JobError):
                bad[(key, digest)] = observation.message
            elif len(digests[key]) > 1:
                bad[(key, digest)] = "output differs between runs of the job"
            else:
                try:
                    workload.check(inputs, key, observation)
                except Exception as exc:  # any oracle failure fails the job
                    bad[(key, digest)] = f"{type(exc).__name__}: {exc}"
        return bad


def scaled_median(samples: list) -> float:
    """Median of (seconds, reference seconds) pairs, each scaled to a host on
    which the reference takes REF_S."""
    return statistics.median(seconds * REF_S / ref for seconds, ref in samples)


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _distance_ns(workload, inputs) -> float:
    graph = workload.distance_graph(inputs)
    distance = graph.distance
    pairs = inputs.pairs
    for u, v in pairs[:100]:  # fills lazy distance caches
        distance(u, v)
    passes = []
    for _ in range(DISTANCE_PASSES):
        start = time.perf_counter()
        for u, v in pairs:
            distance(u, v)
        passes.append((time.perf_counter() - start) / len(pairs) * 1e9)
    return statistics.median(passes)


def run(name: str, seed: int, seconds: float, traced: bool,
        root: str) -> tuple:
    """Run one workload; returns (info, result) as JSON-ready dicts."""
    workload = WORKLOADS[name]
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        return _run(workload, seed, seconds, traced, base, workdir, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, traced, base, workdir, root) -> tuple:
    inputs = workload.setup(seed, workdir)
    jobs = workload.jobs(inputs)

    setups = []  # (seconds, reference seconds) per timed build
    refs = []  # every reference time after a job
    ledger = Ledger()
    tracer = tracing.Tracer()
    # job key -> (seconds, reference seconds) per run, untraced and traced
    spent = {False: {job.key: [] for job in jobs},
             True: {job.key: [] for job in jobs}}
    rounds = 0

    def one_round(traced_round: bool) -> None:
        ref = ref_task()
        for job in jobs:
            if traced_round:
                with tracer.job(f"{rounds}:{job.key}"):
                    elapsed, observation = run_job(job)
            else:
                elapsed, observation = run_job(job)
            after = ref_task()  # also the reference before the next job
            spent[traced_round][job.key].append((elapsed, (ref + after) / 2))
            refs.append(after)
            ref = after
            ledger.add(job.key, observation)

    def traced_round() -> None:
        with tracer.installed():
            one_round(True)

    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        # a traced run alternates which of the pair goes first, so warm-up
        # in the first round does not bias the overhead ratio
        if traced and rounds % 2:
            traced_round()
        one_round(False)
        if traced and not rounds % 2:
            traced_round()
        rounds += 1
        for _ in range(SETUP_BUILDS_PER_ROUND):
            # rebuilds the same inputs (the same files, byte for byte) and
            # throws them away; the jobs keep the first build
            gc.collect()
            ref = ref_task()
            build = time.perf_counter()
            workload.setup(seed, workdir)
            elapsed = time.perf_counter() - build
            setups.append((elapsed, (ref + ref_task()) / 2))
    phase_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled_s = {key: scaled_median(samples)
                for key, samples in spent[False].items()}

    metrics = {}
    trace_file = None
    if traced:
        trace_file = os.path.join(
            base, f"trace-{workload.name}-seed{seed}.jsonl")
        tracer.write(trace_file)
        for metric, total in tracer.self_times().items():
            metrics[metric] = total / tracer.jobs
        for metric, count in tracer.all_counts().items():
            metrics[metric] = count / tracer.jobs
        metrics["graphs.distance_ns"] = _distance_ns(workload, inputs)
        metrics["trace.overhead_ratio"] = sum(
            map(scaled_median, spent[True].values())) / sum(scaled_s.values())
    else:
        metrics["setup_s"] = scaled_median(setups)
        metrics["verdict_s_p50"] = statistics.median(scaled_s.values())
        # one round of jobs back to back, each at its median time
        metrics["jobs_per_s"] = len(scaled_s) / sum(scaled_s.values())
        metrics["peak_rss_mb"] = peak_rss_mb

    bad = ledger.failures(workload, inputs)
    for (key, _digest), reason in sorted(bad.items()):
        print(f"FAILED {workload.name} {key}: {reason}", file=sys.stderr)
    attempted = len(ledger.records)
    failed = sum(1 for record in ledger.records if record in bad)
    if traced:
        metrics["failed_ratio"] = failed / attempted

    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": git_commit(root),
        "ref_loop_s": statistics.median(refs),
        "ref_loop_s_quartiles": _quartiles(refs),
        "rounds": rounds,
        "jobs": attempted,
        "phase_wall_s": phase_s,
        "setup_builds": len(setups),
        "setup_raw_s": statistics.median(s for s, _ref in setups),
        "job_scaled_s": scaled_s,
        "job_raw_s": {key: statistics.median(s for s, _ref in samples)
                      for key, samples in spent[False].items()},
        "trace_file": trace_file and os.path.relpath(trace_file, root),
    }
    return info, result
