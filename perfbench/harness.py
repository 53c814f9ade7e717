"""The closed loop: one client, one op at a time, checks after each timer.

``prepare`` builds a workload's base graphs and reference answers;
``measure`` runs complete rounds (every base graph and mode once, in a
seeded order) until the next round would overrun the time budget, and
turns the op latencies, or in a traced run the spans, into metrics.
"""

from __future__ import annotations

import random
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from heawood import format_graph

from .graphgen import fresh_relabelling
from .tracing import COUNTS, END, NAME, PARENT, PROBE, START, Tracer
from .workloads import WORKLOADS, Base, Op, Workload

# A relabelling that repeats an earlier input is redrawn up to this often.
FRESH_DRAWS = 50

# peak_rss_mb is read after this many rounds, so that it reflects a fixed
# amount of work: the package's caches grow with every op, and reading it at
# the end would make a faster commit look like one that uses more memory.
MEMORY_ROUNDS = 10

# (metric, unit, span name, what to read): "ms"/"us" read the span's mean
# duration, "self_ms" its mean time not covered by child spans; any other
# name is a counter, averaged over every span that carries it.
PER_LAYER = (
    ("spins.enumerate_ms", "ms", "spins.enumerate", "ms"),
    ("spins.patterns_tried", "count", None, "patterns_tried"),
    ("spins.vectors_kept", "count", None, "vectors_kept"),
    ("spins.heawood_to_tait_us", "us", "spins.heawood_to_tait", "us"),
    ("spins.tait_to_heawood_us", "us", "spins.tait_to_heawood", "us"),
    ("spins.sle_rank_ms", "ms", "spins.sle_rank", "ms"),
    ("spins.build_main_sle_ms", "ms", "spins.build_main_sle", "ms"),
    ("graphs.validate_ms", "ms", "graphs.validate", "ms"),
    ("graphs.trace_faces_ms", "ms", "graphs.trace_faces", "ms"),
    ("graphs.faces", "count", None, "faces"),
    ("graphs.parse_graph_ms", "ms", "graphs.parse_graph", "ms"),
    ("gf3.rref_ms", "ms", "gf3.rref", "ms"),
    ("gf3.solve_parametric_ms", "ms", "gf3.solve_parametric", "ms"),
    ("gf3.rank", "count", None, "rank"),
    ("gf3.free_vars", "count", None, "free_vars"),
    ("defining.free_variable_set_ms", "ms", "defining.free_variable_set", "ms"),
    ("defining.zebra_witness_ms", "ms", "defining.zebra_witness", "ms"),
    ("defining.minimal_sets_linear_ms", "ms", "defining.minimal_sets_linear", "ms"),
    ("defining.minimal_sets_heawood_ms", "ms", "defining.minimal_sets_heawood", "ms"),
    ("defining.sets_found", "count", None, "sets_found"),
    ("cli.main_ms", "ms", "cli.main", "self_ms"),
    ("oracle.reference_ms", "ms", "oracle.reference", "ms"),
)


@dataclass
class Prepared:
    workload: Workload
    seed: int
    bases: list[Base]
    tracer: Tracer


def prepare(name: str, seed: int) -> Prepared:
    """Base graphs and reference answers, with spans around the oracle calls.

    The random base graphs are a fixed corpus, the same for every seed, so
    that runs with different seeds measure the same graphs: from one random
    graph to the next of the same size, op cost varies by up to 10x.  The
    seed draws every op's relabelling and the order of each round.
    """
    workload = WORKLOADS[name]
    tracer = Tracer()
    bases = workload.setup(random.Random(f"corpus:{name}"), tracer)
    return Prepared(workload, seed, bases, tracer)


def _key(g) -> tuple:
    return (g.rotations, g.outer_face_hint)


class _Inputs:
    """Fresh relabellings of the base graphs, never repeating an input."""

    def __init__(self, prepared: Prepared, workdir: Path) -> None:
        self.rng = random.Random(f"ops:{prepared.seed}")
        self.seen = {_key(b.graph) for b in prepared.bases}
        self.repeated = 0
        self.path = workdir / "op.graph" if prepared.workload.uses_file else None

    def op(self, base: Base, mode: str | None) -> Op:
        for _ in range(FRESH_DRAWS):
            g, perm = fresh_relabelling(base.graph, self.rng)
            if _key(g) not in self.seen:
                break
        else:
            self.repeated += 1
        self.seen.add(_key(g))
        if self.path is not None:
            self.path.write_text(format_graph(g), encoding="utf-8")
        return Op(base, mode, g, perm, self.path)


def _label(base: Base, mode: str | None) -> str:
    return f"{base.name} {mode}" if mode else base.name


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_problems: list[str] | None = None

    def record(self, op: Op, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.first_problems is None:
                self.first_problems = [_label(op.base, op.mode)] + problems[:3]


def _timed(fn, *args):
    """Run one op and time it; an exception is the op's only problem."""
    start = perf_counter()
    try:
        output, problems = fn(*args), []
    except Exception as exc:  # noqa: BLE001 - any exception is a failed op
        output, problems = None, [f"{type(exc).__name__}: {exc}"]
    return perf_counter() - start, output, problems


def _checked(workload: Workload, op: Op, output, problems: list[str]) -> list[str]:
    if problems:
        return problems
    try:
        return workload.check(op, output)
    except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
        return [f"check raised {type(exc).__name__}: {exc}"]


def _rounds(prepared: Prepared, seconds: float, rng: random.Random,
            pause: Callable[[], None] | None = None, pauses: int = 0):
    """Yield round orders until one more round would overrun ``seconds``.

    Between rounds, ``pause`` is called ``pauses`` times, evenly spread over
    the run (any calls still due run after the last round); its time does
    not count against ``seconds``.
    """
    specs = [(b, m) for b in prepared.bases for m in prepared.workload.modes]
    start = perf_counter()
    paused = 0.0
    rounds = done = 0
    while True:
        order = specs[:]
        rng.shuffle(order)
        yield order
        rounds += 1
        elapsed = perf_counter() - start - paused
        if pause is not None and done < pauses and elapsed >= seconds * (done + 1) / (pauses + 1):
            pause_start = perf_counter()
            pause()
            paused += perf_counter() - pause_start
            done += 1
        if elapsed + elapsed / rounds > seconds:
            break
    for _ in range(done, pauses if pause is not None else 0):
        pause()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its value.

    That is the 11th largest sample; with 10 or fewer samples, the smallest.
    """
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(prepared: Prepared, seconds: float, workdir: Path,
            pause: Callable[[], None] | None = None, pauses: int = 0) -> dict:
    """Untraced closed loop: the end-to-end metrics of the workload.

    ``pause`` runs ``pauses`` times between rounds, spread over the run and
    outside the time budget (see ``_rounds``).
    """
    workload = prepared.workload
    inputs = _Inputs(prepared, workdir)
    order_rng = random.Random(f"order:{prepared.seed}")
    tally = Tally()
    latencies = []
    by_base: dict[str, list[float]] = {}
    peak_rss_mb = None
    for rounds, order in enumerate(_rounds(prepared, seconds, order_rng, pause, pauses)):
        if rounds == MEMORY_ROUNDS:
            peak_rss_mb = _peak_rss_mb()
        for base, mode in order:
            op = inputs.op(base, mode)
            dt, output, problems = _timed(workload.run, op)
            tally.record(op, _checked(workload, op, output, problems))
            latencies.append(dt)
            by_base.setdefault(_label(base, mode), []).append(dt)
    percentile, tail_s = tail(latencies)
    p50_by_base = {k: statistics.median(v) for k, v in by_base.items()}
    mean_by_base = [statistics.fmean(v) for v in by_base.values()]
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_gmean_ms": (1e3 * statistics.geometric_mean(mean_by_base), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb or _peak_rss_mb(), "MB"),
    }
    details = {
        "rounds": rounds + 1,
        "tail_percentile": round(percentile, 2),
        "latency_samples": len(latencies),
        "repeated_input_share": inputs.repeated / tally.attempted,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "p50_ms_by_base": {k: round(1e3 * v, 3) for k, v in p50_by_base.items()},
    }
    return {"metrics": metrics, "tally": tally, "details": details}


def measure_traced(prepared: Prepared, seconds: float, workdir: Path) -> dict:
    """Traced run: each op once untraced and once decomposed into spans.

    The two ops of a pair use different fresh relabellings of the same base
    graph and alternate which runs first; their latency ratio, less probe
    time, is the tracing overhead.
    """
    workload, tracer = prepared.workload, prepared.tracer
    inputs = _Inputs(prepared, workdir)
    order_rng = random.Random(f"order:{prepared.seed}")
    tally = Tally()
    untraced_s = traced_s = 0.0
    op_id = 0
    for order in _rounds(prepared, seconds, order_rng):
        for base, mode in order:
            for traced in ((False, True) if op_id % 2 else (True, False)):
                op = inputs.op(base, mode)
                if traced:
                    tracer.op_id = op_id
                    first_span = len(tracer.spans)
                    dt, output, problems = _timed(workload.traced, tracer, op)
                    traced_s += dt - sum(
                        s[END] - s[START] for s in tracer.spans[first_span:] if s[PROBE])
                else:
                    dt, output, problems = _timed(workload.run, op)
                    untraced_s += dt
                tally.record(op, _checked(workload, op, output, problems))
            op_id += 1
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    tracer.write(workdir / "spans.jsonl")
    return {"metrics": metrics, "tally": tally, "details": {"spans": len(tracer.spans)}}


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics from spans; 0 for a layer the workload never calls."""
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for record in spans:
        durations.setdefault(record[NAME], []).append(record[END] - record[START])
        if record[PARENT] is not None:
            child_time[record[PARENT]] += record[END] - record[START]
    self_times: dict[str, list[float]] = {}
    for record, children in zip(spans, child_time):
        self_times.setdefault(record[NAME], []).append(record[END] - record[START] - children)
    metrics = {}
    for metric, unit, span, read in PER_LAYER:
        if read in ("ms", "us", "self_ms"):
            values = (self_times if read == "self_ms" else durations).get(span, [])
            scale = 1e6 if read == "us" else 1e3
            value = scale * statistics.fmean(values) if values else 0.0
        else:
            values = [r[COUNTS][read] for r in spans if read in r[COUNTS]]
            value = statistics.fmean(values) if values else 0.0
        metrics[metric] = (value, unit)
    enum = [r[COUNTS] for r in spans if r[NAME] == "spins.enumerate"]
    tried = sum(c["patterns_tried"] for c in enum)
    kept = sum(c["vectors_kept"] for c in enum)
    metrics["spins.kept_ratio"] = (kept / tried if tried else 0.0, "ratio")
    return metrics
