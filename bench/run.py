#!/usr/bin/env python3
"""Closed-loop benchmark for flagsieve (stdlib only).

    python3 bench/run.py --workload grid-arith --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the sources in ``src/``.  One
caller drives flagsieve through its public entry points from one process:
the next call starts when the previous one returns, with no workers and no
threads.

Each iteration first sets up, then runs one operation:

* set-up is a fresh import of flagsieve (which also empties the
  ``builtin_action`` cache) and, for the search workloads, building the
  cell's built-in actions, relabelling each by a seeded random point
  permutation, and their first ``order()``;
* the operation is one pass over the whole grid (``grid-arith``) or the
  certification of one cell: its screens, then a stabilizer search for every
  admissible tuple under every group (the ``search-*`` workloads).

Iterations repeat until ``--seconds`` have passed.  Every output is checked
against ``bench/refs``; a call that raises, exits nonzero or returns
something else counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced iterations and reports the per-layer metrics of the
traced ones; their work counts must repeat exactly between traced
iterations.  The last line of stdout is the result object; the line before
it holds the details: environment, error rate, sample counts, the tail
percentile and, with ``--trace 1``, the tracing overhead.  bench/README.md
maps each per-layer metric to the end-to-end metric it should move.

Exit status 0 means a result was printed (``correct`` says whether every
check passed); 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import sys
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
OUT_DIR = BENCH_DIR / "out"

MODULES = (
    "exactmath",
    "grouporders",
    "sieve",
    "permgroup",
    "designsearch",
    "eliminator",
    "cli",
)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class GridWorkload:
    """Arithmetic-only sweeps: one ``flagsieve sweep`` call per (family, n) row."""

    name: str
    rows: Tuple[Tuple[str, int, int], ...]  # (family, n, q_max)


@dataclass(frozen=True)
class SearchWorkload:
    """Certify one cell: its screens, then every tuple under every group."""

    name: str
    cell: Tuple[str, int, int, str, Tuple[int, ...]]  # family, n, q, kind, params
    groups: Tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "grid-arith",
            tuple(("linear", n, 128) for n in range(3, 21))
            + tuple(("unitary", n, 64) for n in range(3, 17)),
        ),
        SearchWorkload(
            "search-sub144",
            ("linear", 3, 3, "C3", (1, 3)),
            ("psl3_3_144", "psl3_3_2_144"),
        ),
        SearchWorkload(
            "search-cand36",
            ("unitary", 3, 3, "S", (1,)),
            ("psu3_3_36", "psu3_3_2_36"),
        ),
    )
}


def cell_key(cell: Tuple[str, int, int, str, Tuple[int, ...]]) -> str:
    family, n, q, kind, params = cell
    return f"{family} n={n} q={q} {kind}({','.join(map(str, params))})"


# ---------------------------------------------------------------------------
# references and checks


@dataclass
class Refs:
    """Expected outputs: grid rows, the tier-1 sub-grid counts, search cells."""

    rows: Dict[str, dict]  # "family n" -> {"qMax", "cells", "sha256"}
    survivors_dir: Path
    tier1: List[dict]
    cells: Dict[str, dict]  # cell_key -> {"tuples", "searches"}


def load_refs(directory: Path = REFS_DIR) -> Refs:
    def read(name: str):
        with open(directory / name, "r", encoding="utf-8") as handle:
            return json.load(handle)

    return Refs(
        rows=read("grid.json")["rows"],
        survivors_dir=directory / "survivors",
        tier1=read("tier1.json")["subgrids"],
        cells=read("searches.json")["cells"],
    )


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def file_sha256(path: Path) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


_CERT_COUNTS = {
    "subgroups": re.compile(r"(\d+) subgroups of order"),
    "classes": re.compile(r"\((\d+) conjugacy classes\)"),
    "unions": re.compile(r"tested (\d+) orbit unions"),
}
_KILLS = ("flag-count", "block-count")


def search_summary(result) -> dict:
    """Design count, exhaustiveness and the counts stated by the certificate."""
    text = " ".join(line for _, line in result.certificate)
    out = {"designs": len(result.designs), "exhaustive": result.exhaustive}
    kill = next((name for name, _ in result.certificate if name in _KILLS), None)
    if kill is not None:
        out["kill"] = kill
    for key, pattern in _CERT_COUNTS.items():
        match = pattern.search(text)
        if match:
            out[key] = int(match.group(1))
    return out


# ---------------------------------------------------------------------------
# timing

# Shared cores change this machine's speed by up to 2x, for seconds to tens
# of seconds at a time, which no number of samples in one run averages out.
# So the speed is measured next to and during every timed call, with a fixed
# probe loop of the same kind of work (building tuples, storing them in a
# dict): once before and after the call, and every SAMPLE_INTERVAL_S while
# it runs, from a SIGALRM handler in the same thread.  Probe time inside a
# call is taken out of its wall time.  The call's scaled time is its wall
# time times the mean of PROBE_REF_NS / probe: seconds on a machine on which
# the probe takes PROBE_REF_NS.  A change to flagsieve moves scaled and wall
# times alike; a change in machine speed moves only wall times.  The
# metrics are scaled times; the details also give wall times.
PROBE_LOOPS = 2000
PROBE_REF_NS = 1_000_000
SAMPLE_INTERVAL_S = 0.1


def run_probe() -> int:
    """Nanoseconds for the probe loop, with the cyclic collector held off.

    A collection during the probe would time flagsieve's heap, not the machine.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        store = {}
        for i in range(PROBE_LOOPS):
            store[i % 1000] = tuple(range(i % 50))
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


class Stopwatch:
    """Wall and scaled time of calls, summed until the next ``lap()``.

    Use it as a context manager: it owns the SIGALRM handler meanwhile.
    """

    def __init__(self) -> None:
        self.probes: List[int] = [run_probe()]
        self.wall_ns = 0
        self.scaled_ns = 0.0
        self._inside: Optional[List[int]] = None
        self._previous = None

    def __enter__(self) -> "Stopwatch":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        if self._inside is not None:
            self._inside.append(run_probe())

    def call(self, fn: Callable, *args, **kwargs):
        """Run fn; returns (its result, scaled seconds of this call)."""
        inside: List[int] = []
        self._inside = inside
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._inside = None
            end = time.perf_counter_ns()
        before = self.probes[-1]
        self.probes += inside
        self.probes.append(run_probe())
        wall = end - start - sum(inside)
        speed = [PROBE_REF_NS / p for p in (before, *inside, self.probes[-1])]
        scaled = wall * statistics.fmean(speed)
        self.wall_ns += wall
        self.scaled_ns += scaled
        return result, scaled / 1e9

    def lap(self) -> Tuple[float, float]:
        """(wall s, scaled s) since the last lap."""
        out = (self.wall_ns / 1e9, self.scaled_ns / 1e9)
        self.wall_ns, self.scaled_ns = 0, 0.0
        return out


# ---------------------------------------------------------------------------
# set-up


def fresh_import() -> Dict[str, object]:
    """Import flagsieve from scratch, so no cache survives from earlier."""
    for name in [m for m in sys.modules if m.split(".")[0] == "flagsieve"]:
        del sys.modules[name]
    return {name: importlib.import_module(f"flagsieve.{name}") for name in MODULES}


def relabel(perm: Sequence[int], pi: Sequence[int]) -> Tuple[int, ...]:
    """The permutation pi * perm * pi^-1: point pi[i] goes to pi[perm[i]]."""
    out = [0] * len(perm)
    for i, image in enumerate(perm):
        out[pi[i]] = pi[image]
    return tuple(out)


def build_actions(
    fs: Dict[str, object],
    workload: SearchWorkload,
    seed: int,
    draw: int,
    watch: Stopwatch,
) -> list:
    """The cell's built-in actions, each relabelled by permutation number draw."""
    permgroup = fs["permgroup"]
    actions = []
    for name in workload.groups:
        base, _ = watch.call(permgroup.builtin_action, name)
        pi = list(range(base.degree))
        random.Random(f"{seed}/{draw}/{name}").shuffle(pi)
        generators = [relabel(g, pi) for g in base.generators]
        action, _ = watch.call(
            permgroup.PermAction, base.degree, generators, label=base.label
        )
        watch.call(action.order)
        actions.append(action)
    return actions


def release(fs: Dict[str, object]) -> None:
    """Empty the built-in action cache of an import that is done with.

    typing's caches keep classes of earlier imports, and with them their
    modules, alive; without this, each iteration would keep its actions.
    """
    clear = getattr(fs["permgroup"].builtin_action, "cache_clear", None)
    if clear is not None:
        clear()


def guarded(fn: Callable, *args, **kwargs):
    """fn's result, or the exception it raised: a crash is a failed call."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# operations


def sweep_argv(family: str, n: int, q_max: int, path: Path) -> List[str]:
    """``flagsieve sweep`` arguments for one row, searches skipped."""
    return [
        "sweep",
        "--family", family,
        "--n-min", str(n),
        "--n-max", str(n),
        "--q-max", str(q_max),
        "--no-search",
        "--output", str(path),
    ]


def grid_pass(
    fs: Dict[str, object],
    rows: Sequence[Tuple[str, int, int]],
    refs: Refs,
    outdir: Path,
    checks: Checks,
    watch: Stopwatch,
) -> Tuple[int, List[float]]:
    """One sweep call per row; returns (cells, scaled seconds per call)."""
    main = fs["cli"].main
    cells = 0
    call_s: List[float] = []
    for family, n, q_max in rows:
        key = f"{family} {n}"
        ref = refs.rows.get(key, {})
        path = outdir / f"{family}-n{n}.json"
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
        argv = sweep_argv(family, n, q_max, path) + [
            "--expect-survivors",
            str(refs.survivors_dir / f"{family}-n{n}.txt"),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, seconds = watch.call(guarded, main, argv)
        call_s.append(seconds)
        cells += ref.get("cells", 0)
        digest = file_sha256(path)
        checks.record(
            code == 0 and ref.get("qMax") == q_max and digest == ref.get("sha256"),
            f"row {key}: exit {code!r}, report sha256 {digest}, "
            f"expected {ref.get('sha256')}; {sink.getvalue()[-300:]!r}",
        )
    return cells, call_s


def check_tier1(
    workload: GridWorkload, refs: Refs, outdir: Path, checks: Checks
) -> None:
    """Verdict counts of every tier-1 sub-grid the workload's reports cover."""
    q_max = {(family, n): q for family, n, q in workload.rows}
    for sub in refs.tier1:
        family = sub["family"]
        ns = range(3, sub["nMax"] + 1)
        if any(q_max.get((family, n), 0) < sub["qMax"] for n in ns):
            continue
        kinds: Dict[str, int] = {}
        try:
            for n in ns:
                path = outdir / f"{family}-n{n}.json"
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
                for cell in doc["cells"]:
                    if cell["spec"]["q"] <= sub["qMax"]:
                        kind = cell["final"]["kind"]
                        kinds[kind] = kinds.get(kind, 0) + 1
        except (OSError, ValueError, KeyError, TypeError) as exc:
            kinds = {"unreadable": _failure(exc)}
        checks.record(
            kinds == sub["kinds"],
            f"tier-1 {family} n<={sub['nMax']} q<={sub['qMax']}: {kinds}, "
            f"expected {sub['kinds']}",
        )


def certify_cell(
    fs: Dict[str, object], workload: SearchWorkload, actions: list, watch: Stopwatch
):
    """Screens, then a search per (tuple, group); returns (report, results)."""
    family, n, q, kind, params = workload.cell
    grouporders = fs["grouporders"]
    spec = grouporders.GroupSpec(family, n, q)
    case = grouporders.SubgroupCase(kind, params)
    search = fs["designsearch"].stabilizer_search
    eliminate = fs["eliminator"].eliminate
    report, _ = watch.call(guarded, eliminate, spec, case, run_searches=False)
    results: Dict[Tuple[str, Tuple[int, ...]], object] = {}
    if not isinstance(report, Exception):
        for tup in report.final.tuples:
            for action in actions:
                key = (action.label, tup.as_tuple())
                results[key], _ = watch.call(guarded, search, action, tup)
    return report, results


def check_cell(
    workload: SearchWorkload, ref: dict, report, results, checks: Checks
) -> None:
    label = cell_key(workload.cell)
    if isinstance(report, Exception):
        checks.record(False, f"{label} screens: {_failure(report)}")
    else:
        tuples = [list(t.as_tuple()) for t in report.final.tuples]
        checks.record(
            tuples == ref["tuples"],
            f"{label} screens gave tuples {tuples}, expected {ref['tuples']}",
        )
    results = dict(results)
    for expected in ref["searches"]:
        key = (expected["group"], tuple(expected["tuple"]))
        want = {k: v for k, v in expected.items() if k not in ("group", "tuple")}
        got = results.pop(key, None)
        if got is None or isinstance(got, Exception):
            summary: object = got if got is None else _failure(got)
        else:
            summary = search_summary(got)
        checks.record(summary == want, f"{label} {key}: {summary}, expected {want}")
    for key in results:
        checks.record(False, f"{label}: unexpected search {key}")


# ---------------------------------------------------------------------------
# tracing: what is wrapped, and the per-layer metrics read from it


def _observe_report(t: Tracer, args, kwargs, _result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    t.tallies["cli.report_bytes"] += os.path.getsize(path)


def _observe_eliminate(t: Tracer, _args, _kwargs, report) -> None:
    t.tallies["eliminator.cells"] += 1
    if report.final.kind in ("Eliminated", "Survives"):
        t.tallies["eliminator.decided"] += 1


def _observe_tuples(t: Tracer, _args, _kwargs, result) -> None:
    found, rejected = result
    t.tallies["sieve.tuples_found"] += len(found)
    t.tallies["sieve.rejections"] += len(rejected)


def _observe_subgroups(t: Tracer, _args, _kwargs, result) -> None:
    t.tallies["permgroup.subgroups_of_order.found"] += len(result)


def _observe_elements(t: Tracer, args, _kwargs, result) -> None:
    # a call that hands back the same tuple as before enumerated nothing
    seen = t.state.setdefault("elements", weakref.WeakKeyDictionary())
    action = args[0]
    if seen.get(action) is not result:
        seen[action] = result
        t.tallies["permgroup.elements.enumerated"] += len(result)


def _observe_search(t: Tracer, _args, _kwargs, result) -> None:
    summary = search_summary(result)
    t.tallies["designsearch.candidates_tested"] += summary.get("unions", 0)
    t.tallies["designsearch.designs"] += summary["designs"]


TRACE_PLAN = (
    ("cli", "main", "span", None),
    ("cli", "emit_report", "span", _observe_report),
    ("eliminator", "sweep", "span", None),
    ("eliminator", "eliminate", "span", _observe_eliminate),
    ("grouporders", "enumerate_cases", "span", None),
    ("grouporders", "case_orders", "span", None),
    ("grouporders", "known_subdegrees", "span", None),
    ("sieve", "admissible_tuples_explained", "span", _observe_tuples),
    ("exactmath", "factorize", "span", None),
    ("exactmath", "divisors", "span", None),
    ("exactmath", "divisors_upto", "span", None),
    ("permgroup", "builtin_action", "span", None),
    ("permgroup", "PermAction.elements", "span", _observe_elements),
    ("permgroup", "PermAction.point_stabilizer", "span", None),
    ("permgroup", "subgroups_of_order", "span", _observe_subgroups),
    ("permgroup", "subgroup_classes", "span", None),
    ("permgroup", "compose", "count", None),
    ("permgroup", "inverse_perm", "count", None),
    ("permgroup", "conjugate_perm", "count", None),
    ("designsearch", "stabilizer_search", "span", _observe_search),
    ("designsearch", "set_stabilizer", "span", None),
    ("designsearch", "verify_design", "span", None),
)


Metric = Tuple[str, str, Callable[[Tracer], float]]  # (name, unit, reader)


def _self_s(span: str) -> Metric:
    return f"{span}.self_s", "s", lambda t: t.self_ns[span] / 1e9


def _calls(span: str) -> Metric:
    return f"{span}.calls", "count", lambda t: t.calls[span]


def _tally(name: str, unit: str = "count") -> Metric:
    return name, unit, lambda t: t.tallies[name]


def _ratio(name: str, num: str, den: str) -> Metric:
    def read(t: Tracer) -> float:
        return t.tallies[num] / t.tallies[den] if t.tallies[den] else 0.0

    return name, "ratio", read


# every value is for one traced iteration (set-up + operation)
PER_LAYER: Tuple[Metric, ...] = (
    _self_s("cli.emit_report"),
    _tally("cli.report_bytes", "bytes"),
    _calls("eliminator.eliminate"),
    _self_s("eliminator.eliminate"),
    _ratio("eliminator.decided_ratio", "eliminator.decided", "eliminator.cells"),
    _self_s("grouporders.enumerate_cases"),
    _calls("grouporders.case_orders"),
    _self_s("grouporders.case_orders"),
    _self_s("grouporders.known_subdegrees"),
    _calls("sieve.admissible_tuples_explained"),
    _self_s("sieve.admissible_tuples_explained"),
    _tally("sieve.tuples_found"),
    _tally("sieve.rejections"),
    _calls("exactmath.factorize"),
    _self_s("exactmath.factorize"),
    _self_s("exactmath.divisors"),
    _self_s("exactmath.divisors_upto"),
    _calls("permgroup.compose"),
    _calls("permgroup.inverse_perm"),
    _calls("permgroup.conjugate_perm"),
    _self_s("permgroup.subgroups_of_order"),
    _tally("permgroup.subgroups_of_order.found"),
    _self_s("permgroup.subgroup_classes"),
    _self_s("permgroup.elements"),
    _tally("permgroup.elements.enumerated"),
    _self_s("permgroup.point_stabilizer"),
    (
        "permgroup.builtin_action.s",
        "s",
        lambda t: t.inclusive_ns["permgroup.builtin_action"] / 1e9,
    ),
    _self_s("designsearch.stabilizer_search"),
    _tally("designsearch.candidates_tested"),
    _ratio(
        "designsearch.hit_ratio",
        "designsearch.designs",
        "designsearch.candidates_tested",
    ),
    _calls("designsearch.set_stabilizer"),
    _self_s("designsearch.set_stabilizer"),
    _calls("designsearch.verify_design"),
    _self_s("designsearch.verify_design"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cell_verdict_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# the closed loop


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(p, value) for the highest listed percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = math.ceil(p / 100 * len(ordered))  # nearest-rank
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def summarize(samples: Sequence[float]) -> dict:
    out: Dict[str, object] = {"samples": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples)
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flagsieve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def run_benchmark(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    refs: Refs,
    outdir: Path = OUT_DIR,
) -> Tuple[dict, dict]:
    """Run the closed loop; returns (result object, details)."""
    rng = random.Random(seed)
    checks = Checks()
    is_grid = isinstance(workload, GridWorkload)
    cell_ref = None if is_grid else refs.cells.get(cell_key(workload.cell))
    if not is_grid and cell_ref is None:
        checks.record(False, f"no reference for {cell_key(workload.cell)}")
    reports_dir = outdir / workload.name
    reports_dir.mkdir(parents=True, exist_ok=True)

    # untraced iterations: scaled and wall seconds
    setup_s: List[float] = []
    setup_wall: List[float] = []
    op_wall: List[float] = []
    cells_per_s: List[float] = []
    verdict_s: List[float] = []
    call_s: List[float] = []
    op_s: Dict[bool, List[float]] = {False: [], True: []}  # traced? -> scaled op s
    layers: List[Dict[str, float]] = []
    last_tracer: Optional[Tracer] = None
    untraced: List[str] = []  # traced names the sources no longer have
    peak_rss_mb = 0.0

    start = time.perf_counter()
    iteration = 0
    with Stopwatch() as watch:
        while True:
            traced = trace and iteration % 2 == 0  # traced, untraced, traced, ...
            fs = actions = None
            gc.collect()
            fs, _ = watch.call(fresh_import)
            tracer = None
            if traced:
                tracer = Tracer()
                untraced = tracer.install(fs, TRACE_PLAN)
            if not is_grid:
                # the relabelling moves the work by a few percent, so untraced
                # iterations average over several; a traced run keeps one, so
                # that all its iterations see the same input
                draw = 0 if trace else iteration
                actions = build_actions(fs, workload, seed, draw, watch)
            set_wall, set_scaled = watch.lap()

            if is_grid:
                rows = list(workload.rows)
                rng.shuffle(rows)
                cells, calls = grid_pass(fs, rows, refs, reports_dir, checks, watch)
                if iteration == 0:
                    check_tier1(workload, refs, reports_dir, checks)
            else:
                report, results = certify_cell(fs, workload, actions, watch)
                cells, calls = 1, []
                if cell_ref is not None:
                    check_cell(workload, cell_ref, report, results, checks)
            wall, scaled = watch.lap()
            if tracer is not None:
                tracer.uninstall()
                # span times in the reference seconds of the end-to-end metrics
                speed = (set_scaled + scaled) / (set_wall + wall)
                layers.append(
                    {
                        name: read(tracer) * speed if unit == "s" else read(tracer)
                        for name, unit, read in PER_LAYER
                    }
                )
                last_tracer = tracer
            else:
                setup_s.append(set_scaled)
                setup_wall.append(set_wall)
                op_wall.append(wall)
                cells_per_s.append(cells / scaled)
                verdict_s.append(scaled / cells)
                call_s.extend(calls)
            op_s[traced].append(scaled)
            release(fs)
            if iteration == 0:
                # one set-up and one operation; later iterations repeat them
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            iteration += 1
            if time.perf_counter() - start < seconds:
                continue
            if not trace or (len(op_s[True]) >= 2 and op_s[False]):
                break

    detail: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "iterations": iteration,
        "probe_ms": summarize([p / 1e6 for p in watch.probes]),
        "op_s": summarize(op_s[False]),
        "op_wall_s": summarize(op_wall),
    }
    if trace:
        metrics = {}
        for name, unit, _read in PER_LAYER:
            values = [layer[name] for layer in layers]
            if unit == "s":
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                continue
            # work counts must repeat exactly between traced iterations
            checks.record(
                len(set(values)) == 1, f"{name} differs between traced runs: {values}"
            )
            metrics[name] = {"value": values[0], "unit": unit}
        detail["traced_op_s"] = summarize(op_s[True])
        detail["tracing_overhead"] = (
            statistics.median(op_s[True]) / statistics.median(op_s[False]) - 1
        )
        spans_path = outdir / f"spans-{workload.name}-seed{seed}.jsonl"
        last_tracer.write_spans(str(spans_path))
        detail["spans"] = {"file": str(spans_path), "count": len(last_tracer.spans)}
        detail["untraced"] = untraced
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "cells_per_s": statistics.median(cells_per_s),
            "cell_verdict_s": statistics.median(verdict_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }
        detail["setup_s"] = summarize(setup_s)
        detail["setup_wall_s"] = summarize(setup_wall)
        detail["cell_verdict_s"] = summarize(verdict_s)
        if is_grid:
            detail["row_call_s"] = summarize(call_s)
    detail["error_rate"] = checks.failed / checks.attempted
    detail["errors"] = checks.messages
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flagsieve" / "__init__.py").is_file():
        print(f"bench: no flagsieve sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = load_refs()
    result, detail = run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), refs
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
