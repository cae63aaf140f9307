#!/usr/bin/env python3
"""domkit benchmark: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload mds-enum --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, no threads: each query starts when the previous one returned.
CLI queries go in-process through ``domkit.cli.main([..., "--json"])`` with
stdout captured; the product enumerator and ``gamma_product`` have no
subcommand and are called directly.  Every output is checked (see
``oracle.py``) outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes of the same queries and reports the
per-layer metrics from the spans of ``tracer.py``.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import oracle
import tracer as tracing
from workloads import LABELLINGS, WORKLOADS, Query, catalogue, edge_list_text, permutation, relabel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run holds at least this many queries, so >= 10 lie above its p90.
MIN_QUERIES = 100
# Set-ups timed per run in fresh interpreters, one after each timed pass and
# the rest after the last; setup_s is their median.
SETUP_REPEATS = 9
IMPORT_REPEATS = 5


def load_domkit() -> dict:
    """Import the checkout's domkit, never an installed copy."""
    if not (SRC / "domkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'domkit'} not found; run from the root of a domkit checkout")
    sys.path.insert(0, str(SRC))
    import domkit
    from domkit import cli, domination, graphs, hypergraphs, lexicographic, recognition

    if Path(domkit.__file__).resolve().parent != SRC / "domkit":
        sys.exit(f"perfbench: imported domkit from {domkit.__file__}, not from {SRC}")
    return {"cli": cli, "graphs": graphs, "hypergraphs": hypergraphs, "domination": domination,
            "lexicographic": lexicographic, "recognition": recognition}


@dataclass
class Prepared:
    """One query on one labelling, ready to call."""

    query: Query
    lab: int
    perm: tuple
    fperm: tuple | None
    call: Callable[[], tuple]

    @property
    def key(self) -> tuple[str, int]:
        return self.query.key, self.lab


def _cli_call(cli, argv: list[str]) -> Callable[[], tuple]:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    return call


def make_call(query: Query, mods: dict, inputs: Path, tag: str, perm, fperm):
    """The callable for one query on the inputs relabelled by perm (and fperm)."""
    graph = relabel(query.graph, perm)
    fiber = relabel(query.fiber, fperm) if query.fiber else None
    if query.kind in ("product-enum", "gamma-product"):
        lex, Graph = mods["lexicographic"], mods["graphs"].Graph
        base_g, fiber_g = Graph(*graph), Graph(*fiber)
        if query.kind == "product-enum":
            return lambda: (0, lex.enumerate_minimal_dominating_sets_product(base_g, fiber_g))
        return lambda: (0, lex.gamma_product(base_g, fiber_g))

    def write(name, g):
        path = inputs / f"{name}.{tag}.el"
        if not path.exists():
            path.write_text(edge_list_text(g))
        return str(path)

    if query.kind == "well-dominated-lex":
        argv = ["well-dominated", "--lex", write(f"{query.name}.base", graph),
                write(f"{query.name}.fiber", fiber), "--json"]
    else:
        argv = [query.kind, write(query.name, graph), "--json"]
    return _cli_call(mods["cli"], argv)


def prepare(workload: str, seed: int, mods: dict, inputs: Path) -> Callable[[int], list[Prepared]]:
    """Every catalogued query on labelling ``lab``: ``plan(lab)[i]``.

    A labelling's inputs are generated and written when it is first asked
    for, so a run writes only the labellings its passes use.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    queries = catalogue(workload)

    @functools.cache
    def plan(lab: int) -> list[Prepared]:
        row = []
        for q in queries:
            if q.fiber:
                perm = permutation(seed, q.name + "/base", lab, q.graph[0])
                fperm = permutation(seed, q.name + "/fiber", lab, q.fiber[0])
            else:
                perm, fperm = permutation(seed, q.name, lab, q.graph[0]), None
            call = make_call(q, mods, inputs, f"{seed}.{lab}", perm, fperm)
            row.append(Prepared(q, lab, perm, fperm, call))
        return row

    return plan


def warm_up(plan: Callable[[int], list[Prepared]]) -> None:
    """Run the smallest query of each kind twice, so no first call is timed."""
    smallest = {}
    for p in plan(0):
        if p.query.kind not in smallest or p.query.flat_n < smallest[p.query.kind].query.flat_n:
            smallest[p.query.kind] = p
    for p in smallest.values():
        for _ in range(2):
            p.call()


def _fingerprint(kind: str, rc, out) -> int:
    if kind == "product-enum":
        return hash(tuple(ps.pairs for ps in out))
    return hash((rc, out))


class Ledger:
    """Latency, delivered sets and pass/fail of every query of a run.

    The first output of each (query, labelling) is summarized for the oracle
    check; repeats must reproduce it exactly.
    """

    def __init__(self):
        self.records: list[list] = []  # [key, latency_ns, ok, sets]
        self._first: dict = {}  # key -> (fingerprint, query, summary or CheckFailed, sets)
        self.reasons: list[str] = []

    def record(self, prep: Prepared, latency_ns: int, rc, out, error: str | None = None):
        ok, sets = error is None and rc != 2, 0
        if error:
            self.reasons.append(error)
        elif rc == 2:
            self.reasons.append(f"{prep.query.key}: exit code 2")
        if ok:
            fp = _fingerprint(prep.query.kind, rc, out)
            seen = self._first.get(prep.key)
            if seen is None:
                try:
                    summary, sets = oracle.summarize(prep.query, prep.perm, prep.fperm, rc, out)
                except Exception as exc:  # a malformed output is a failed query
                    summary = oracle.CheckFailed(f"{prep.query.key}: {type(exc).__name__}: {exc}")
                self._first[prep.key] = (fp, prep.query, summary, sets)
            else:
                ok, sets = seen[0] == fp, seen[3]
                if not ok:
                    self.reasons.append(f"{prep.query.key}: output changed between repeats")
        self.records.append([prep.key, latency_ns, ok, sets])

    def verify(self) -> int:
        """Check first outputs against the oracles; returns the failed query count."""
        recorded = oracle.load_recorded()
        brute: dict = {}
        bad = set()
        for key, (_, query, summary, _) in self._first.items():
            try:
                if isinstance(summary, oracle.CheckFailed):
                    raise summary
                if query.key not in brute:
                    brute[query.key] = oracle.bruteforce_expected(query)
                oracle.verify(query, summary, recorded, brute[query.key])
            except oracle.CheckFailed as exc:
                bad.add(key)
                self.reasons.append(str(exc))
        for r in self.records:
            if r[0] in bad:
                r[2] = False
        return sum(1 for r in self.records if not r[2])


def run_pass(row: list[Prepared], order: list[int], ledger: Ledger, tracer=None) -> int:
    """One closed-loop pass over ``row``; returns the time spent inside queries (ns)."""
    busy = 0
    for i in order:
        prep = row[i]
        if tracer is not None:
            tracer.query = len(ledger.records)
        error = rc = out = None
        start = time.perf_counter_ns()
        try:
            rc, out = prep.call()
        except Exception:
            error = f"{prep.query.key}: {traceback.format_exc(limit=3)}"
        latency = time.perf_counter_ns() - start
        busy += latency
        ledger.record(prep, latency, rc, out, error)
    return busy


def _order(seed: int, k: int, size: int) -> list[int]:
    order = list(range(size))
    Random(f"order/{seed}/{k}").shuffle(order)
    return order


def timed_run(plan, seed: int, seconds: float, ledger: Ledger,
              between: Callable[[], None]) -> int:
    """Whole passes while the next one is predicted to end within ``seconds``.

    ``between`` runs after each pass, outside the timed queries.  Returns
    the number of passes.
    """
    start = time.perf_counter()
    passes = 0
    while True:
        row = plan(passes % LABELLINGS)
        t = time.perf_counter()
        run_pass(row, _order(seed, passes, len(row)), ledger)
        passes += 1
        last = time.perf_counter() - t
        between()
        if len(ledger.records) >= MIN_QUERIES and time.perf_counter() - start + last > seconds:
            return passes


def traced_run(plan, seed: int, seconds: float, ledger: Ledger, tracer) -> tuple[int, dict]:
    """Alternate untraced and traced passes of the same queries.

    Returns the number of passes and the per-layer metrics.
    """
    start = time.perf_counter()
    untraced = traced = pairs = 0
    while True:
        row = plan(pairs % LABELLINGS)
        order = _order(seed, pairs, len(row))
        t = time.perf_counter()
        untraced += run_pass(row, order, ledger)
        tracer.install()
        try:
            traced += run_pass(row, order, ledger, tracer)
        finally:
            tracer.remove()
        pairs += 1
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            break
    totals = tracing.summarize(tracer.spans, tracer.counts)
    queries = pairs * len(plan(0))
    metrics = {}
    for name, value in sorted(totals.items()):
        if name.endswith("_ms"):
            metrics[name] = (value / 1e6 / queries, "ms/query")
        else:
            metrics[name] = (value / pairs, "count/pass")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["bench.trace_overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return 2 * pairs, metrics


def import_ms() -> float:
    """Median time of ``import domkit.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import domkit.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


class SetupTimer:
    """Times fresh processes from their start to ready for their first query.

    The child reports the wall clock when it is ready, so its exit and clean-up
    are not counted.  Calls are spread over the run (one after each timed
    pass), so the median does not rest on one moment of a shared machine.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                     "--setup-only"]
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            start = time.time()
            done = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=120)
            self.times.append(float(done.stdout) - start)

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self()
        return statistics.median(self.times)


def end_to_end(ledger: Ledger, setup_s: float, peak_rss_mb: float) -> dict:
    """Latency percentiles over all queries; rates over the time spent inside them."""
    latencies = [r[1] for r in ledger.records]
    busy_s = sum(latencies) / 1e9
    return {
        "query_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "query_p90_ms": (statistics.quantiles(latencies, n=10)[8] / 1e6, "ms"),
        "throughput_qps": (len(latencies) / busy_s, "queries/s"),
        "sets_per_s": (sum(r[3] for r in ledger.records) / busy_s, "sets/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "domkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench-work" / str(os.getpid())
    os.environ["DOMKIT_CACHE_DIR"] = str(work / "cache")
    mods = load_domkit()
    try:
        plan = prepare(args.workload, args.seed, mods, work / "inputs")
        warm_up(plan)
        if args.setup_only:
            print(time.time())
            return 0
        ledger = Ledger()
        if args.trace:
            tracer = tracing.Tracer(mods)
            passes, metrics = traced_run(plan, args.seed, args.seconds, ledger, tracer)
        else:
            setups = SetupTimer(args)
            passes = timed_run(plan, args.seed, args.seconds, ledger, setups)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(ledger, setups.median(), peak_rss_mb)
        failed = ledger.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    attempted = len(ledger.records)
    for reason in ledger.reasons[:10]:
        print(f"FAILED {reason}")
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "source_sha256": source_digest(),
        "labellings": LABELLINGS, "queries_per_pass": len(plan(0))}}))
    print(f"error_rate {failed / attempted} fraction ({failed} of {attempted} queries)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
