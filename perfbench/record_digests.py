#!/usr/bin/env python3
"""Record the canonical output of every catalogued query at this commit.

    python3 perfbench/record_digests.py

Runs each query once on its master labelling and writes ``digests.json``,
which the benchmark's correctness gate compares every output against.
Before recording, each output is checked once as strongly as is affordable:
against domkit.bruteforce up to RECORD_BRUTEFORCE_MAX_N vertices, and above
that every enumerated set is re-checked for minimal domination.
"""

from __future__ import annotations

import json
import shutil
import sys

import oracle
import run
from workloads import WORKLOADS, catalogue

RECORD_BRUTEFORCE_MAX_N = 20


def _sets(query, rc, out):
    if query.kind == "product-enum":
        nf = query.fiber[0]
        flat = oracle.product_graph(query.graph, query.fiber)
        return flat, [[g * nf + h for g, h in ps.pairs] for ps in out]
    return query.graph, json.loads(out)["sets"]


def main() -> int:
    mods = run.load_domkit()
    work = run.ROOT / ".perfbench-work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        for workload in WORKLOADS:
            for query in catalogue(workload):
                if query.key in recorded:
                    continue
                perm = tuple(range(query.graph[0]))
                fperm = tuple(range(query.fiber[0])) if query.fiber else None
                rc, out = run.make_call(query, mods, work, "master", perm, fperm)()
                summary, _ = oracle.summarize(query, perm, fperm, rc, out)
                brute = oracle.bruteforce_expected(query, RECORD_BRUTEFORCE_MAX_N)
                if brute is not None:
                    oracle.verify(query, summary, {query.key: {
                        "input": oracle.input_digest(query), "expected": brute}}, None)
                elif query.kind in ("enumerate-mds", "product-enum"):
                    graph, sets = _sets(query, rc, out)
                    if not all(oracle.is_minimal_dominating(graph, s) for s in sets):
                        raise oracle.CheckFailed(f"{query.key}: a set is not minimal dominating")
                recorded[query.key] = {"input": oracle.input_digest(query), "expected": summary}
                print(query.key, "brute force" if brute else "recorded", summary, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    oracle.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
