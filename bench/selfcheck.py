#!/usr/bin/env python3
"""Fast self-check of the benchmark harness (a few seconds).

    python3 bench/selfcheck.py

Runs a tiny grid (two rows) and one 8-point search cell (pgl2_7, k=4)
through the same code as bench/run.py, untraced and traced.  It checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
references are met, and that corrupted references (a report hash, a
survivor list, a design count) are counted as failed operations.  Exit
status 0 means every check held.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import run

TINY = (
    run.GridWorkload("selfcheck-grid", (("linear", 3, 128), ("unitary", 3, 64))),
    run.SearchWorkload("selfcheck-search", ("linear", 3, 2, "C3", (1, 3)), ("pgl2_7",)),
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def corrupted(refs: run.Refs, outdir) -> run.Refs:
    bad = copy.deepcopy(refs)
    bad.rows["linear 3"]["sha256"] = "0" * 64
    survivors = outdir / "survivors"
    shutil.rmtree(survivors, ignore_errors=True)
    shutil.copytree(refs.survivors_dir, survivors)
    path = survivors / "unitary-n3.txt"
    labels = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(labels[:-1]) + "\n", encoding="utf-8")
    bad.survivors_dir = survivors
    bad.cells[run.cell_key(TINY[1].cell)]["searches"][0]["designs"] += 1
    return bad


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    refs = run.load_refs()
    outdir = run.OUT_DIR / "selfcheck"
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in TINY:
        for trace in (0, 1):
            result, detail = run.run_benchmark(
                workload, seed=3, seconds=0, trace=bool(trace), refs=refs, outdir=outdir
            )
            what = f"{workload.name} trace={trace}"
            expect(set(result) == RESULT_KEYS, f"{what}: result keys")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{what}: references met {detail['errors']}",
            )
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == units[trace], f"{what}: every metric with its unit")
            expect(
                all(
                    isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                    for m in result["metrics"].values()
                ),
                f"{what}: finite numeric values",
            )
            json.dumps(result)  # the result must serialize as printed
            if trace:
                expect("tracing_overhead" in detail, f"{what}: tracing overhead")
        result, detail = run.run_benchmark(
            workload, seed=3, seconds=0, trace=False,
            refs=corrupted(refs, outdir), outdir=outdir,
        )
        expect(
            not result["correct"]
            and result["failed"] >= 1
            and detail["error_rate"] > 0,
            f"{workload.name}: corrupted references raise error_rate "
            f"({result['failed']}/{result['attempted']})",
        )
    print("selfcheck " + ("passed" if not problems else f"failed: {len(problems)}"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
