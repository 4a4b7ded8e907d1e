#!/usr/bin/env python3
"""Regenerate bench/refs/grid.json and bench/refs/survivors/ from the sources.

    python3 bench/make_refs.py

Runs every grid row of the benchmark once through ``flagsieve sweep`` and
records the report's cell count and SHA-256 plus the survivor labels.  The
references pin today's verdicts: regenerate them only for a change that is
meant to alter a report, and say so where the change is described.
tier1.json and searches.json are written by hand and are not touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    fs = run.fresh_import()
    survivors_dir = run.REFS_DIR / "survivors"
    survivors_dir.mkdir(parents=True, exist_ok=True)
    outdir = run.OUT_DIR / "refs"
    outdir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for family, n, q_max in run.WORKLOADS["grid-arith"].rows:
        path = outdir / f"{family}-n{n}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = fs["cli"].main(run.sweep_argv(family, n, q_max, path))
        if code != 0:
            print(f"sweep {family} n={n} exited {code}", file=sys.stderr)
            return 1
        with open(path, "r", encoding="utf-8") as handle:
            summary = json.load(handle)["summary"]
        rows[f"{family} {n}"] = {
            "qMax": q_max,
            "cells": summary["cells"],
            "sha256": run.file_sha256(path),
        }
        lines = [f"# {family} n={n} q<={q_max}: survivors with searches skipped"]
        lines += summary["survivors"]
        (survivors_dir / f"{family}-n{n}.txt").write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    with open(run.REFS_DIR / "grid.json", "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
