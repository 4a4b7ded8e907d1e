"""Golden reports: the tier-1 sweep reports are pinned byte for byte.

A refactor of the elimination pipeline must leave every verdict, step and
witness unchanged.  The SHA-256 of each report below was computed before
the routes became a table; a change to any cell of the two tier-1 grids
shows up here as a changed digest.  To locate the cell, write the report
with ``flagsieve sweep ... --output`` on both sides and ``cmp`` them.
"""

import hashlib

import pytest

from flagsieve.cli import emit_report
from flagsieve.eliminator import sweep

# (family, n_max, q_max, run_searches) -> (JSON digest, TSV digest)
GOLDEN = {
    ("linear", 12, 32, False): (
        "6f74db4bae054809941b67fdfa45c514109d07e0bc9fdfcf2d91b3e69f16fcdb",
        "69a2d8c57468383b164023fe573219b4bb25e8651cdb58fd4391614988ffd5ef",
    ),
    ("linear", 12, 32, True): (
        "f026d1b375a2a7bc29f4c5fae6f71ebdaa8f030819add2478530036487ceea51",
        "b225768219cb6ffd108df9cb45c132e4d5bb9120e6b3fa1b224a0726030ba129",
    ),
    ("unitary", 8, 8, False): (
        "f00032d101aaf9313549f584304f5b2636fd83e704c874e8db98bb5dcd39ae43",
        "ee272f49bf413988ab18347db4573ac25b1563f7808f2dc5df316d12b4c0d4c3",
    ),
    ("unitary", 8, 8, True): (
        "81b18c64ed56df0f0a19a37bc4fbb58bdd01cbf9ed0172fb870943df0f08c8ed",
        "4b8e6cba0fe3ff2dc81702a108e7a08bcdd6787f522b1597b911287ccbf5ae74",
    ),
}


@pytest.mark.parametrize("family,n_max,q_max,run_searches", sorted(GOLDEN))
def test_tier1_sweep_reports_are_byte_identical(
    tmp_path, family, n_max, q_max, run_searches
):
    reports = sweep(family, 3, n_max, q_max, run_searches=run_searches)
    # the grid block exactly as `flagsieve sweep` writes it
    grid = {"family": family, "nMin": 3, "nMax": n_max, "qMax": q_max}
    digests = []
    for fmt in ("json", "tsv"):
        path = tmp_path / f"report.{fmt}"
        emit_report(reports, str(path), fmt, grid)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(digests) == GOLDEN[(family, n_max, q_max, run_searches)]
