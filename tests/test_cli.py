"""Command line contract: output text, report files, exit codes."""

import functools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import flagsieve
from flagsieve import cli, eliminator
from flagsieve.cli import (
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_USAGE,
    emit_report,
    main,
)
from flagsieve.designsearch import load_design, stabilizer_search
from flagsieve.eliminator import CellReport, Final, Step, eliminate, sweep
from flagsieve.grouporders import GroupSpec, SubgroupCase, case_label, enumerate_cases
from flagsieve.permgroup import builtin_action, save_action
from flagsieve.sieve import DesignParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


# ---------------------------------------------------------------------------
# sieve


def test_sieve_eight_points(capsys):
    code, lines = run_cli(capsys, "sieve", "--v", "8", "--r-divisor", "42")
    assert code == EXIT_OK
    assert lines == [
        "2-(8,4,6) r=14 b=28",
        "2-(8,4,9) r=21 b=42",
        "tuples 2",
    ]


def test_sieve_json_report(capsys, tmp_path):
    path = tmp_path / "s.json"
    code, _ = run_cli(
        capsys, "sieve", "--v", "144", "--r-divisor", "78", "--output", str(path)
    )
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["schemaVersion"] == 1
    assert doc["query"] == {"v": 144, "rDivisor": 78, "gMax": None, "rstarDivisor": None}
    assert doc["tuples"] == [[144, 144, 78, 78, 42]]
    assert doc["rejections"]["divisor-conflict"] == 10


def test_sieve_json_report_layout(capsys, tmp_path):
    """The sieve report's bytes are json.dumps(..., indent=2)'s."""
    path = tmp_path / "s.json"
    code, _ = run_cli(
        capsys, "sieve", "--v", "8", "--r-divisor", "42", "--output", str(path)
    )
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["tuples"] == [[8, 28, 14, 4, 6], [8, 42, 21, 4, 9]]
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


def test_sieve_tsv_report(capsys, tmp_path):
    path = tmp_path / "s.tsv"
    code, _ = run_cli(
        capsys, *"sieve --v 8 --r-divisor 42 --format tsv --output".split(), str(path)
    )
    assert code == EXIT_OK
    assert path.read_text() == "v\tb\tr\tk\tlambda\n8\t28\t14\t4\t6\n8\t42\t21\t4\t9\n"


def test_sieve_budget_error(capsys):
    code, _ = run_cli(
        capsys, "sieve", "--v", "8", "--r-divisor", "42", "--tuple-budget", "0"
    )
    assert code == EXIT_USAGE


def test_sieve_budget_bounds_the_g_scan(capsys):
    """v - 1 = 99991 is prime, so the lone r* = 99991 passes the up-front
    check; the work is the divisors g of lcm(1..200) scanned for each
    lambda*, and the budget must stop it."""
    r_divisor = str(99991 * math.lcm(*range(1, 201)))
    start = time.perf_counter()
    code = main(["sieve", "--v", "99992", "--r-divisor", r_divisor,
                 "--tuple-budget", "300000"])
    assert time.perf_counter() - start < 5
    assert code == EXIT_USAGE
    assert "exceeds budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eliminate


def test_eliminate_wreath_trace(capsys):
    code, lines = run_cli(
        capsys,
        *"eliminate --family psl --n 6 --q 2 --class C2_GLwr(2,3)".split(),
    )
    assert code == EXIT_OK
    assert lines[0] == "linear n=6 q=2 C2_GLwr(2,3)"
    assert lines[-1] == "final Eliminated at rstar-square-vs-divisor"
    joined = "\n".join(lines)
    assert "divisor=2592" in joined
    assert "v=15554560" in joined


@pytest.mark.parametrize(
    "socle,label,last",
    [
        ("psl --n 3 --q 7", "C6(3,1)", "final Eliminated at rstar-square-vs-gcd"),
        ("psu --n 3 --q 3", "S(1)", "final NeedsSearch: searches skipped"),
        ("psl --n 4 --q 3", "C8_Sp", "final Eliminated at rstar-square-vs-gcd"),
        ("psu --n 4 --q 3", "C5_O(+)", "final Eliminated at rstar-square-vs-gcd"),
    ],
)
def test_eliminate_reads_the_label_it_prints(capsys, socle, label, last):
    """--class takes a case label as the trace prints it: C6 is (t, m)
    with n = t^m, as its label writes it, and a str parameter needs no
    flag of its own."""
    argv = f"eliminate --family {socle} --no-search --class".split()
    code, lines = run_cli(capsys, *argv, label)
    assert code == EXIT_OK
    assert lines[0].endswith(" " + label)
    assert last in lines


def test_eliminate_needs_search_tuples(capsys):
    code, lines = run_cli(
        capsys,
        *"eliminate --family psl --n 3 --q 3 --class C3(1,3) --no-search".split(),
    )
    assert code == EXIT_OK
    assert "final NeedsSearch: searches skipped" in lines
    assert "  tuple 2-(144,78,42) r=78 b=144" in lines


def test_eliminate_expect_mismatch(capsys):
    code, lines = run_cli(
        capsys,
        *"eliminate --family psl --n 6 --q 2 --class C2_GLwr(2,3)".split(),
        "--expect",
        "Survives",
    )
    assert code == EXIT_DISCREPANCY
    assert lines[-1] == "expected Survives, got Eliminated"


def test_eliminate_usage_errors(capsys):
    # unknown family / a kind no socle routes / a routed kind without its
    # parameters: each parses, and the socle refuses the cell
    for argv in (
        "eliminate --family psp --n 3 --q 2 --class C3(1,3)",
        "eliminate --family psl --n 3 --q 2 --class c3",
        "eliminate --family psl --n 3 --q 2 --class C3",
    ):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, argv
        assert captured.out == ""
    assert "linear n=3 q=2 has no case C3\n" in captured.err


@pytest.mark.parametrize("label", ["C3(01,3)", "C3(1,3"])
def test_eliminate_refuses_text_that_is_not_a_label(capsys, label):
    """A label case_label would not write is refused while parsing the
    command line, and the refusal names it."""
    argv = "eliminate --family psl --n 3 --q 2 --class".split()
    code = main(argv + [label])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"argument --class: invalid parse_case_label value: {label!r}" in captured.err


_FUZZ_KINDS = sorted(set(eliminator._ROUTES["linear"]) | set(eliminator._ROUTES["unitary"]))
_FUZZ_TOKENS = ("0", "1", "2", "3", "4", "x", "o", "+", "-", "1.5", "01", " 1", "")
_FUZZ_JUNK = ("c1", "c3", "C9", "S", "", "(", ")", "()", ",", "C3)(", "C1_Pi((1))")


def _fuzz_label(rng, cases):
    """A hostile --class value: one of the socle's cases, a routed kind with
    random parameters, or junk, each possibly cut or wrapped in extra
    parentheses."""
    pick = rng.random()
    if pick < 0.2 and cases:
        label = case_label(rng.choice(cases))
    elif pick < 0.85:
        kind = rng.choice(_FUZZ_KINDS)
        tokens = [rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 3))]
        label = f"{kind}({','.join(tokens)})" if tokens else kind
    else:
        label = rng.choice(_FUZZ_JUNK)
    damage = rng.random()
    if damage < 0.05:
        label = label[:-1]
    elif damage < 0.1:
        label = "(" + label + ")"
    elif damage < 0.15:
        label += ")"
    return label


def test_eliminate_fuzz_refuses_every_cell_off_the_enumeration(capsys):
    """Seeded hostile --class labels: each run exits 0 or 2 and raises
    nothing, and every cell that exits 0 is one its socle enumerates."""
    rng = random.Random(1)
    codes = {EXIT_OK: 0, EXIT_USAGE: 0}
    for _ in range(600):
        family = rng.choice(("psl", "psu"))
        n, q = rng.randint(3, 9), rng.choice((2, 3, 4, 5, 7, 8, 9))
        try:
            spec = GroupSpec(cli._family(family), n, q)
            cases = enumerate_cases(spec)
        except ValueError:  # the one solvable (n, q) hole
            spec, cases = None, ()
        argv = [
            "eliminate",
            "--family", family,
            "--n", str(n),
            "--q", str(q),
            "--class", _fuzz_label(rng, cases),
            "--no-search",
        ]
        code, lines = run_cli(capsys, *argv)
        assert code in codes, argv
        codes[code] += 1
        if code == EXIT_OK:
            cell = f"{spec.family} n={n} q={q}"
            assert lines[0] in [f"{cell} {case_label(c)}" for c in cases], argv
    assert min(codes.values()) >= 20, codes


_FILE_JUNK = ("-1", "x", "#", "999", "1.5", "degree", "block", "group", "params")


def _mutated(rng, text):
    """text with one to three seeded mutations: a line dropped, duplicated
    or replaced by another, or a token dropped, duplicated or replaced by
    another of the file's tokens or by junk."""
    lines = [ln.split() for ln in text.splitlines()]
    pool = sorted({t for ln in lines for t in ln}) + list(_FILE_JUNK)
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(lines)), rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, list(lines[i]))
        elif op == 2:
            lines[i] = list(rng.choice(lines))
        elif lines[i]:
            j = rng.randrange(len(lines[i]))
            if op == 3:
                del lines[i][j]
            elif op == 4:
                lines[i].insert(j, lines[i][j])
            else:
                lines[i][j] = rng.choice(pool)
    return "".join(" ".join(ln) + "\n" for ln in lines)


def _fuzz_file(capsys, tmp_path, text, argv, seed):
    """Run argv, with '{file}' standing for one file, on 300 seeded
    mutations of text written to that file: each run exits 0, 1 or 2 and
    raises nothing.  Returns the count of runs per exit code."""
    rng, path = random.Random(seed), tmp_path / "fuzzed.txt"
    codes = {EXIT_OK: 0, EXIT_DISCREPANCY: 0, EXIT_USAGE: 0}
    for _ in range(300):
        mutated = _mutated(rng, text)
        path.write_text(mutated)
        code = main([a.replace("{file}", str(path)) for a in argv])
        capsys.readouterr()
        assert code in codes, mutated
        codes[code] += 1
    return codes


def test_verify_fuzz_on_design_files(capsys, tmp_path):
    """Seeded hostile design files for a 2-(8,4,6) design of pgl2_7."""
    main(["search", "--group", "pgl2_7", "--k", "4", "--out-dir", str(tmp_path)])
    text = (tmp_path / "pgl2_7_8_28_14_4_6.design").read_text()
    codes = _fuzz_file(capsys, tmp_path, text, ["verify", "--design", "{file}"], 2)
    assert codes[EXIT_DISCREPANCY] >= 20 and codes[EXIT_USAGE] >= 20, codes


def test_search_fuzz_on_action_files(capsys, tmp_path):
    """Seeded hostile action files for pgl2_7, searched for 3-subset orbit
    designs."""
    save_action(builtin_action("pgl2_7"), str(tmp_path / "pgl2_7.txt"))
    text = (tmp_path / "pgl2_7.txt").read_text()
    argv = ["search", "--action-file", "{file}", "--k", "3", "--out-dir", str(tmp_path)]
    codes = _fuzz_file(capsys, tmp_path, text, argv, 3)
    assert codes[EXIT_OK] >= 20 and codes[EXIT_USAGE] >= 20, codes


def test_eliminate_refuses_an_off_grid_cell_under_optimize(tmp_path):
    """The refusal is a membership test, not an assert: python -O still
    exits 2, names the cell and writes no report."""
    src = os.path.dirname(os.path.dirname(flagsieve.__file__))
    out = tmp_path / "cell.json"
    argv = "eliminate --family psu --n 4 --q 3 --class C3(2,2)".split()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "flagsieve.cli", *argv, "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr == "error: unitary n=4 q=3 has no case C3(2,2)\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_unknown_flag_and_missing_subcommand(capsys):
    assert main(["sieve", "--v", "8", "--nope", "1"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_eliminate_json_report(capsys, tmp_path):
    path = tmp_path / "cell.json"
    code, _ = run_cli(
        capsys,
        *"eliminate --family psl --n 6 --q 2 --class C2_GLwr(2,3)".split(),
        "--output",
        str(path),
    )
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert doc["schemaVersion"] == 1
    assert doc["grid"] == {"family": "linear", "n": 6, "q": 2}
    (cell,) = doc["cells"]
    assert cell["spec"] == {"family": "linear", "n": 6, "q": 2}
    assert cell["case"] == {"kind": "C2_GLwr", "params": [2, 3], "label": "C2_GLwr(2,3)"}
    kill = cell["steps"][cell["final"]["stepIndex"]]
    assert kill["name"] == "rstar-square-vs-divisor"
    assert ["divisor", 2592] in kill["witnesses"]
    assert ["v", 15554560] in kill["witnesses"]
    assert doc["summary"] == {
        "cells": 1,
        "kinds": {"Eliminated": 1},
        "survivors": [],
    }


def test_eliminate_tsv_report(capsys, tmp_path):
    path = tmp_path / "cell.tsv"
    code, _ = run_cli(
        capsys,
        *"eliminate --family psl --n 3 --q 2 --class C3(1,3) --no-search".split(),
        "--output",
        str(path),
        "--format",
        "tsv",
    )
    assert code == EXIT_OK
    header, row = path.read_text().splitlines()
    assert header.split("\t") == [
        "family", "n", "q", "case", "final", "step", "steps", "tuples", "note",
    ]
    cols = row.split("\t")
    assert cols[:5] == ["linear", "3", "2", "C3(1,3)", "NeedsSearch"]
    assert cols[5] == ""  # no decisive step
    assert cols[7] == "8,28,14,4,6;8,42,21,4,9"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_survivors_and_determinism(capsys, tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    argv = "sweep --family psu --n-min 3 --n-max 3 --q-max 3".split()
    code, lines = run_cli(capsys, *argv, "--output", str(path_a))
    assert code == EXIT_OK
    assert "survivor unitary n=3 q=3 C1_Pi(1) Survives" in lines
    assert "survivor unitary n=3 q=3 S(1) Survives" in lines
    code, lines_b = run_cli(capsys, *argv, "--output", str(path_b))
    assert code == EXIT_OK
    assert lines_b == lines
    assert path_a.read_bytes() == path_b.read_bytes()
    doc = json.loads(path_a.read_text())
    assert doc["grid"] == {"family": "unitary", "nMin": 3, "nMax": 3, "qMax": 3}
    assert doc["summary"]["cells"] == len(doc["cells"])
    assert doc["summary"]["survivors"] == [
        "unitary n=3 q=3 C1_Pi(1)",
        "unitary n=3 q=3 S(1)",
    ]


def test_sweep_expect_survivors(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(
        "# survivors\nunitary n=3 q=3 C1_Pi(1)\nunitary n=3 q=3 S(1)\n"
    )
    argv = "sweep --family psu --n-min 3 --n-max 3 --q-max 3".split()
    code, lines = run_cli(capsys, *argv, "--expect-survivors", str(good))
    assert code == EXIT_OK
    assert lines[-1] == "survivors match"
    bad = tmp_path / "bad.txt"
    bad.write_text("unitary n=3 q=3 C1_Pi(1)\nunitary n=4 q=2 C1_Pi(1)\n")
    code, lines = run_cli(capsys, *argv, "--expect-survivors", str(bad))
    assert code == EXIT_DISCREPANCY
    assert "missing unitary n=4 q=2 C1_Pi(1)" in lines
    assert "extra unitary n=3 q=3 S(1)" in lines


def test_sweep_reads_expected_survivors_first(capsys, tmp_path, monkeypatch):
    """An unreadable --expect-survivors file is refused before any cell is
    swept, printed or written."""
    monkeypatch.setattr(cli, "sweep", lambda *a, **k: pytest.fail("swept"))
    report = tmp_path / "sweep.json"
    argv = "sweep --family psu --n-min 3 --n-max 3 --q-max 3 --output".split()
    code = main(argv + [str(report), "--expect-survivors", str(tmp_path / "none")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert not report.exists()


def test_sweep_class_filter(capsys):
    argv = "sweep --family psu --n-min 3 --n-max 3 --q-max 3 --class".split()
    code, lines = run_cli(capsys, *argv, "C1_Pi")
    assert code == EXIT_OK
    assert lines[0].endswith("cells 1")
    assert lines[-1] == "survivor unitary n=3 q=3 C1_Pi(1) Survives"
    # the exact kind name only: an alias, a label or a kind of the other
    # family is refused by sweep itself
    for kind in ("c1", "C1_Pi(1)", "C1_Pij"):
        code = main(argv + [kind])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"unknown unitary class {kind!r}" in captured.err


def test_sweep_class_filter_runs_no_other_cell(capsys, tmp_path, monkeypatch):
    """--class picks the cases before elimination: the S(1) cell of the
    same grid, whose stored searches are four stabilizer_search calls, is
    never run, and the kept cell's report is the unfiltered one's."""
    calls = []

    def counted(action, params):
        calls.append((action.label, params))
        return stabilizer_search(action, params)

    monkeypatch.setattr(eliminator, "stabilizer_search", counted)
    # a fresh search cache, so that searches run by earlier tests still count
    fresh = functools.lru_cache(maxsize=None)(eliminator._registry_search.__wrapped__)
    monkeypatch.setattr(eliminator, "_registry_search", fresh)
    argv = "sweep --family psu --n-min 3 --n-max 3 --q-max 3".split()
    picked, full = tmp_path / "picked.json", tmp_path / "full.json"
    code, _ = run_cli(capsys, *argv, "--class", "C1_Pi", "--output", str(picked))
    assert code == EXIT_OK
    assert calls == []
    code, _ = run_cli(capsys, *argv, "--no-search", "--output", str(full))
    assert code == EXIT_OK
    kept = json.loads(picked.read_text())["cells"]
    assert [c["case"]["label"] for c in kept] == ["C1_Pi(1)"]
    assert kept == [
        c for c in json.loads(full.read_text())["cells"] if c["case"]["kind"] == "C1_Pi"
    ]


# ---------------------------------------------------------------------------
# search and verify


def test_search_korbit_emits_design_files(capsys, tmp_path):
    code, lines = run_cli(
        capsys,
        *"search --group pgl2_7 --k 4 --out-dir".split(),
        str(tmp_path),
    )
    assert code == EXIT_OK
    assert "designs 2" in lines
    assert "exhaustive yes" in lines
    files = sorted(p.name for p in tmp_path.glob("*.design"))
    assert files == ["pgl2_7_8_28_14_4_6.design", "pgl2_7_8_42_21_4_9.design"]
    group, params, blocks = load_design(str(tmp_path / files[0]))
    assert group == "pgl2_7"
    assert params.as_tuple() == (8, 28, 14, 4, 6)
    assert len(blocks) == 28


def test_design_files_round_trip_a_group_label_with_a_space(capsys, tmp_path):
    """A design file written for an action file whose name holds a space
    reads back with that label, and verifies against the action."""
    action = tmp_path / "my pgl.txt"
    save_action(builtin_action("pgl2_7"), str(action))
    out = tmp_path / "out"
    argv = ["search", "--action-file", str(action), "--k", "4", "--out-dir", str(out)]
    code, lines = run_cli(capsys, *argv)
    assert code == EXIT_OK and "designs 2" in lines
    files = sorted(out.glob("*.design"))
    assert len(files) == 2
    for path in files:
        assert load_design(str(path))[0] == "my pgl"
        code, lines = run_cli(
            capsys, "verify", "--design", str(path), "--action-file", str(action)
        )
        assert code == EXIT_OK, lines
        assert lines[-1].startswith("ok ")


@pytest.mark.parametrize("name", ["a#b.txt", "a\nb.txt", "a .txt"])
def test_search_refuses_a_group_label_a_design_file_cannot_hold(
    capsys, tmp_path, name
):
    """A label with '#' would be cut at the comment, one with a line break
    split over two lines, and one with outer whitespace stripped: the
    search exits 2 and writes no design."""
    action = tmp_path / name
    save_action(builtin_action("pgl2_7"), str(action))
    out = tmp_path / "out"
    argv = ["search", "--action-file", str(action), "--k", "4", "--out-dir", str(out)]
    code = main(argv)
    assert code == EXIT_USAGE
    assert "design files cannot hold the group label" in capsys.readouterr().err
    assert list(out.glob("*")) == []


def test_search_hypothesis_filter_on_socle(capsys, tmp_path):
    argv = ["search", "--group", "psl2_7", "--k", "4", "--out-dir", str(tmp_path)]
    code, lines = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert sum(1 for ln in lines if ln.startswith("design ")) == 1
    assert any("2-(8,4,9)" in ln for ln in lines)
    # without the hypothesis filter the two halved 2-(8,4,3) orbits show up
    code, lines = run_cli(capsys, *argv, "--no-filter")
    assert code == EXIT_OK
    assert sum(1 for ln in lines if ln.startswith("design ")) == 3


def test_search_stabilizer_strategy(capsys, tmp_path):
    argv = [
        "search", "--group", "psu3_3_36", "--tuple", "36,36,21,21,12",
        "--out-dir", str(tmp_path),
    ]
    code, lines = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "strategy stabilizer 2-(36,21,12) r=21 b=36" in lines
    assert "designs 1" in lines
    assert "exhaustive yes" in lines
    argv_quasi = [
        "search", "--group", "psu3_3_36", "--tuple", "36,48,28,21,16",
        "--out-dir", str(tmp_path),
    ]
    code, lines = run_cli(capsys, *argv_quasi)
    assert code == EXIT_OK
    assert "designs 0" in lines
    code, _ = run_cli(capsys, *argv_quasi, "--expect-designs", "1")
    assert code == EXIT_DISCREPANCY


@pytest.mark.parametrize(
    "extra,refusal",
    [
        ("--tuple 8,42,21,4", "argument --tuple: expected five positive ints"),
        ("--tuple 8,42,21,4,x", "argument --tuple: expected five positive ints"),
        ("--tuple 8,42,0,4,9", "argument --tuple: expected five positive ints"),
        ("--tuple 9,42,21,4,9", "action degree 8 differs from v = 9"),
        ("--k 4 --tuple 8,42,21,4,9", "argument --tuple: not allowed with argument --k"),
    ],
    ids=["four-values", "non-int", "zero", "v-not-degree", "k-and-tuple"],
)
def test_search_tuple_is_refused(capsys, tmp_path, extra, refusal):
    """A bad --tuple exits 2 before anything is printed or written."""
    argv = ["search", "--group", "psl2_7", "--out-dir", str(tmp_path)]
    code = main(argv + extra.split())
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert refusal in captured.err
    assert captured.out == ""
    assert list(tmp_path.glob("*.design")) == []


@pytest.mark.parametrize(
    "params,identity",
    [
        ("8,5,21,4,9", "b*k = 20 but v*r = 168"),
        ("8,42,21,4,8", "r*(k-1) = 63 but lambda*(v-1) = 56"),
    ],
    ids=["flag-count", "replication"],
)
def test_search_refuses_an_inconsistent_tuple(capsys, tmp_path, params, identity):
    """A tuple that breaks b*k = v*r or r*(k-1) = lambda*(v-1) belongs to
    no 2-design: the stabilizer search exits 2 naming the identity, with no
    certificate and no design file.  (8,5,21,4,9) was certified exhaustive
    by a block-count kill."""
    argv = ["search", "--group", "psl2_7", "--tuple", params, "--out-dir", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert f"error: {identity}\n" in captured.err
    assert "certificate" not in captured.out and "exhaustive" not in captured.out
    assert list(tmp_path.glob("*.design")) == []


def test_search_rejects_header_only_action_file(capsys, tmp_path):
    path = tmp_path / "empty.gens"
    path.write_text("degree 5\n")
    code = main(["search", "--action-file", str(path), "--k", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE == 2
    assert f"no generator lines after the header in {path}" in err


def test_search_rejects_an_action_file_of_degree_zero(capsys, tmp_path):
    path = tmp_path / "zero.gens"
    path.write_text("degree 0\n")
    code = main(["search", "--action-file", str(path), "--k", "2"])
    assert code == EXIT_USAGE
    assert "error: degree must be positive" in capsys.readouterr().err


def test_search_takes_no_report_flags(capsys, tmp_path):
    """search writes design files only: --output and --format are refused
    by argparse, not accepted and ignored."""
    argv = ["search", "--group", "psl2_7", "--k", "4", "--out-dir", str(tmp_path)]
    report = tmp_path / "x.json"
    for extra in (["--output", str(report)], ["--format", "tsv"]):
        code = main(argv + extra)
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err
    assert not report.exists()
    assert list(tmp_path.glob("*.design")) == []


def test_verify_round_trip(capsys, tmp_path):
    run_cli(capsys, *"search --group pgl2_7 --k 4 --out-dir".split(), str(tmp_path))
    for path in sorted(tmp_path.glob("*.design")):
        code, lines = run_cli(capsys, "verify", "--design", str(path))
        assert code == EXIT_OK
        assert lines[-1].startswith("ok 2-(8,4,")
        assert lines[-1].endswith("flag-transitive")


def test_verify_rejects_damage(capsys, tmp_path):
    run_cli(capsys, *"search --group psl2_7 --k 4 --out-dir".split(), str(tmp_path))
    (path,) = sorted(tmp_path.glob("*.design"))
    lines = path.read_text().splitlines()
    points = lines[-1].split()[1:]
    swap = next(str(x) for x in range(8) if str(x) not in points)
    lines[-1] = "block " + " ".join([swap] + points[1:])
    bad = tmp_path / "bad.design"
    bad.write_text("\n".join(lines) + "\n")
    code, lines = run_cli(capsys, "verify", "--design", str(bad))
    assert code == EXIT_DISCREPANCY
    assert lines[-1] == "FAIL"


def test_verify_truncated_file_is_malformed(capsys, tmp_path):
    run_cli(capsys, *"search --group psl2_7 --k 4 --out-dir".split(), str(tmp_path))
    (path,) = sorted(tmp_path.glob("*.design"))
    text = path.read_text().splitlines()
    bad = tmp_path / "bad.design"
    bad.write_text("\n".join(text[:-1]) + "\n")  # block count contradicts params
    code, _ = run_cli(capsys, "verify", "--design", str(bad))
    assert code == EXIT_USAGE


@pytest.mark.parametrize("bad,point", [("block 0 1 2 99", 99), ("block -1 1 2 3", -1)])
def test_verify_reports_a_point_out_of_range(capsys, tmp_path, bad, point):
    """A block point outside the group's domain is a reported problem."""
    run_cli(capsys, *"search --group psl2_7 --k 4 --out-dir".split(), str(tmp_path))
    (path,) = sorted(tmp_path.glob("*.design"))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [bad]) + "\n")
    code, lines = run_cli(capsys, "verify", "--design", str(path))
    assert code == EXIT_DISCREPANCY
    assert lines[-2:] == [f"problem point {point} out of range", "FAIL"]


def test_verify_refuses_a_design_without_params(capsys, tmp_path):
    path = tmp_path / "noparams.design"
    path.write_text("version 1\ngroup psl2_7\nblock 0 1 2 3\n")
    code = main(["verify", "--design", str(path)])
    assert code == EXIT_USAGE
    assert "error: missing params line" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["params 9 9 9 9 9", "group nosuchgroup"])
def test_verify_refuses_a_second_group_or_params_line(capsys, tmp_path, extra):
    """A repeated header line is refused, not read as the last one given."""
    run_cli(capsys, *"search --group psl2_7 --k 4 --out-dir".split(), str(tmp_path))
    (path,) = sorted(tmp_path.glob("*.design"))
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(extra.split()[0]))
    path.write_text("\n".join(lines[:at] + [extra] + lines[at:]) + "\n")
    code = main(["verify", "--design", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert f"error: second {extra.split()[0]} line '{lines[at]}'" in captured.err


FANO_LINES = [f"block {i} {(i + 1) % 7} {(i + 3) % 7}" for i in range(7)]


def _fano_design(tmp_path, block_lines):
    path = tmp_path / "fano.design"
    header = ["version 1", "group c7", "params 7 7 3 3 1"]
    path.write_text("\n".join(header + block_lines) + "\n")
    return path


def test_verify_reports_a_design_that_is_not_flag_transitive(capsys, tmp_path):
    action = tmp_path / "c7.txt"
    action.write_text("degree 7\n1 2 3 4 5 6 0\n")
    path = _fano_design(tmp_path, FANO_LINES)
    code, lines = run_cli(
        capsys, "verify", "--design", str(path), "--action-file", str(action)
    )
    assert code == EXIT_DISCREPANCY
    assert lines[-2:] == [
        "problem block stabilizer is intransitive on its block",
        "FAIL",
    ]


@pytest.mark.parametrize("bad", ["block 0 0 1", "block"])
def test_verify_refuses_a_block_line_without_distinct_points(capsys, tmp_path, bad):
    path = _fano_design(tmp_path, [bad] + FANO_LINES[1:])
    code = main(["verify", "--design", str(path), "--group", "psl3_2"])
    assert code == EXIT_USAGE
    assert f"block line {bad!r} must list distinct points" in capsys.readouterr().err


def test_verify_unknown_group_needs_source(capsys, tmp_path):
    path = tmp_path / "odd.design"
    path.write_text("version 1\ngroup mystery\nparams 8 28 14 4 6\nblock 0 1 2 3\n")
    code, _ = run_cli(capsys, "verify", "--design", str(path))
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# report writer and config plumbing


def test_emit_report_empty_is_valid(tmp_path):
    path = tmp_path / "empty.json"
    emit_report([], str(path))
    doc = json.loads(path.read_text())
    assert doc == {
        "schemaVersion": 1,
        "grid": None,
        "cells": [],
        "summary": {"cells": 0, "kinds": {}, "survivors": []},
    }
    path_tsv = tmp_path / "empty.tsv"
    emit_report([], str(path_tsv), "tsv")
    assert path_tsv.read_text().splitlines()[0].startswith("family\t")


def report_document(reports, grid):
    """Reference for the JSON report: the document whose
    json.dumps(..., indent=2) emit_report's bytes must equal."""
    cells = []
    for rep in reports:
        cells.append(
            {
                "spec": {"family": rep.family, "n": rep.n, "q": rep.q},
                "case": {
                    "kind": rep.case.kind,
                    "params": list(rep.case.params),
                    "label": case_label(rep.case),
                },
                "steps": [
                    {
                        "name": s.name,
                        "citation": s.citation,
                        "witnesses": [[key, value] for key, value in s.witnesses],
                        "verdict": s.verdict,
                    }
                    for s in rep.steps
                ],
                "final": {
                    "kind": rep.final.kind,
                    "stepIndex": rep.final.step_index,
                    "tuples": [list(t.as_tuple()) for t in rep.final.tuples],
                    "note": rep.final.note,
                },
            }
        )
    kinds = {}
    for rep in reports:
        kinds[rep.final.kind] = kinds.get(rep.final.kind, 0) + 1
    summary = {
        "cells": len(reports),
        "kinds": {k: kinds[k] for k in sorted(kinds)},
        "survivors": [r.label for r in reports if r.final.kind != "Eliminated"],
    }
    return {"schemaVersion": 1, "grid": grid, "cells": cells, "summary": summary}


def assert_report_matches_reference(tmp_path, reports, grid):
    path = tmp_path / "report.json"
    emit_report(reports, str(path), "json", grid)
    expected = json.dumps(report_document(reports, grid), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def count_templates(monkeypatch):
    """The cells _report_json builds a template for, from now on."""
    built = []
    original = cli._cell_template

    def counted(rep):
        built.append(rep)
        return original(rep)

    monkeypatch.setattr(cli, "_cell_template", counted)
    return built


@pytest.mark.parametrize(
    "family,n_max,q_max,shapes",
    [("linear", 12, 32, 102), ("unitary", 8, 8, 45)],
    ids=["linear-12-32", "unitary-8-8"],
)
def test_emit_report_matches_reference_on_tier1_sweeps(
    tmp_path, monkeypatch, family, n_max, q_max, shapes
):
    """Byte for byte, with one template per cell shape: a shape that took
    in n, q or a witness value would build more."""
    reports = sweep(family, 3, n_max, q_max)
    grid = {"family": family, "nMin": 3, "nMax": n_max, "qMax": q_max}
    built = count_templates(monkeypatch)
    assert_report_matches_reference(tmp_path, reports, grid)
    assert len(built) == shapes


ODD_TEXT = 'caf\u00e9 "q" back\\slash \t tab \x01 \x00 \u2028 \U0001d53d'


def _hand_built_reports(witness_value):
    step = Step(
        ODD_TEXT,
        "cites \u201cquotes\u201d\n" + ODD_TEXT,
        ((ODD_TEXT, witness_value), ("plain", ODD_TEXT), ("zero", 0)),
        "info",
    )
    bare = Step("no-witnesses", "", (), "pass")
    tuples = (DesignParams(8, 28, 14, 4, 6), DesignParams(8, 42, 21, 4, 9))
    return [
        CellReport(
            ODD_TEXT,
            3,
            -2,
            SubgroupCase("C8_O", ("+", 2)),
            (step, bare),
            Final("Survives", None, tuples, ODD_TEXT),
        ),
        CellReport(
            "unitary",
            10**30,
            4,
            SubgroupCase("C2_GU1wr", ()),
            (),
            Final("NeedsSearch", None, (), ""),
        ),
        CellReport(
            "linear",
            4,
            3,
            SubgroupCase("C1_Pi", (2,)),
            (bare, step),
            Final("Eliminated", 1, tuples[:1], "note"),
        ),
    ]


WITNESS_VALUES = [
    True,
    False,
    None,
    -12,
    2**70,
    1.5,
    "",
    [],
    {},
    [1, [2, [True, None, "x"]], []],
    (3, ("a", {})),
    {"k": [1, 2], ODD_TEXT: {"inner": None}},
]


@pytest.mark.parametrize("witness_value", WITNESS_VALUES)
def test_emit_report_matches_reference_on_odd_cells(tmp_path, witness_value):
    reports = _hand_built_reports(witness_value)
    for grid in (None, {"family": ODD_TEXT, "n": [3, 4], "nested": {}}):
        assert_report_matches_reference(tmp_path, reports, grid)
        assert_report_matches_reference(tmp_path, reports[1:2], grid)
        assert_report_matches_reference(tmp_path, [], grid)


PERCENT_TEXT = "100% %s %% %(x)s %"


def test_emit_report_shares_a_template_and_keeps_percent_signs(tmp_path, monkeypatch):
    """Six cells of one shape: one template, whose fixed texts keep their %
    signs, and whose slots take each cell's n and witness values, of a
    different type in each cell, and its tuples."""
    tuples = (DesignParams(8, 28, 14, 4, 6),)
    values = [5, True, None, [1, "%s", [None]], "%% %s", -(10**40)]
    reports = [
        CellReport(
            PERCENT_TEXT,
            n,
            2,
            SubgroupCase("C8_O", (PERCENT_TEXT, 1)),
            (
                Step(
                    PERCENT_TEXT,
                    "cites " + PERCENT_TEXT,
                    ((PERCENT_TEXT, value), ("k", n)),
                    "info",
                ),
            ),
            Final("Survives", None, tuples if n == 3 else (), PERCENT_TEXT),
        )
        for n, value in enumerate(values, start=3)
    ]
    built = count_templates(monkeypatch)
    assert_report_matches_reference(tmp_path, reports, {"family": PERCENT_TEXT})
    assert len(built) == 1


def test_emit_report_tells_equal_values_of_other_types_apart(tmp_path):
    """1 == True == 1.0 in Python, but JSON writes each differently.  A
    case's parameters are exact ints and strs, so 1 and True reach the
    writer as step indices, which make different shapes, and all four of
    1, True, 1.0 and "1" as witness values."""
    reports = [
        CellReport(
            "linear",
            3,
            2,
            SubgroupCase("C1_Pi", (param,)),
            (Step("bare", "", (("w", value),), "eliminated"),) * 2,
            Final("Eliminated", index),
        )
        for param in (1, "1")
        for value in (1, True, 1.0, "1")
        for index in (1, True)
    ]
    assert_report_matches_reference(tmp_path, reports, None)
    for param in (True, 1.0):
        with pytest.raises(ValueError, match="^case C1_Pi takes"):
            SubgroupCase("C1_Pi", (param,))


def test_emit_report_unserializable_witness_writes_nothing(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        emit_report(_hand_built_reports({1, 2}), str(path))
    assert not path.exists()


def test_emit_report_rejects_unknown_format(tmp_path):
    rep = eliminate(
        GroupSpec("linear", 4, 3), SubgroupCase("C1_Pi", (2,)), run_searches=False
    )
    with pytest.raises(ValueError):
        emit_report([rep], str(tmp_path / "x.bin"), "xml")


def test_outdir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FLAGSIEVE_OUTDIR", str(tmp_path))
    code, _ = run_cli(
        capsys, "sieve", "--v", "8", "--r-divisor", "42", "--output", "rel.json"
    )
    assert code == EXIT_OK
    assert (tmp_path / "rel.json").exists()
    code, _ = run_cli(capsys, *"search --group psl2_7 --k 4".split())
    assert code == EXIT_OK
    assert list(tmp_path.glob("*.design"))


@pytest.mark.parametrize(
    "argv",
    [
        "search --group psl2_7 --k 4 --orbit-cap 0",
        "sieve --v 8 --r-divisor 42 --tuple-budget 0",
        "sieve --v 8 --r-divisor 42 --g-max 0",
        "sieve --v 8 --r-divisor 42 --g-max -5",
        "sieve --v 8 --r-divisor 42 --rstar-divisor 0",
        "sieve --v 8 --r-divisor 42 --rstar-divisor -7",
    ],
    ids=["orbit-cap", "tuple-budget", "g-max", "g-max-negative", "rstar-divisor",
         "rstar-divisor-negative"],
)
def test_budgets_must_be_positive(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    flag, value = argv.split()[-2:]
    assert f"argument {flag}: must be positive, got {value}" in captured.err


def test_expected_design_count_must_not_be_negative(capsys, tmp_path):
    argv = ["search", "--group", "psl2_7", "--k", "4", "--out-dir", str(tmp_path)]
    code = main(argv + ["--expect-designs", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert "argument --expect-designs: must be non-negative, got -1" in captured.err
    assert list(tmp_path.glob("*.design")) == []


def test_orbit_cap_edges(capsys, tmp_path):
    # psl2_7 on 8 points has C(8,4) = 70 four-subsets; korbit_designs
    # itself enforces the cap it is given
    argv = ["search", "--group", "psl2_7", "--k", "4", "--out-dir", str(tmp_path)]
    code, lines = run_cli(capsys, *argv, "--orbit-cap", "70")
    assert code == EXIT_OK
    assert "strategy korbit k=4" in lines
    code = main(argv + ["--orbit-cap", "69"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "C(8,4) = 70 exceeds the orbit budget 69" in captured.err


def test_search_has_no_subgroup_budget(capsys, tmp_path):
    """The flag-stabilizer order is not a count of subgroups, so no flag
    pretends to limit the subgroup enumeration."""
    argv = "search --group psl2_7 --tuple 8,42,21,4,9".split()
    code = main(argv + ["--out-dir", str(tmp_path), "--subgroup-budget", "1"])
    assert code == EXIT_USAGE
    assert "--subgroup-budget" in capsys.readouterr().err


def _same_under_optimize(capsys, tmp_path, argv):
    """Run eliminate in-process and under python -O; return the cell of each."""
    normal = tmp_path / "normal.json"
    optimized = tmp_path / "optimized.json"
    code, _ = run_cli(capsys, *argv, "--output", str(normal))
    assert code == EXIT_OK
    src = os.path.dirname(os.path.dirname(flagsieve.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "flagsieve.cli", *argv]
        + ["--output", str(optimized)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    (want,) = json.loads(normal.read_text())["cells"]
    (got,) = json.loads(optimized.read_text())["cells"]
    assert got["final"] == want["final"]
    assert want["steps"][-1]["name"] == "design-search"
    assert got["steps"] == want["steps"]
    return want


def test_eliminate_searched_cell_under_optimize(capsys, tmp_path):
    """Correctness checks are explicit raises, so python -O changes nothing."""
    argv = "eliminate --family psl --n 3 --q 3 --class C3(1,3)".split()
    _same_under_optimize(capsys, tmp_path, argv)


def test_eliminate_unitary_searched_cell_under_optimize(capsys, tmp_path):
    """The flag-stabilizer route, with its suborbit screen and its subgroup
    lattice, is plain control flow: under python -O the cell still survives
    with the same design-search witnesses."""
    argv = "eliminate --family psu --n 3 --q 3 --class S(1)".split()
    cell = _same_under_optimize(capsys, tmp_path, argv)
    assert cell["final"]["kind"] == "Survives"
