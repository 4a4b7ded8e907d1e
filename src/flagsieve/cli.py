"""Command line front end: sieve, eliminate, sweep, search, and verify.

Every subcommand prints a deterministic plain-text account to stdout;
sieve, eliminate and sweep can additionally write a machine-readable report
(JSON or TSV), and search writes design files.  The command line reads
what it prints: ``eliminate --class`` takes a case label as the reports
write it (``C2_GLwr(2,3)``, ``C8_Sp``, ``S(1)``), ``sweep --class`` a
case kind (``C1_Pi``), and ``search --tuple`` a design tuple in the order
v,b,r,k,lambda of the reports' tuples.  Exit
status: 0 = completed, 1 = result differs from an expected claim,
2 = usage or budget error.
"""

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from .designsearch import (
    DesignRecord,
    hypothesis_filter,
    korbit_designs,
    load_design,
    save_design,
    stabilizer_search,
    verify_design,
)
from .eliminator import CellReport, eliminate, survivors, sweep
from .grouporders import GroupSpec, case_label, parse_case_label
from .permgroup import BUILTIN_NAMES, PermAction, builtin_action, load_action
from .sieve import DesignParams, admissible_tuples_explained

SCHEMA_VERSION = 1
OUTDIR_ENV = "FLAGSIEVE_OUTDIR"

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2

_FAMILIES = {
    "linear": "linear",
    "psl": "linear",
    "l": "linear",
    "unitary": "unitary",
    "psu": "unitary",
    "u": "unitary",
}

# ---------------------------------------------------------------------------
# argument handling


def _family(token: str) -> str:
    key = token.lower()
    if key not in _FAMILIES:
        raise ValueError(f"unknown family {token!r} (use psl/linear or psu/unitary)")
    return _FAMILIES[key]


def _resolve_path(path: str) -> str:
    base = os.environ.get(OUTDIR_ENV, "")
    if path and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_source(args: argparse.Namespace) -> PermAction:
    if args.group:
        return builtin_action(args.group)
    return load_action(args.action_file)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _design_tuple(text: str) -> DesignParams:
    """v,b,r,k,lambda, in the order of DesignParams.as_tuple."""
    try:
        return DesignParams(*(int(x) for x in text.split(",")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected five positive ints v,b,r,k,lambda, got {text!r}"
        ) from None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it
    unchanged."""
    top = argparse.ArgumentParser(
        prog="flagsieve",
        description="Arithmetic sieve and exhaustive searches for "
        "flag-transitive 2-design parameters.",
        epilog=f"Relative output paths are resolved inside ${OUTDIR_ENV} "
        "when that variable is set.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default="", help="write a report file")
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("sieve", help="admissible parameter tuples for fixed v")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--r-divisor", type=int, required=True)
    p.add_argument("--g-max", type=_positive, default=None)
    p.add_argument("--rstar-divisor", type=_positive, default=None)
    p.add_argument("--tuple-budget", type=_positive, default=10**7)
    add_output(p)

    p = sub.add_parser("eliminate", help="run one socle/class cell")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--class",
        dest="case",
        type=parse_case_label,
        required=True,
        metavar="LABEL",
        help="a case label as reports print it, e.g. 'C2_GLwr(2,3)'",
    )
    p.add_argument("--no-search", action="store_true")
    p.add_argument("--expect", choices=("Eliminated", "Survives", "NeedsSearch"))
    add_output(p)

    p = sub.add_parser("sweep", help="eliminate every cell on a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument(
        "--class", dest="kind", default=None, help="restrict to one case kind"
    )
    p.add_argument("--no-search", action="store_true")
    p.add_argument(
        "--expect-survivors",
        default="",
        help="file of expected survivor labels, one per line",
    )
    add_output(p)

    p = sub.add_parser("search", help="designs under one group action")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group", choices=BUILTIN_NAMES)
    src.add_argument("--action-file")
    strategy = p.add_mutually_exclusive_group(required=True)
    strategy.add_argument("--k", type=int, help="all k-orbit designs")
    strategy.add_argument(
        "--tuple",
        dest="params",
        type=_design_tuple,
        metavar="V,B,R,K,LAMBDA",
        help="an exhaustive search for this tuple",
    )
    p.add_argument("--out-dir", default="", help="where design files are written")
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--expect-designs", type=_nonnegative, default=None)
    p.add_argument("--orbit-cap", type=_positive, default=10**7)

    p = sub.add_parser("verify", help="re-check a design file from scratch")
    p.add_argument("--design", required=True)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--group", choices=BUILTIN_NAMES)
    src.add_argument("--action-file")
    return top


# ---------------------------------------------------------------------------
# report files


def _fmt_tuple(p: DesignParams) -> str:
    return f"2-({p.v},{p.k},{p.lam}) r={p.r} b={p.b}"


_str = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses

# marks a slot of a template; _json writes it as a raw NUL, which _str
# escapes everywhere else, so no other text of a rendering contains one
_SLOT = object()


def _wrap(items: List[str], pad: str, brackets: str = "[]") -> str:
    """Items, each already indented, one a line, closed on a line at pad."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + pad + brackets[1]


def _json(value: object, pad: str) -> str:
    """value as json.dumps(value, indent=2) writes it, on a line indented by
    pad, with a NUL for each _SLOT.  Dict keys must be str.  Values other
    than str, int, bool, None, _SLOT, list, tuple and dict go to
    json.dumps: floats read the same and sets raise TypeError."""
    if isinstance(value, str):
        return _str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is _SLOT:
        return "\0"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return _wrap([inner + _json(x, inner) for x in value], pad)
    if isinstance(value, dict):
        items = [f"{inner}{_str(k)}: {_json(x, inner)}" for k, x in value.items()]
        return _wrap(items, pad, "{}")
    return json.dumps(value)


def _template(value: object, pad: str) -> List[str]:
    """The pieces of _json(value, pad) between its slots."""
    return _json(value, pad).split("\0")


def _fill(pieces: List[str], slots: Sequence[str]) -> str:
    """pieces with slots[i] between pieces i and i + 1.  The extended-slice
    assignment raises ValueError unless there is one slot per joint."""
    out = [""] * (2 * len(pieces) - 1)
    out[::2] = pieces
    out[1::2] = slots
    return "".join(out)


def _cell_template(rep: CellReport) -> List[str]:
    """rep's cell, at a cell's depth in the report, as a template whose
    slots are n, q, each witness value in order and the final tuples.
    Every other part is fixed by the cell's shape (see _report_json)."""
    final = rep.final
    cell = {
        "spec": {"family": rep.family, "n": _SLOT, "q": _SLOT},
        "case": {
            "kind": rep.case.kind,
            "params": rep.case.params,
            "label": case_label(rep.case),
        },
        "steps": [
            {
                "name": s.name,
                "citation": s.citation,
                "witnesses": [[key, _SLOT] for key, _ in s.witnesses],
                "verdict": s.verdict,
            }
            for s in rep.steps
        ],
        "final": {
            "kind": final.kind,
            "stepIndex": final.step_index,
            "tuples": _SLOT,
            "note": final.note,
        },
    }
    return _template(cell, " " * 4)


def _report_json(reports: Sequence[CellReport], grid: Optional[Dict]) -> str:
    """The JSON report {schemaVersion, grid, cells, summary}, byte for byte
    as json.dumps(..., indent=2) writes it, with a final newline.

    Cells of one shape (family, case, each step's name, citation, verdict
    and witness keys, and the final's kind, stepIndex and note) share one
    template, built on the first such cell.  1 == True in Python, so the
    shape holds the step index's type; a case's params are exact ints and
    strs, which SubgroupCase checks, so the shape holds them as they are.
    A slot's value is rendered at the depth of its slot: 14 spaces for a
    witness value, 8 for the tuples."""
    templates: Dict[tuple, List[str]] = {}
    cells = []
    pad = " " * 14
    for rep in reports:
        final = rep.final
        shape = [
            rep.family,
            rep.case.kind,
            rep.case.params,
            final.kind,
            final.step_index,
            type(final.step_index),
            final.note,
        ]
        slots = [int.__repr__(rep.n), int.__repr__(rep.q)]
        for s in rep.steps:
            step = [s.name, s.citation, s.verdict]
            for key, value in s.witnesses:
                step.append(key)
                slots.append(
                    int.__repr__(value) if type(value) is int else _json(value, pad)
                )
            shape.append(tuple(step))
        tuples = [t.as_tuple() for t in final.tuples]
        slots.append(_json(tuples, " " * 8) if tuples else "[]")
        shape = tuple(shape)
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = _cell_template(rep)
        cells.append(_fill(template, slots))
    kinds: Dict[str, int] = {}
    for rep in reports:
        kinds[rep.final.kind] = kinds.get(rep.final.kind, 0) + 1
    document = {
        "schemaVersion": SCHEMA_VERSION,
        "grid": grid,
        "cells": [_SLOT] * len(cells),
        "summary": {
            "cells": len(reports),
            "kinds": {k: kinds[k] for k in sorted(kinds)},
            "survivors": [r.label for r in survivors(reports)],
        },
    }
    return _fill(_template(document, ""), cells) + "\n"


def _tsv_cell_rows(reports: Sequence[CellReport]) -> str:
    lines = ["family\tn\tq\tcase\tfinal\tstep\tsteps\ttuples\tnote"]
    for rep in reports:
        decisive = ""
        if rep.final.step_index is not None:
            decisive = rep.steps[rep.final.step_index].name
        tuples = ";".join(
            ",".join(str(x) for x in t.as_tuple()) for t in rep.final.tuples
        )
        lines.append(
            "\t".join(
                (
                    rep.family,
                    str(rep.n),
                    str(rep.q),
                    case_label(rep.case),
                    rep.final.kind,
                    decisive,
                    str(len(rep.steps)),
                    tuples,
                    rep.final.note,
                )
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(
    reports: Sequence[CellReport],
    path: str,
    format: str = "json",
    grid: Optional[Dict] = None,
) -> None:
    """Write cell reports to path; identical inputs give identical bytes.
    The text is complete before the file is opened, so a failure leaves
    no file."""
    if format == "tsv":
        text = _tsv_cell_rows(reports)
    elif format == "json":
        text = _report_json(reports, grid)
    else:
        raise ValueError(f"unknown report format {format!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _run_sieve(args: argparse.Namespace) -> int:
    tuples, rejections = admissible_tuples_explained(
        args.v,
        args.r_divisor,
        g_max=args.g_max,
        rstar_divisor=args.rstar_divisor,
        max_work=args.tuple_budget,
    )
    for t in tuples:
        print(_fmt_tuple(t))
    print(f"tuples {len(tuples)}")
    if args.output:
        codes: Dict[str, int] = {}
        for rej in rejections:
            codes[rej.code] = codes.get(rej.code, 0) + 1
        if args.format == "tsv":
            lines = ["v\tb\tr\tk\tlambda"]
            lines.extend("\t".join(str(x) for x in t.as_tuple()) for t in tuples)
            text = "\n".join(lines) + "\n"
        else:
            doc = {
                "schemaVersion": SCHEMA_VERSION,
                "query": {
                    "v": args.v,
                    "rDivisor": args.r_divisor,
                    "gMax": args.g_max,
                    "rstarDivisor": args.rstar_divisor,
                },
                "tuples": [list(t.as_tuple()) for t in tuples],
                "rejections": {k: codes[k] for k in sorted(codes)},
            }
            text = _json(doc, "") + "\n"
        path = _resolve_path(args.output)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_OK


def _print_report(rep: CellReport) -> None:
    print(rep.label)
    for step in rep.steps:
        extras = "".join(f" {key}={value}" for key, value in step.witnesses)
        print(f"  {step.name} {step.verdict}{extras}")
    final = rep.final
    if final.kind == "Eliminated":
        print(f"final Eliminated at {rep.steps[final.step_index].name}")
    else:
        note = f": {final.note}" if final.note else ""
        print(f"final {final.kind}{note}")
    for t in final.tuples:
        print(f"  tuple {_fmt_tuple(t)}")


def _run_eliminate(args: argparse.Namespace) -> int:
    family = _family(args.family)
    rep = eliminate(
        GroupSpec(family, args.n, args.q), args.case, run_searches=not args.no_search
    )
    _print_report(rep)
    if args.output:
        grid = {"family": family, "n": args.n, "q": args.q}
        emit_report([rep], _resolve_path(args.output), args.format, grid)
    if args.expect and rep.final.kind != args.expect:
        print(f"expected {args.expect}, got {rep.final.kind}")
        return EXIT_DISCREPANCY
    return EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    family = _family(args.family)
    expected = None
    if args.expect_survivors:
        with open(args.expect_survivors, "r", encoding="utf-8") as handle:
            expected = {
                line.strip()
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            }
    reports = sweep(
        family,
        args.n_min,
        args.n_max,
        args.q_max,
        run_searches=not args.no_search,
        kind=args.kind,
    )
    print(
        f"sweep {family} n={args.n_min}..{args.n_max} "
        f"q<={args.q_max} cells {len(reports)}"
    )
    kinds: Dict[str, int] = {}
    for rep in reports:
        kinds[rep.final.kind] = kinds.get(rep.final.kind, 0) + 1
    for kind in ("Eliminated", "Survives", "NeedsSearch"):
        print(f"{kind} {kinds.get(kind, 0)}")
    alive = survivors(reports)
    for rep in alive:
        print(f"survivor {rep.label} {rep.final.kind}")
    if args.output:
        grid = {
            "family": family,
            "nMin": args.n_min,
            "nMax": args.n_max,
            "qMax": args.q_max,
        }
        emit_report(reports, _resolve_path(args.output), args.format, grid)
    if expected is not None:
        got = {rep.label for rep in alive}
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        for label in missing:
            print(f"missing {label}")
        for label in extra:
            print(f"extra {label}")
        if missing or extra:
            return EXIT_DISCREPANCY
        print("survivors match")
    return EXIT_OK


def _design_paths(records: Sequence[DesignRecord], out_dir: str) -> List[str]:
    paths = []
    used: Dict[str, int] = {}
    for rec in records:
        p = rec.params
        base = f"{rec.group}_{p.v}_{p.b}_{p.r}_{p.k}_{p.lam}"
        count = used.get(base, 0)
        used[base] = count + 1
        name = base if count == 0 else f"{base}_{count + 1}"
        paths.append(os.path.join(out_dir, name + ".design"))
    return paths


def _run_search(args: argparse.Namespace) -> int:
    action = _load_source(args)
    params = args.params
    if params is not None and params.v != action.degree:
        raise ValueError(f"action degree {action.degree} differs from v = {params.v}")
    print(f"group {action.label} degree {action.degree} order {action.order()}")
    if params is not None:
        print(f"strategy stabilizer {_fmt_tuple(params)}")
        result = stabilizer_search(action, params)
        for name, text in result.certificate:
            print(f"certificate {name}: {text}")
        records = result.designs
    else:
        print(f"strategy korbit k={args.k}")
        records = korbit_designs(action, args.k, args.orbit_cap)
        if not args.no_filter:
            records = hypothesis_filter(records)
    out_dir = _resolve_path(args.out_dir) or os.environ.get(OUTDIR_ENV, "") or "."
    os.makedirs(out_dir, exist_ok=True)
    for rec, path in zip(records, _design_paths(records, out_dir)):
        save_design(path, rec)
        ft = "flag-transitive" if rec.flag_transitive else "not-flag-transitive"
        print(f"design {_fmt_tuple(rec.params)} {ft} -> {path}")
    print(f"designs {len(records)}")
    print("exhaustive yes")  # a search certifies or raises
    if args.expect_designs is not None and len(records) != args.expect_designs:
        print(f"expected {args.expect_designs} designs, found {len(records)}")
        return EXIT_DISCREPANCY
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    group, params, blocks = load_design(args.design)
    if args.group or args.action_file:
        action = _load_source(args)
    elif group in BUILTIN_NAMES:
        action = builtin_action(group)
    else:
        raise ValueError(
            f"design file names group {group!r}, which is not built in; "
            "give --group or --action-file"
        )
    print(f"group {action.label} degree {action.degree}")
    print(f"declared {_fmt_tuple(params)}")
    report = verify_design(action, blocks, expect=params)
    for problem in report.problems:
        print(f"problem {problem}")
    if report.ok:
        print(f"ok {_fmt_tuple(report.params)} flag-transitive")
        return EXIT_OK
    print("FAIL")
    return EXIT_DISCREPANCY


# ---------------------------------------------------------------------------
# entry point


_HANDLERS = {
    "sieve": _run_sieve,
    "eliminate": _run_eliminate,
    "sweep": _run_sweep,
    "search": _run_search,
    "verify": _run_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
