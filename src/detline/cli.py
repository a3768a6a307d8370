"""Command-line entry point.

Subcommands: verify, curvature-grid, zeta-det, eta, grr.  Every stencil
runs at its fixed step (``tolerances.DEFAULT_FD_STEP``, reported as the
curvature grid's ``fd_step``).  Exit codes: 0 all checks pass, 1 any failure,
computational error or output path that cannot be written, 2 usage error.
The argument parser is built once per process, on the first ``main`` call,
and serves every later call: building it costs about as much as the
curvature of a 10 x 10 grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chern_series, grassmannian, interval_cp1, report
from .errors import DetlineError


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc
    return lo, hi


def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM, got {text!r}") from exc
    return complex(re_part, im_part)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detline",
        description="Verification runner for zeta determinants, determinant "
        "lines and boundary-projection curvature on solvable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=report.SUITE_NAMES)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", dest="json_path", default=None, metavar="PATH")

    grid = sub.add_parser("curvature-grid", help="sample the curvature comparison grid")
    grid.add_argument("--re", type=_parse_range, default=(-0.5, 0.5), metavar="LO:HI")
    grid.add_argument("--im", type=_parse_range, default=(-0.5, 0.5), metavar="LO:HI")
    grid.add_argument("--n", type=int, default=5, help="points per axis")
    out = grid.add_mutually_exclusive_group()
    out.add_argument("--csv", dest="csv_path", default=None, metavar="PATH")
    out.add_argument("--json", dest="json_path", default=None, metavar="PATH")

    zeta = sub.add_parser("zeta-det", help="zeta determinant at one chart point")
    zeta.add_argument("--z", type=_parse_complex, required=True, metavar="RE,IM")

    eta = sub.add_parser("eta", help="spectral eta invariant at offset a")
    eta.add_argument("--a", type=float, required=True)

    grr = sub.add_parser("grr", help="first Chern pushforward coefficient at twist m")
    grr.add_argument("--m", type=int, required=True)
    return parser


def _cmd_verify(args) -> int:
    if args.json_path:
        report._require_writable(args.json_path)  # before the suite runs
    document = report.run_suite(args.suite, args.seed)
    payload = document.to_json()
    if args.json_path:
        report._atomic_write(args.json_path, json.dumps(payload, indent=2) + "\n")
    for case in document.cases:
        marker = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[case.status]
        print(f"[{marker}] {case.name}")
        if case.status == "fail":
            print(f"       observed={case.observed} expected={case.expected} tol={case.tolerance}")
    summary = payload["summary"]
    print(
        f"{document.suite}: {summary['n_pass']}/{summary['n_cases']} passed, "
        f"{summary['n_fail']} failed, {summary['n_skip']} skipped (seed {document.seed})"
    )
    return 1 if document.n_fail else 0


def _cmd_grid(args) -> int:
    spec = report.GridSpec(
        re_min=args.re[0], re_max=args.re[1],
        im_min=args.im[0], im_max=args.im[1],
        n=args.n,
    )
    out_format = "json" if args.json_path else "csv"
    summary = report.curvature_grid(spec, out_format, args.json_path or args.csv_path)
    print(json.dumps({"summary": summary}))
    return 0


def _cmd_zeta_det(args) -> int:
    record = {
        "closed": interval_cp1.zeta_det_closed(args.z),
        "spectral": interval_cp1.zeta_det_spectral(args.z),
        "alpha": interval_cp1.alpha_of(args.z),
    }
    print(json.dumps(record))
    return 0


def _cmd_eta(args) -> int:
    print(json.dumps({"a": args.a, "eta": grassmannian.eta_invariant_spectral(args.a)}))
    return 0


def _cmd_grr(args) -> int:
    value = chern_series.grr_c1_coefficient(args.m)
    print(json.dumps({"m": args.m, "c1_coefficient": str(value)}))
    return 0


_VALUE_OPTIONS = ("--z", "--re", "--im")


def _merge_leading_dash_values(argv: list[str]) -> list[str]:
    """Join option/value pairs whose values may start with a dash.

    Lets ``--re -0.5:0.5`` and ``--z -1,0`` parse as documented instead of
    being read as unknown flags.
    """
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_OPTIONS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_leading_dash_values(list(argv)))
    handlers = {
        "verify": _cmd_verify,
        "curvature-grid": _cmd_grid,
        "zeta-det": _cmd_zeta_det,
        "eta": _cmd_eta,
        "grr": _cmd_grr,
    }
    try:
        return handlers[args.command](args)
    except (DetlineError, OSError) as exc:  # an OSError names the output path it could not write
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
