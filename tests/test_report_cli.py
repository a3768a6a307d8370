"""Report schema, determinism, grid emission, CLI behavior, and planted
faults in the shared measurements."""

import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest

from detline import chern_series, cli, det_line, report, specfun
from detline import grassmannian as gr
from detline import interval_cp1 as cp1
from detline.errors import DegenerateSpectrum, DomainError
from detline.tolerances import DEFAULT_FD_STEP


def strip_timestamps(document):
    data = document.to_json()
    data.pop("started_at")
    data.pop("finished_at")
    return json.dumps(data, indent=2)


def test_run_suite_deterministic_under_seed():
    a = report.run_suite("cp1", 7)
    b = report.run_suite("cp1", 7)
    assert strip_timestamps(a) == strip_timestamps(b)


GOLDEN_CASES = pathlib.Path(__file__).parent / "data" / "verify_all_seed7_cases.json"


@pytest.fixture(scope="module")
def suite_all_seed7():
    return report.run_suite("all", 7)


def test_run_suite_all_passes_and_has_enough_cases(suite_all_seed7):
    document = suite_all_seed7
    assert len(document.cases) >= 40
    assert document.n_fail == 0
    assert all(c.paper_anchor for c in document.cases)


@pytest.mark.parametrize("seed", [7, 0, 11, 12345])
def test_verify_all_case_list_is_frozen(seed, suite_all_seed7):
    # names, anchors, tolerances and expected values of `verify all --seed 7`;
    # the case list does not depend on the seed
    document = suite_all_seed7 if seed == 7 else report.run_suite("all", seed)
    golden = json.loads(GOLDEN_CASES.read_text())
    keys = ("name", "paper_anchor", "tolerance", "expected")
    observed = [{k: case[k] for k in keys} for case in document.to_json()["cases"]]
    assert observed == golden
    assert all(case.status == "pass" for case in document.cases)


def test_run_suite_chern_exact_strings():
    document = report.run_suite("chern", 3)
    assert document.n_fail == 0
    named = {c.name: c for c in document.cases}
    head = named["todd series head coefficients"]
    assert head.observed == "1, 1/2, 1/12, 0, -1/720"
    assert head.tolerance is None


def test_run_suite_rejects_unknown_name():
    with pytest.raises(DomainError):
        report.run_suite("nope", 0)


def test_report_json_schema_fields():
    data = report.run_suite("detline", 11).to_json()
    assert data["schema"] == report.SCHEMA
    assert set(data["summary"]) == {"n_cases", "n_pass", "n_fail", "n_skip"}
    for case in data["cases"]:
        assert set(case) == {"name", "status", "observed", "expected", "tolerance", "paper_anchor"}
        assert case["status"] in ("pass", "fail", "skip")


def test_curvature_grid_csv(tmp_path):
    path = tmp_path / "grid.csv"
    spec = report.GridSpec(re_min=-0.5, re_max=0.5, im_min=-0.5, im_max=0.5, n=5)
    summary = report.curvature_grid(spec, "csv", str(path))
    assert summary["n_rows"] == 25
    assert summary["max_rel_err_fd"] < 1e-4
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["re", "im", "k_fd", "k_closed", "k_pdpdp", "rel_err_fd", "rel_err_pdpdp", "status"]
    assert len(rows) == 26
    origin = [r for r in rows[1:] if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert float(origin[0][3]) == pytest.approx(1.0)


def test_curvature_grid_exclusion_rows(tmp_path):
    path = tmp_path / "grid.json"
    spec = report.GridSpec(re_min=-1.4, re_max=-0.6, im_min=-0.4, im_max=0.4, n=5)
    report.curvature_grid(spec, "json", str(path))
    data = json.loads(path.read_text())
    assert data["schema"] == report.SCHEMA
    statuses = {row["status"] for row in data["rows"]}
    assert "skip" in statuses
    skipped = [row for row in data["rows"] if row["status"] == "skip"]
    assert all(row["k_fd"] is None for row in skipped)
    assert data["summary"]["n_skipped"] == len(skipped)


def test_curvature_grid_skips_exactly_the_exclusion_disk():
    spec = report.GridSpec(re_min=-1.5, re_max=-0.5, im_min=-0.5, im_max=0.5, n=41)
    columns, summary = report._grid_rows(spec)
    for x, y, status in zip(columns["re"], columns["im"], columns["status"]):
        inside = abs(complex(x, y) + 1) < cp1.EXCLUSION_RADIUS
        assert (status == "skip") == inside
    assert summary["max_rel_err_fd"] < report.TOL_CURVATURE


def test_curvature_grid_masks_points_the_stencil_cannot_resolve():
    # with a small exclusion disk the rows the stencil cannot resolve near
    # z = -1 are skipped by the same predicate that makes
    # quillen_curvature_fd raise; every other row stays within tolerance
    spec = report.GridSpec(-1.1, -0.9, -0.1, 0.1, 21, exclusion=((-1.0 + 0j, 0.005),))
    columns, summary = report._grid_rows(spec)
    for x, y, status in zip(columns["re"], columns["im"], columns["status"]):
        z = complex(x, y)
        refused = spec.excluded(z) or cp1.curvature_fd_unresolved(z)
        assert (status == "skip") == refused
    assert 0 < summary["n_skipped"] < len(columns["status"])
    assert summary["max_rel_err_fd"] < report.TOL_CURVATURE
    assert summary["max_rel_err_pdpdp"] < 1e-12


def test_curvature_grid_evaluates_the_curvature_guard_once(monkeypatch):
    # the grid masks the points quillen_curvature_fd would refuse and runs its
    # unguarded core on the rest (the guard ran twice per grid before)
    calls = []
    guard = cp1.curvature_fd_unresolved

    def counted(z):
        calls.append(np.shape(z))
        return guard(z)

    monkeypatch.setattr(cp1, "curvature_fd_unresolved", counted)
    spec = report.GridSpec(-1.5, 1.5, -1.5, 1.5, 10)
    columns, _ = report._grid_rows(spec)
    points = zip(columns["re"], columns["im"])
    assert calls == [(sum(not spec.excluded(complex(x, y)) for x, y in points),)]
    # the public function keeps its own guard
    with pytest.raises(DegenerateSpectrum):
        cp1.quillen_curvature_fd(-1.0 + 1e-4j)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "spec, n_skipped",
    [
        (report.GridSpec(-1.3, -0.7, -0.3, 0.3, 7), 11),
        (report.GridSpec(5.0, 15.0, -1.0, 1.0, 6), 18),  # beyond |z| = 10.2, outside the disk
        (report.GridSpec(1e70, 2e70, 0.0, 1.0, 2), 4),
        (report.GridSpec(-0.5, 0.5, -0.5, 0.5, 2), 0),
    ],
    ids=["disk-skipped", "unresolved-skipped", "all-skipped", "n=2"],
)
def test_curvature_grid_files_are_the_row_writers_bytes(tmp_path, spec, n_skipped):
    # the writers lay out the column table; their files are byte for byte
    # those of json.dumps(indent=2) over row dicts and csv.writer over row lists
    columns, summary = report._grid_rows(spec)
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert summary["n_skipped"] == n_skipped
    document = {
        "schema": report.SCHEMA,
        "kind": "curvature-grid",
        "grid": {k: getattr(spec, k) for k in ("re_min", "re_max", "im_min", "im_max", "n")},
        "rows": rows,
        "summary": summary,
    }
    report.curvature_grid(spec, "json", str(tmp_path / "grid.json"))
    assert (tmp_path / "grid.json").read_bytes() == (json.dumps(document, indent=2) + "\n").encode()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(report.CSV_HEADER)
    writer.writerows(["" if row[k] is None else row[k] for k in report.CSV_HEADER] for row in rows)
    report.curvature_grid(spec, "csv", str(tmp_path / "grid.csv"))
    assert (tmp_path / "grid.csv").read_bytes() == buffer.getvalue().encode()


def test_gridspec_validation():
    with pytest.raises(DomainError):
        report.GridSpec(n=1)
    with pytest.raises(DomainError):
        report.GridSpec(exclusion=((0j, -1.0),))
    # a float n once reached numpy's TypeError; a NaN disk excluded nothing
    for spec in (
        {"n": 3.0},
        {"n": 2.5},
        {"n": "5"},
        {"exclusion": ((0j, math.nan),)},
        {"exclusion": ((0j, math.inf),)},
        {"exclusion": ((complex(math.nan, 0.0), 0.2),)},
        {"exclusion": ((complex(-1.0, math.inf), 0.2),)},
        # entries that are no (centre, radius) pair raised TypeError or ValueError
        {"exclusion": (-1.0 + 0j,)},
        {"exclusion": ((-1.0 + 0j,),)},
        {"exclusion": ((-1.0 + 0j, 0.2, 0.3),)},
        {"exclusion": (("a", 0.2),)},
        {"exclusion": ((None, 0.2),)},
        {"exclusion": ((-1.0 + 0j, "0.2"),)},
        {"exclusion": ((-1.0 + 0j, 0.2j),)},
        {"exclusion": ((-1.0 + 0j, None),)},
        {"exclusion": ((-1.0 + 0j, np.array([0.2])),)},
    ):
        with pytest.raises(DomainError):
            report.GridSpec(**spec)
    assert type(report.GridSpec(n=np.int64(3)).n) is int
    assert report.GridSpec(re_min=np.float64(-0.25), exclusion=((np.complex128(-1), 0.1),))
    for bounds in (
        {"re_min": 0.5, "re_max": -0.5},
        {"re_min": 0.5, "re_max": 0.5},
        {"im_min": 0.5, "im_max": -0.5},
        {"im_min": math.nan},
        {"im_max": math.nan},
        {"re_max": math.inf},
        {"re_min": -math.inf},
        # bounds that are no real number raised TypeError or ValueError
        {"re_min": "a"},
        {"re_max": None},
        {"im_min": 1j},
        {"im_max": np.array([0.5, 1.0])},
    ):
        with pytest.raises(DomainError):
            report.GridSpec(**bounds)


def test_cli_grid_rejects_infinite_bound(capsys):
    code = cli.main(["curvature-grid", "--re", "1:inf", "--n", "3"])
    assert code == 1
    assert "error: DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(False), "7", None])
def test_run_suite_refuses_a_seed_that_is_no_integer_at_least_zero(seed):
    # -1 ended in numpy's ValueError, 1.5 in a TypeError, and True ran and
    # wrote "seed": true into the report
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        report.run_suite("cp1", seed)


def test_run_suite_stores_a_numpy_integer_seed_as_int():
    document = report.run_suite("chern", np.int64(7))
    assert type(document.seed) is int and document.to_json()["seed"] == 7


def test_cli_negative_seed_is_a_domain_error(capsys):
    assert cli.main(["verify", "all", "--seed", "-1"]) == 1
    assert "error: DomainError: seed must be an integer >= 0" in capsys.readouterr().err


def test_cli_zeta_det(capsys):
    code = cli.main(["zeta-det", "--z", "0,0"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    assert record["closed"] == pytest.approx(2.0)
    assert record["spectral"] == pytest.approx(2.0, rel=1e-8)
    assert record["alpha"] == pytest.approx(0.25)


def test_cli_zeta_det_degenerate(capsys):
    code = cli.main(["zeta-det", "--z", "-1,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "DegenerateSpectrum" in captured.err


def strict_json(text):
    """RFC JSON: NaN and the infinities are refused."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in JSON output"))


def test_a_row_failing_on_nan_writes_null_into_the_report_json(tmp_path, capsys, monkeypatch):
    # the file held "observed": NaN three times, which a strict parser refuses
    monkeypatch.setattr(gr, "eta_invariant_spectral", lambda a: np.nan * np.asarray(a, float))
    path = tmp_path / "report.json"
    assert cli.main(["verify", "grassmannian", "--seed", "7", "--json", str(path)]) == 1
    failed = [case for case in strict_json(path.read_text())["cases"] if case["status"] == "fail"]
    assert [case["observed"] for case in failed] == [None] * 3
    assert capsys.readouterr().out.count("observed=nan") == 3
    document = report.run_suite("grassmannian", 7)
    assert sum(math.isnan(c.observed) for c in document.cases if c.status == "fail") == 3


def test_cli_zeta_det_at_a_large_chart_point(capsys):
    # 1 + |z|^2 overflowed above |z| = 1.3e154 and "closed" printed NaN
    assert cli.main(["zeta-det", "--z", "1e160,0"]) == 0
    record = strict_json(capsys.readouterr().out)
    assert record["closed"] == 2.0
    assert record["spectral"] == pytest.approx(2.0, rel=1e-12)


def test_cli_grid_refuses_points_where_the_density_underflows(tmp_path, capsys):
    # the grid wrote "status": "ok" rows holding NaN relative errors and
    # exited 0; below the underflow its JSON holds numbers only.  At 1e70 the
    # rows were "ok" with k_fd = 0, a relative error of 1: the stencil's
    # rounding bound now skips them
    path = tmp_path / "grid.json"
    args = ["curvature-grid", "--im", "0:1", "--n", "2", "--json", str(path)]
    assert cli.main([*args[:1], "--re", "1e160:2e160", *args[1:]]) == 1
    assert "error: DomainError: the curvature density underflows" in capsys.readouterr().err
    assert not path.exists()
    assert cli.main([*args[:1], "--re", "1e70:2e70", *args[1:]]) == 0
    rows = strict_json(path.read_text())["rows"]
    assert [row["status"] for row in rows] == ["skip"] * 4
    assert cli.main([*args[:1], "--re", "2:3", *args[1:]]) == 0
    document = strict_json(path.read_text())
    assert [row["status"] for row in document["rows"]] == ["ok"] * 4
    assert document["summary"]["max_rel_err_fd"] < report.TOL_CURVATURE
    with pytest.raises(DomainError, match="finite width"):
        report.GridSpec(re_min=-1e308, re_max=1e308)


@pytest.mark.parametrize("z", ["nan,0", "0,nan", "inf,0", "0,-inf"])
def test_cli_zeta_det_rejects_non_finite_point(z, capsys):
    code = cli.main(["zeta-det", "--z", z])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: DomainError" in captured.err


def test_cli_eta_and_grr(capsys):
    assert cli.main(["eta", "--a", "0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["eta"] == pytest.approx(0.5)
    assert cli.main(["grr", "--m", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["c1_coefficient"] == "13/12"


def test_cli_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["verify", "chern", "--seed", "5", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    data = json.loads(path.read_text())
    assert data["schema"] == report.SCHEMA
    assert data["suite"] == "chern"
    assert data["summary"]["n_fail"] == 0


def test_cli_grid_stdout_summary(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code = cli.main(
        ["curvature-grid", "--re", "-0.2:0.2", "--im", "-0.2:0.2", "--n", "3", "--csv", str(path)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["n_rows"] == 9
    assert path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature-grid", "--n", "3", "--csv"],
        ["verify", "chern", "--json"],
    ],
    ids=["curvature-grid", "verify"],
)
@pytest.mark.parametrize("target", ["missing-directory", "unwritable-directory", "directory"])
def test_cli_unwritable_output_path_is_one_error_line(
    tmp_path, capsys, monkeypatch, argv, target
):
    # the path is refused before the suite or the grid computes anything,
    # so no temporary file is made
    made = []
    mkstemp = tempfile.mkstemp

    def recorded(*args, **kwargs):
        fd, name = mkstemp(*args, **kwargs)
        made.append(name)
        return fd, name

    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(tempfile, "mkstemp", recorded)
    monkeypatch.setattr(report, "run_suite", never)
    monkeypatch.setattr(report, "_grid_rows", never)
    path = {
        "missing-directory": tmp_path / "missing" / "out",
        "unwritable-directory": tmp_path / "locked" / "out",
        "directory": tmp_path / "existing",
    }[target]
    if target == "directory":
        path.mkdir()
    if target == "unwritable-directory":
        path.parent.mkdir(mode=0o555)
        # root ignores the mode bits, so os.access reads the owner's write bit
        access = os.access

        def owner_may_write(p, mode, **kwargs):
            denied = mode & os.W_OK and not os.stat(p).st_mode & 0o200
            return access(p, mode, **kwargs) and not denied

        monkeypatch.setattr(os, "access", owner_may_write)
    code = cli.main(argv + [str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err and ".detline-" not in err
    assert len(made) == 0
    assert not list(tmp_path.rglob(".detline-*.tmp"))


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "not-a-suite"])
    assert excinfo.value.code == 2


def test_cli_grid_summary_reports_the_fixed_fd_step(monkeypatch, capsys):
    # the step is fixed: the variable that once set it is ignored
    monkeypatch.setenv("DETLINE_FD_STEP", "5e-4")
    code = cli.main(["curvature-grid", "--re", "-0.1:0.1", "--im", "-0.1:0.1", "--n", "2"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["fd_step"] == DEFAULT_FD_STEP == 1e-3
    monkeypatch.setenv("DETLINE_FD_STEP", "-1")
    assert cli.main(["zeta-det", "--z", "0,0"]) == 0


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with args, importing the package under test as
    pytest's pythonpath does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_console_script_entry_point():
    result = run_child("-m", "detline.cli", "grr", "--m", "0")
    assert result.returncode == 0
    assert json.loads(result.stdout)["c1_coefficient"] == "1/12"


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each call in turn still exits and
    # prints as it does in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "100")  # the usage lines wrap at the terminal width
    grid = ["curvature-grid", "--re", "-1.3:-0.2", "--im", "-0.4:0.6", "--n", "4"]
    calls = [
        ["verify", "chern", "--seed", "3"],
        [*grid, "--json", str(tmp_path / "grid.json")],
        ["curvature-grid", "--n", "two"],
        ["zeta-det", "--z", "0.3,-0.2"],
        [*grid, "--csv", str(tmp_path / "grid.csv")],
    ]
    codes = []
    for argv in calls:
        path = pathlib.Path(argv[-1]) if argv[-2] in ("--json", "--csv") else None
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        captured = capsys.readouterr()
        written = path and path.read_bytes()
        child = run_child("-m", "detline.cli", *argv)
        assert (codes[-1], captured.out, captured.err) == (
            child.returncode, child.stdout, child.stderr
        )
        assert written == (path and path.read_bytes())
    assert codes == [0, 0, 2, 0, 0]


IMPORTS_ADDED = """
import sys
before = set(sys.modules)
import detline, detline.cli
for name in sorted(set(sys.modules) - before):
    print(name, getattr(sys.modules[name], "__file__", None))
"""


def test_the_runtime_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency (scipy, mpmath and hypothesis serve
    # the tests alone), and every module an import adds is start-up cost
    result = run_child("-c", IMPORTS_ADDED)
    assert result.returncode == 0, result.stderr
    outside = []
    for line in result.stdout.splitlines():
        name, file = line.split(" ", 1)
        top = name.partition(".")[0]
        if top == "detline":
            ok = file != "None" and pathlib.Path(file).resolve().is_relative_to(SRC / "detline")
        else:
            ok = top in sys.stdlib_module_names or top == "numpy"
        if not ok:
            outside.append(line)
    assert "detline.cli" in result.stdout and not outside, outside


# ---------------------------------------------------------------------------
# the comparator: report.worst reduces every error row and every shared
# measurement


@pytest.mark.parametrize(
    "routes",
    [
        report.Routes(math.nan, 0.0),
        report.Routes(0.0, math.nan),
        report.Routes(1.0, 1.0, math.nan),
        report.Routes(math.inf, 0.0),
        report.Routes(0.0, -math.inf),
        report.Routes(math.inf, math.inf),
        report.Routes(1.0, 1.0, math.inf),
        report.Routes(1.0, 0.0, 0.0),
        report.Routes(complex(0.0, math.nan), 0.0),
        report.Routes([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
        report.Routes([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 1.0, math.inf]),
    ],
)
def test_worst_is_nan_when_a_sample_or_scale_is_not_finite(routes):
    assert math.isnan(report.worst(routes))
    # after a finite route too: Python's max keeps 0.5 against a NaN
    assert math.isnan(report.worst(report.Routes(0.5, 0.0), routes))


def test_worst_is_the_largest_scaled_modulus_of_the_gaps():
    assert report.worst(report.Routes(3 + 4j, 0.0)) == 5.0
    per_sample = report.Routes([1 + 1j, 0.0, 2.0], [1.0, 3j, 1.0], [2.0, 1.0, 4.0])
    assert report.worst(per_sample) == 3.0
    assert report.worst(report.Routes(np.eye(2), np.zeros((2, 2)), 4.0)) == 0.25
    assert report.worst(report.Routes(1.0, 0.5), per_sample, report.Routes([2.0], [0.0])) == 3.0
    assert report.worst(report.Routes(-2.0, 1.0, 1.5)) == 2.0
    assert type(report.worst(report.Routes(np.float32(1.0), 0.0))) is float


_W3 = gr.ModeWindow(3)
_FAM, _FAM2 = gr.rotated_family(_W3, (-1, 0)), gr.rotated_family(_W3, (-1, 1))
_PI0 = gr.spectral_projection(_W3, 0)
_SIGMA = gr.ModeOperator(_W3, 0.1 * np.eye(_W3.dim), gr.TAIL_ZERO)


@pytest.mark.parametrize(
    "measure",
    [
        lambda: report.zeta_det_error([]),
        lambda: report.model_identity_error([]),
        lambda: report.metric_patching_error([]),
        lambda: report.curvature_errors([])[0],
        lambda: report.curvature_errors([])[1],
        lambda: report.eta_offset_error([]),
        lambda: report.family_patching_error(_FAM, _FAM2, _PI0, []),
        lambda: report.chart_patching_error(_FAM, _PI0, _SIGMA, _SIGMA, []),
        lambda: report.connection_curvature_error(_FAM, _PI0, [], None),
        lambda: report.Routes([], []),
    ],
    ids=[
        "zeta-det",
        "model-identity",
        "metric-patching",
        "curvature-closed",
        "curvature-pdp",
        "eta-offset",
        "family-patching",
        "chart-patching",
        "connection-curvature",
        "empty-routes",
    ],
)
def test_a_measurement_with_no_samples_raises_domain_error(measure):
    # zeta_det_error and eta_offset_error raised numpy's zero-size ValueError,
    # the patching measurements a ValueError of np.concatenate
    with pytest.raises(DomainError):
        report.worst(measure())


def test_worst_of_no_routes_raises_domain_error():
    with pytest.raises(DomainError):
        report.worst()


@pytest.mark.parametrize("field", ["a", "b", "scale"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_sample_that_is_not_finite_fails_its_row(monkeypatch, field, bad):
    # one sample after the first of one route, or of the per-sample scale
    original = report.zeta_det_error

    def planted(points):
        routes = original(points)
        values = np.array(getattr(routes, field), dtype=float)
        values[3] = bad
        return dataclasses.replace(routes, **{field: values})

    monkeypatch.setattr(report, "zeta_det_error", planted)
    document = report.run_suite("cp1", 7)
    case = _case(document, "spectral vs closed determinant")
    assert case.status == "fail" and math.isnan(case.observed)
    assert [c.name for c in document.cases if c.status == "fail"] == [case.name]


# ---------------------------------------------------------------------------
# planted faults: perturb one route of an identity and the shared measurement
# and its suite case must report it


def _case(document, prefix):
    return next(c for c in document.cases if c.name.startswith(prefix))


def _plant(monkeypatch, module, name, perturb):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: perturb(original(*args), *args))


def test_failed_model_identity_is_reported_not_raised(monkeypatch, capsys):
    _plant(monkeypatch, cp1, "zeta_det_spectral", lambda det, z: det * (1 + 1e-6))
    document = report.run_suite("cp1", 7)
    assert _case(document, "spectral vs closed determinant").status == "fail"
    assert _case(document, "model identity det = 4 |S(P)|^2").status == "fail"
    assert _case(document, "metric patching ratio").status == "pass"
    assert cli.main(["verify", "cp1", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] model identity" in out and "[PASS] metric patching ratio" in out


def test_planted_fault_in_closed_determinant(monkeypatch):
    _plant(monkeypatch, cp1, "zeta_det_closed", lambda det, z: det * (1 + 1e-6))
    assert report.worst(report.zeta_det_error(report.chart_grid(-2, 2, 21))) > report.TOL_ZETA_DET
    assert _case(report.run_suite("cp1", 7), "spectral vs closed determinant").status == "fail"


def test_planted_fault_in_projection_curvature(monkeypatch):
    _plant(monkeypatch, cp1, "kahler_form_2x2", lambda k, z: k * (1 + 1e-3))
    fd_err, pdp_err = map(report.worst, report.curvature_errors(report.chart_grid(-0.5, 0.5, 5)))
    assert fd_err < report.TOL_CURVATURE < pdp_err
    document = report.run_suite("cp1", 7)
    assert _case(document, "curvature vs Tr(P dP dP)").status == "fail"
    assert _case(document, "curvature vs closed Kahler density").status == "pass"


def test_planted_fault_in_connection_curvature_density(monkeypatch):
    _plant(monkeypatch, gr, "tr_p_dp_dp", lambda density, fam, t: density + 0.01)
    w = gr.ModeWindow(6)
    fam, pi0 = gr.rotated_family(w, (-1, 0)), gr.spectral_projection(w, 0)
    error = report.worst(report.connection_curvature_error(fam, pi0, [(0.37, 0.63)], None))
    assert error > report.TOL_CONNECTION_CURVATURE
    document = report.run_suite("grassmannian", 7)
    assert _case(document, "curvature d omega matches Tr(P [d1 P, d2 P])").status == "fail"


def test_planted_fault_in_connection_form_fails_both_curvature_rows(monkeypatch):
    # curvature_rkw differentiates connection_form's values and tr_p_dp_dp
    # does not call it, so a fault in the connection form reaches only one
    # route of each curvature row
    _plant(monkeypatch, gr, "_connection_form", lambda omega, *args: omega * (1 + 1e-3))
    document = report.run_suite("grassmannian", 7)
    assert _case(document, "curvature d omega matches Tr(P [d1 P, d2 P])").status == "fail"
    assert _case(document, "curvature is chart independent (perturbed chart)").status == "fail"


def failing_rows(seed=7):
    return {c.name for c in report.run_suite("all", seed).cases if c.status != "pass"}


# the Grassmannian rows that set a stencil route against a declared one: a
# curvature_rkw stencil of declared connection forms against the declared
# density, the stencil of a transition ratio against declared forms, and
# the undeclared conjugate's stencil form against the declared form
STENCIL_AGAINST_DECLARED = {
    "curvature d omega matches Tr(P [d1 P, d2 P])",
    "curvature is chart independent (perturbed chart)",
    "patching of two perturbation charts of one family",
    "connection form is invariant under constant conjugation",
}


def test_planted_fault_in_the_stencil_weights_fails_the_rows_with_a_declared_route(monkeypatch):
    # first-derivative weights off by 1e-3: every row that sets a stencil
    # against a declared derivative fails, the Stokes row, both of whose
    # routes are declared, does not; the identity-chart patching row holds
    # by symmetry (both sides vanish on rotated families)
    first = tuple((k, w * (1 + 1e-3)) for k, w in specfun._WEIGHTS["first-derivative"])
    monkeypatch.setitem(specfun._WEIGHTS, "first-derivative", first)
    assert failing_rows() == STENCIL_AGAINST_DECLARED


def test_planted_fault_in_the_declared_derivative_fails_the_rows_that_read_it(monkeypatch):
    # every rotated family's declared derivative off by 1e-3: the Stokes
    # row, whose boundary integral of declared forms meets an area of the
    # declared density scaled twice, fails too
    rotated = gr.rotated_family

    def planted(*args):
        fam = rotated(*args)
        declared = fam._declaration

        def derivative(t1, t2, axis):
            return declared.derivative(t1, t2, axis) * (1 + 1e-3)

        fam._declaration = gr._Declaration(declared.support, declared.block, derivative)
        return fam

    monkeypatch.setattr(gr, "rotated_family", planted)
    stokes = "Stokes: boundary integral of omega equals the curvature integral"
    assert failing_rows() == STENCIL_AGAINST_DECLARED | {stokes}


def test_planted_fault_in_ratio_determinants_fails_transitivity(monkeypatch):
    # a determinant that is not multiplicative, used consistently by ratio:
    # ratio(a, b) ratio(b, c) and ratio(a, c) are then quotients of the same
    # faulty determinants and agree, while det_F(a c^-1) does not
    _plant(
        monkeypatch,
        det_line,
        "fredholm_det",
        lambda d, t: d * (1 + 1e-6 * abs(t.entries[..., 0, 0])),
    )
    rng = np.random.default_rng(2)
    w = gr.ModeWindow(3)
    a, b, c = (report.random_det_class(rng, w) for _ in range(3))
    assert report.worst(report.transitivity_error(a, b, c)) > report.TOL_DET_LINE
    document = report.run_suite("detline", 7)
    assert _case(document, "ratio transitivity on random triples").status == "fail"


def test_planted_fault_in_chart_ratio_determinants_fails_the_cocycle(monkeypatch):
    # a determinant off by a constant factor on the r x r chart blocks (r = 7
    # on the suite's ModeWindow(6), whose d x d blocks are 13 x 13 and up),
    # in every stack of them: quotients det(A_1) / det(A_2) would cancel it
    # around the triple overlap, the products det(A_1 A_2^{-1}) of the chart
    # ratio do not, and the logarithmic derivatives of the patching cases do
    # not see it
    _plant(
        monkeypatch,
        np.linalg,
        "det",
        lambda d, m: d * (1 + 1e-6) if np.shape(m)[-2:] == (7, 7) else d,
    )
    rng = np.random.default_rng(3)
    w = gr.ModeWindow(6)
    fam, pi0 = gr.rotated_family(w, (-1, 0)), gr.spectral_projection(w, 0)
    sigmas = [
        gr.ModeOperator(w, 0.25 * report.random_window_unitary(rng, w.dim), gr.TAIL_ZERO)
        for _ in range(3)
    ]
    assert report.worst(report.cocycle_error(fam, pi0, (0.44, 0.31), *sigmas)) > report.TOL_COCYCLE
    document = report.run_suite("grassmannian", 7)
    assert [c.name for c in document.cases if c.status == "fail"] == [
        "triple overlap cocycle of transition determinants"
    ]


@pytest.mark.parametrize(
    "module, name, is_refused_input, suite, case",
    [
        (
            cp1,
            "alpha_of",
            lambda z: np.ndim(z) == 0 and z == -1,
            "cp1",
            "zero mode at z=-1 is detected",
        ),
        (
            det_line,
            "ratio",
            lambda a, b: np.any(b.is_zero),
            "detline",
            "singular representative yields the zero point",
        ),
    ],
    ids=["alpha_of-accepts-the-zero-mode", "ratio-accepts-the-zero-point"],
)
def test_planted_fault_in_a_refusal_fails_its_case(
    monkeypatch, module, name, is_refused_input, suite, case
):
    # the route returns a value where it must raise; only that row may fail
    original = getattr(module, name)

    def planted(*args):
        return 0.5 if is_refused_input(*args) else original(*args)

    monkeypatch.setattr(module, name, planted)
    document = report.run_suite(suite, 7)
    assert [c.name for c in document.cases if c.status == "fail"] == [case]
    assert "no error" in _case(document, case).observed


def test_planted_fault_in_pushforward_coefficient(monkeypatch):
    _plant(
        monkeypatch,
        chern_series,
        "grr_c1_coefficient",
        lambda c, m: c + Fraction(1, 10**9) if m == 3 else c,
    )
    assert not report.grr_coefficient_exact(range(-10, 11))
    assert report.grr_coefficient_exact(range(-10, 3))
    assert _case(report.run_suite("chern", 7), "degree-two pushforward coefficient").status == "fail"


def test_planted_nan_relative_eta_fails_its_cases(monkeypatch):
    # a running max started at 0.0 kept 0.0 against every NaN sample
    _plant(monkeypatch, gr, "relative_eta", lambda eta, p, q: math.nan)
    cut_routes = report.spectral_cut_errors(gr.ModeWindow(6))
    assert all(math.isnan(report.worst(routes)) for routes in cut_routes)
    document = report.run_suite("grassmannian", 7)
    for case in (
        "relative eta of spectral cuts equals -2k",
        "relative eta / 2 equals the relative index",
        "relative eta antisymmetry and additivity",
        "relative eta / 2 is an integer",
    ):
        assert _case(document, case).status == "fail"


def test_planted_nan_in_one_eta_flip_sample_fails_its_case(monkeypatch):
    # max over a generator dropped a NaN that was not the first sample
    original = gr.eta_finite_rank_check
    calls = []

    def planted(*args):
        calls.append(args)
        lhs, rhs = original(*args)
        return (math.nan if len(calls) == 5 else lhs), rhs

    monkeypatch.setattr(gr, "eta_finite_rank_check", planted)
    flips = report.eta_flip_error(np.random.default_rng(1), gr.ModeWindow(6))
    assert math.isnan(report.worst(flips))
    assert len(calls) == 20
    calls.clear()
    document = report.run_suite("grassmannian", 7)
    assert _case(document, "finite-rank eta perturbation").status == "fail"
    assert [c.name for c in document.cases if c.status == "fail"] == [
        "finite-rank eta perturbation, 20 random (a, flip) pairs"
    ]


def test_detline_suite_stacks_its_random_instances(monkeypatch):
    # the random-instance rows run each det_line step once on a stack: at the
    # one-instance-at-a-time suite the detline suite made 1,726 LAPACK calls
    # (812 svd, 794 det, 100 qr, 20 solve) and 972 ModeOperator constructions;
    # det_point settles its zero test by slogdet and decomposes only the
    # members the slogdet bound leaves open
    calls, constructions = [], []

    def counted(name, inner):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return inner(a, *args, **kwargs)

        return call

    for name in ("svd", "det", "slogdet", "qr", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    post_init = gr.ModeOperator.__post_init__

    def counted_post_init(op):
        constructions.append(np.shape(op.entries))
        post_init(op)

    monkeypatch.setattr(gr.ModeOperator, "__post_init__", counted_post_init)
    document = report.run_suite("detline", 7)
    assert document.n_fail == 0
    assert len(calls) <= 60, calls
    assert len(constructions) <= 150
    # the multiplicativity row alone: 100 instances in each stacked call, and
    # every one of its points certified without an SVD
    assert ("slogdet", (100, 7, 7)) in calls and ("det", (100, 7, 7)) in calls
    assert ("svd", (100, 7, 7)) not in calls


def test_grassmannian_suite_stacks_its_sample_loops(monkeypatch):
    # the Stokes pair, the two patching rows, the curvature rows and the eta
    # offset and antisymmetry rows call the chart layer and the Hurwitz
    # kernel once per direction or row on arrays of points: one sample at a
    # time, run_suite("grassmannian", 7) made 482 LAPACK calls (240 svd,
    # 80 det, 73 solve, 47 eigh, 42 qr) and 134 Euler-Maclaurin evaluations;
    # 188 with stacked points, when every chart guard took an SVD, 172
    # when every chart base took an eigh and every window rank an SVD, and
    # 136 when every connection form and transition ratio took a thin QR of
    # a chart map
    calls, evaluations = [], []

    def counted(name, inner):
        def call(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return inner(a, *args, **kwargs)

        return call

    for name in ("svd", "eigh", "qr", "inv", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    kernel = gr._hurwitz_em

    def counted_kernel(s, a):
        evaluations.append(np.shape(a))
        return kernel(s, a)

    monkeypatch.setattr(gr, "_hurwitz_em", counted_kernel)
    document = report.run_suite("grassmannian", 7)
    assert document.n_fail == 0
    assert len(calls) <= 93, calls
    # the one eigh is the conjugated base's: the spectral-cut bases select
    # coordinate columns
    assert [c for c in calls if c[0] == "eigh"] == [("eigh", (13, 13))]
    # no SVD: every chart guard is settled by a certified inverse (no SVD of a
    # thin 13 x 7 chart map or of an r x r = 7 x 7 chart block, at a point or
    # on a stack), and the window ranks of the spectral cuts count ones
    assert [c for c in calls if c[0] == "svd"] == []
    # offsets (19 and 1 - a), antisymmetry (4 and 1 - a, both ways), and one
    # per finite-rank flip
    assert sorted(evaluations) == sorted([(38,), (16,)] + [(2,)] * 20)
    # no QR of a chart map: every connection form and transition ratio
    # solves against the r x r blocks Y S V of its chart maps, Y = V* P; the
    # QRs left draw the suite's nine random 13 x 13 unitaries
    assert [c for c in calls if c[0] == "qr"] == [("qr", (13, 13))] * 9
    # the Stokes edges: 2 x 8 Gauss-Legendre nodes in t1, 2 x 4 trapezoid nodes in t2
    assert calls.count(("inv", (16, 7, 7))) == calls.count(("inv", (8, 7, 7))) == 1
    # the patching rows: 4 identity-chart points, 3 perturbation-chart points
    assert ("det", (4, 7, 7)) in calls and ("inv", (2, 3, 7, 7)) in calls
