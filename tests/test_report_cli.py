"""Report schema, determinism, grid emission, CLI behavior, and planted
faults in the shared measurements."""

import csv
import json
import math
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from detline import chern_series, cli, det_line, report
from detline import grassmannian as gr
from detline import interval_cp1 as cp1
from detline.errors import DomainError
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


@pytest.mark.parametrize("seed", [7, 0, 12345])
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
    rows, summary = report._grid_rows(spec)
    for row in rows:
        inside = abs(complex(row["re"], row["im"]) + 1) < cp1.EXCLUSION_RADIUS
        assert (row["status"] == "skip") == inside
    assert summary["max_rel_err_fd"] < report.TOL_CURVATURE


def test_curvature_grid_masks_points_the_stencil_cannot_resolve():
    # with a small exclusion disk the rows the stencil cannot resolve near
    # z = -1 are skipped by the same predicate that makes
    # quillen_curvature_fd raise; every other row stays within tolerance
    spec = report.GridSpec(-1.1, -0.9, -0.1, 0.1, 21, exclusion=((-1.0 + 0j, 0.005),))
    rows, summary = report._grid_rows(spec)
    for row in rows:
        z = complex(row["re"], row["im"])
        refused = spec.excluded(z) or cp1.curvature_fd_unresolved(z)
        assert (row["status"] == "skip") == refused
    assert 0 < summary["n_skipped"] < len(rows)
    assert summary["max_rel_err_fd"] < report.TOL_CURVATURE
    assert summary["max_rel_err_pdpdp"] < 1e-12


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
    ):
        with pytest.raises(DomainError):
            report.GridSpec(**spec)
    assert type(report.GridSpec(n=np.int64(3)).n) is int
    for bounds in (
        {"re_min": 0.5, "re_max": -0.5},
        {"re_min": 0.5, "re_max": 0.5},
        {"im_min": 0.5, "im_max": -0.5},
        {"im_min": math.nan},
        {"im_max": math.nan},
        {"re_max": math.inf},
        {"re_min": -math.inf},
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


def test_cli_zeta_det_at_a_large_chart_point(capsys):
    # 1 + |z|^2 overflowed above |z| = 1.3e154 and "closed" printed NaN
    assert cli.main(["zeta-det", "--z", "1e160,0"]) == 0
    record = strict_json(capsys.readouterr().out)
    assert record["closed"] == 2.0
    assert record["spectral"] == pytest.approx(2.0, rel=1e-12)


def test_cli_grid_refuses_points_where_the_density_underflows(tmp_path, capsys):
    # the grid wrote "status": "ok" rows holding NaN relative errors and
    # exited 0; below the underflow its JSON holds numbers only
    path = tmp_path / "grid.json"
    args = ["curvature-grid", "--im", "0:1", "--n", "2", "--json", str(path)]
    assert cli.main([*args[:1], "--re", "1e160:2e160", *args[1:]]) == 1
    assert "error: DomainError: the curvature density underflows" in capsys.readouterr().err
    assert not path.exists()
    assert cli.main([*args[:1], "--re", "1e70:2e70", *args[1:]]) == 0
    rows = strict_json(path.read_text())["rows"]
    assert [row["status"] for row in rows] == ["ok"] * 4
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


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "detline.cli", "grr", "--m", "0"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["c1_coefficient"] == "1/12"


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
    assert report.zeta_det_error(report.chart_grid(-2, 2, 21)) > report.TOL_ZETA_DET
    assert _case(report.run_suite("cp1", 7), "spectral vs closed determinant").status == "fail"


def test_planted_fault_in_projection_curvature(monkeypatch):
    _plant(monkeypatch, cp1, "kahler_form_2x2", lambda k, z: k * (1 + 1e-3))
    fd_err, pdp_err = report.curvature_errors(report.chart_grid(-0.5, 0.5, 5))
    assert fd_err < report.TOL_CURVATURE < pdp_err
    document = report.run_suite("cp1", 7)
    assert _case(document, "curvature vs Tr(P dP dP)").status == "fail"
    assert _case(document, "curvature vs closed Kahler density").status == "pass"


def test_planted_fault_in_connection_curvature_density(monkeypatch):
    _plant(monkeypatch, gr, "tr_p_dp_dp", lambda density, fam, t: density + 0.01)
    w = gr.ModeWindow(6)
    fam, pi0 = gr.rotated_family(w, (-1, 0)), gr.spectral_projection(w, 0)
    error = report.connection_curvature_error(fam, pi0, [(0.37, 0.63)], None)
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
    assert report.transitivity_error(a, b, c) > report.TOL_DET_LINE
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
    assert report.cocycle_error(fam, pi0, (0.44, 0.31), *sigmas) > report.TOL_COCYCLE
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
    assert all(math.isnan(err) for err in report.spectral_cut_errors(gr.ModeWindow(6)))
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
    assert math.isnan(report.eta_flip_error(np.random.default_rng(1), gr.ModeWindow(6)))
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
    # 80 det, 73 solve, 47 eigh, 42 qr) and 134 Euler-Maclaurin evaluations
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
    assert len(calls) <= 190, calls
    # offsets (19 and 1 - a), antisymmetry (4 and 1 - a, both ways), and one
    # per finite-rank flip
    assert sorted(evaluations) == sorted([(38,), (16,)] + [(2,)] * 20)
    # the Stokes edges: 2 x 8 Gauss-Legendre nodes in t1, 2 x 4 trapezoid nodes in t2
    assert calls.count(("svd", (16, 13, 7))) == calls.count(("svd", (8, 13, 7))) == 1
    # the patching rows: 4 identity-chart points, 3 perturbation-chart points
    assert ("det", (4, 7, 7)) in calls and ("qr", (3, 13, 7)) in calls
