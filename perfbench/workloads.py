"""The three benchmark workloads.

Each workload turns the workload seed into a fixed pool of inputs, runs one
op per call through a public detline entry point, and checks the op's output
outside the timed region.  ``ref_parts`` names the reference-kernel parts
whose summed time its ops are divided by.  Ops cycle through the pool, so
every full pass sees the same inputs and the per-input results (call
counts, errors) repeat exactly at one seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from detline import cli, grassmannian as gr

# Tolerances of the acceptance tests and the verification suites.
GRID_TOL = 1e-4  # curvature FD vs Kahler density, and vs Tr(P dP dP)
CURVATURE_TOL = 1e-3  # d omega vs Tr(P [d1 P, d2 P])
PATCHING_TOL = 1e-5  # perturbation-chart patching identity
EXCLUSION_RADIUS = 0.2  # skip disk of the curvature grid around z = -1


@dataclass
class Outcome:
    """What an op's check found."""

    ok: bool
    margin: float | None = None  # log10(tolerance / worst error); None if no error > 0
    bytes_written: int = 0
    grid_rows: int = 0
    grid_skipped: int = 0


def _margin(pairs) -> float | None:
    """min over (tolerance, error) of log10(tolerance / error), ignoring exact zeros."""
    digits = [math.log10(tol / err) for tol, err in pairs if err > 0.0]
    return min(digits) if digits else None


class VerifyAll:
    """``detline verify all --seed s --json PATH`` for suite seeds drawn from the seed."""

    name = "verify-all"
    ref_parts = ("small_numpy",)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        pool = 1 if tiny else 4
        self.pool = [int(s) for s in rng.integers(0, 2**31, size=pool)]
        self.path = os.path.join(workdir, "verify.json")

    def call(self, i: int):
        if os.path.exists(self.path):
            os.unlink(self.path)
        argv = ["verify", "all", "--seed", str(self.pool[i]), "--json", self.path]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, i: int, code) -> Outcome:
        with open(self.path) as handle:
            doc = json.load(handle)
        size = os.path.getsize(self.path)
        summary = doc["summary"]
        ok = (
            code == 0
            and doc["schema"] == "detline-lab/1"
            and doc["suite"] == "all"
            and doc["seed"] == self.pool[i]
            and summary["n_cases"] == len(doc["cases"]) > 0
            and summary["n_fail"] == 0
        )
        pairs = [
            (c["tolerance"], abs(c["observed"] - c["expected"]))
            for c in doc["cases"]
            if isinstance(c["tolerance"], float) and isinstance(c["observed"], float)
        ]
        return Outcome(ok, _margin(pairs), bytes_written=size)


class CurvatureGrid:
    """``detline curvature-grid`` on seeded rectangles, alternating CSV and JSON.

    Every fourth rectangle is placed over the exclusion disk at z = -1, so
    the skip path runs on every seed.  The others are uniform in
    [-1.5, 1.5]^2 and redrawn until they clear the disk, so they all cost
    the same 100 points: the median op is a full-cost op whatever the seed.
    """

    name = "curvature-grid"
    ref_parts = ("python", "small_numpy")

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        self.n = 3 if tiny else 10
        self.pool = []
        for k in range(2 if tiny else 16):
            w, h = rng.uniform(0.3, 1.0, size=2)
            if k % 4 == 0:
                r, phi = EXCLUSION_RADIUS * rng.uniform(), 2 * math.pi * rng.uniform()
                cx, cy = -1.0 + r * math.cos(phi), r * math.sin(phi)
                re_lo = min(max(cx - w * rng.uniform(), -1.5), 1.5 - w)
                im_lo = min(max(cy - h * rng.uniform(), -1.5), 1.5 - h)
            else:
                while True:
                    re_lo, im_lo = rng.uniform(-1.5, 1.5 - w), rng.uniform(-1.5, 1.5 - h)
                    dx = max(re_lo + 1.0, 0.0, -1.0 - (re_lo + w))
                    dy = max(im_lo, 0.0, -(im_lo + h))
                    if math.hypot(dx, dy) >= EXCLUSION_RADIUS:
                        break
            self.pool.append((float(re_lo), float(re_lo + w), float(im_lo), float(im_lo + h)))
        self.workdir = workdir

    def _output(self, i: int) -> tuple[str, str]:
        fmt = "csv" if i % 2 == 0 else "json"
        return fmt, os.path.join(self.workdir, "grid." + fmt)

    def call(self, i: int):
        re_lo, re_hi, im_lo, im_hi = self.pool[i]
        fmt, path = self._output(i)
        if os.path.exists(path):
            os.unlink(path)
        argv = [
            "curvature-grid",
            "--re", f"{re_lo!r}:{re_hi!r}",
            "--im", f"{im_lo!r}:{im_hi!r}",
            "--n", str(self.n),
            "--" + fmt, path,
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, i: int, raw) -> Outcome:
        code, stdout = raw
        summary = json.loads(stdout)["summary"]
        fmt, path = self._output(i)
        with open(path) as handle:
            if fmt == "csv":
                rows = list(csv.DictReader(handle))
            else:
                doc = json.load(handle)
                rows = doc["rows"]
                if doc["schema"] != "detline-lab/1" or doc["summary"] != summary:
                    return Outcome(False)
        size = os.path.getsize(path)
        worst_fd = worst_pdp = 0.0
        skip_ok = True
        n_skip = 0
        for row in rows:
            z = complex(float(row["re"]), float(row["im"]))
            skipped = row["status"] == "skip"
            n_skip += skipped
            if abs(z + 1.0) < EXCLUSION_RADIUS:
                skip_ok &= skipped
                continue
            if skipped:
                skip_ok = False
                continue
            k_fd, k_closed, k_pdp = (float(row[k]) for k in ("k_fd", "k_closed", "k_pdpdp"))
            if not math.isfinite(k_fd + k_pdp) or abs(k_closed - 1.0 / (1.0 + abs(z) ** 2) ** 2) > 1e-12:
                skip_ok = False
                continue
            worst_fd = max(worst_fd, abs(k_fd - k_closed) / k_closed)
            worst_pdp = max(worst_pdp, abs(k_fd - k_pdp))
        ok = (
            code == 0
            and skip_ok
            and len(rows) == summary["n_rows"] == self.n**2
            and n_skip == summary["n_skipped"]
            and worst_fd < GRID_TOL
            and worst_pdp < GRID_TOL
        )
        # The margin uses the absolute error only.  The relative error's worst
        # case is rounding noise divided by k ~ 0.03 at the corners of the
        # square; over 12 seeds its margin had an IQR of 9% of the median,
        # the absolute error's 3%.  Both errors still decide ok.
        return Outcome(ok, _margin([(GRID_TOL, worst_pdp)]), size, len(rows), n_skip)


class GrassmannianWindow:
    """Curvature and chart patching of a seeded rotated family on a large window."""

    name = "grassmannian-window"
    ref_parts = ("dense",)

    def __init__(self, seed: int, tiny: bool, workdir: str):
        rng = np.random.default_rng(seed)
        w = gr.ModeWindow(6 if tiny else 100)
        self.base = gr.spectral_projection(w, 0)
        scale = 0.25 / math.sqrt(2 * w.dim)  # keeps ||sigma|| near 1/2: charts stay invertible

        def sigma() -> gr.ModeOperator:
            m = rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))
            return gr.ModeOperator(w, scale * m, gr.TAIL_ZERO)

        self.pool = []
        for k in range(1 if tiny else 4):
            modes = (-int(rng.integers(1, w.n_max + 1)), int(rng.integers(0, w.n_max + 1)))
            t = (float(rng.uniform(0.2, 0.6)), float(rng.uniform(0.0, 1.0)))
            direction = "t1" if k % 2 == 0 else "t2"
            self.pool.append((gr.rotated_family(w, modes), t, sigma(), sigma(), direction))

    def call(self, i: int):
        fam, t, s1, s2, direction = self.pool[i]
        d_omega = gr.curvature_rkw(fam, self.base, t)
        density = gr.tr_p_dp_dp(fam, t)
        lhs, rhs = gr.perturbation_patching_check(fam, self.base, s1, s2, t, direction)
        return d_omega, density, lhs, rhs

    def check(self, i: int, raw) -> Outcome:
        d_omega, density, lhs, rhs = raw
        err_curv, err_patch = abs(d_omega - density), abs(lhs - rhs)
        ok = err_curv < CURVATURE_TOL and err_patch < PATCHING_TOL
        return Outcome(ok, _margin([(CURVATURE_TOL, err_curv), (PATCHING_TOL, err_patch)]))


WORKLOADS = {cls.name: cls for cls in (VerifyAll, CurvatureGrid, GrassmannianWindow)}
