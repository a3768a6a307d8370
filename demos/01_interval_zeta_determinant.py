"""Tour of the interval model.

The operator i d/dx on [0, 2 pi] admits a projective line of boundary
conditions: the chart point z pins the Cauchy data (psi(0), psi(2pi)) to the
orthogonal complement of the line spanned by (1, z).  Everything spectral is
exactly solvable, which makes the model a complete desk check for the zeta
determinant, the Quillen metric, and its curvature.

Run:  python demos/01_interval_zeta_determinant.py
"""

import numpy as np

from detline import interval_cp1 as cp1

# 1. Boundary conditions are rank-one projections on the Cauchy data plane.
for z in (0j, 1 + 0j, 1j):
    p = cp1.projection_from_chart(z)
    print(f"P_{z} =\n{np.round(p.entries, 6)}")

# 2. Each chart point carries a spectral offset alpha: the Laplacian boundary
#    problem has eigenvalues (n + alpha)^2 over the integers.
for z in (0j, 1 + 0j, 0.5 + 0.5j):
    datum = cp1.alpha_of(z)
    print(f"z = {z}:  alpha = {datum.alpha:.6f}")

# 3. The zeta determinant has the closed form 2|1+z|^2/(1+|z|^2), and the
#    Hurwitz-zeta pipeline reproduces it to twelve digits.
print("\n z            closed        spectral      |difference|")
for z in (0j, 1 + 0j, 1j, 0.3 - 0.7j):
    closed = cp1.zeta_det_closed(z)
    spectral = cp1.zeta_det_spectral(z)
    print(f"{z!s:12}  {closed:.10f}  {spectral:.10f}  {abs(closed - spectral):.2e}")

# 4. The curvature of the zeta metric is the Fubini-Study density: a second
#    derivative of log det recovers 1/(1+|z|^2)^2, and so does the purely
#    boundary-side expression Tr(P dP dP).  The second derivative is the
#    library's one order-4 Laplacian stencil, at the fixed step 1e-3.
print("\n z            FD curvature   Tr(P dP dP)    closed form")
for z in (0j, 1 + 0j, 0.4 + 0.2j):
    fd = cp1.quillen_curvature_fd(z)
    pdp = cp1.kahler_form_2x2(z)
    closed = 1.0 / (1.0 + abs(z) ** 2) ** 2
    print(f"{z!s:12}  {fd:.8f}     {pdp:.8f}     {closed:.8f}")

# 5. The Calderon projection (Cauchy data of solutions) sits at chart point 1,
#    and the one-dimensional Fredholm family S(P_z) mediates the metric:
#    det_zeta = 4 |S(P_z)|^2 at every chart point.
print(f"\nCalderon projection =\n{cp1.calderon_projection_interval().entries.real}")
for z in (0j, 1j, 2 - 1j):
    det = cp1.zeta_det_spectral(z)
    s_val = cp1.s_of_p(z)
    print(f"z = {z}:  det = {det:.8f},  4|S(P)|^2 = {4 * abs(s_val) ** 2:.8f}")

# 6. Ratios of determinants therefore equal ratios of |S(P)|^2: the metric
#    patching identity across charts.
lhs, rhs = cp1.metric_patching_check(0j, 1 + 0j)
print(f"\npatching at (0, 1): det ratio = {lhs:.10f}, |S|^2 ratio = {rhs:.10f}")
