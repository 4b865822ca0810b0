"""Domain, eigenbasis and transforms.

Builds a small anisotropic box, inspects the eigenvalue ladder of the
dissipation operator, and demonstrates that the collocation transforms are
exact inverses with Parseval-consistent norms.
"""

import numpy as np

from stochpe import (
    DomainSpec,
    Grid,
    apply_A_power,
    build_basis,
    complement_q,
    norms,
    project_n,
    random_state,
    to_physical,
    to_spectral,
)
from stochpe.spectral import h_norm_sq, v_norm_sq

spec = DomainSpec(L1=2 * np.pi, L2=4.0, h=1.5, N1=4, N2=3, M=3, mu=0.7, nu=0.3)
grid = Grid(spec)

basis = build_basis(spec)
print(f"{len(basis)} eigenmodes; five smallest eigenvalues:")
for b in basis[:5]:
    print(f"  ({b.kx:+d},{b.ky:+d},m={b.m}) {b.field:>2}: lambda = {b.lam:.4f}")

rng = np.random.default_rng(0)
state = random_state(grid, rng)

fields = to_physical(state)
back = to_spectral(fields)
print("\nround-trip max error:", np.abs(back.coeffs - state.coeffs).max())

quad = sum(np.sum(f**2) * grid.quad_weight() for f in (fields.v1, fields.v2, fields.T))
print("Parseval: grid L2^2 =", quad, " spectral H^2 =", h_norm_sq(state))

half = apply_A_power(state, 0.5)
print("\n|A^(1/2) U|_H == ||U||_V:", np.isclose(h_norm_sq(half), v_norm_sq(state)))

n = 40
low = project_n(state, n)
high = complement_q(state, n)
print(f"P_{n} + Q_{n} = identity:", np.array_equal(low.coeffs + high.coeffs, state.coeffs))
lam_n = grid.lam_sorted[n - 1]
print(
    f"tail inequality |Q_n U|_H <= lambda_n^-1/2 ||Q_n U||_V: "
    f"{np.sqrt(h_norm_sq(high)):.4f} <= {lam_n**-0.5 * np.sqrt(v_norm_sq(high)):.4f}"
)

print("\nnorm bundle:", norms(state))
