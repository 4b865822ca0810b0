"""One trajectory of the modified equation with full instrumentation.

Integrates with transport noise, prints the evolution of the monitored
functionals and the first-hitting times of the configured stopping levels.
"""

from stochpe import DomainSpec, Grid
from stochpe.diagnostics import blowup_functional
from stochpe.noise import example1_noise
from stochpe.solver import InitSpec, SolverConfig, run_trajectory

grid = Grid(DomainSpec(N1=4, N2=4, M=4))
noise = example1_noise(grid, K=4, amp_phi=0.05, amp_psi=0.05, amp_chi=0.2, osc=1)

cfg = SolverConfig(
    grid=grid,
    noise=noise,
    init=InitSpec(kind="random", seed=42, amplitude=0.8),
    equation="modified",
    kappa_cutoff=None,  # auto: half the initial V-norm
    dt=1 / 128,
    t_end=1.0,
    store_stride=16,
    seed=2024,
    stopping_levels={"weak": 2.0, "vtilde_l6": 0.05, "dz_v": 1.0, "temperature": 0.5},
    blowup_levels=(50.0,),
)

traj = run_trajectory(cfg)
print(f"cutoff radius kappa = {traj.kappa:.4f}")
print(f"{'t':>6} {'||U||^2':>10} {'|AU|^2':>10} {'theta':>7} {'dist':>8} {'|vt|_L6^6':>11}")
for rec in traj.records:
    print(
        f"{rec['t']:6.3f} {rec['V_sq']:10.4f} {rec['DA_sq']:10.4f} {rec['theta_value']:7.3f} "
        f"{rec['dist_to_Ustar']:8.4f} {rec['L6_vtilde_6']:11.5f}"
    )

print("\nfirst-hitting times:")
for name, t_hit in sorted(traj.hits.items()):
    print(f"  {name:<14} {'-' if t_hit is None else f'{t_hit:.4f}'}")

value, aborted, consistent = blowup_functional(traj)
print(f"\nblow-up functional sup||U||^2 + int|AU|^2 = {value:.4f} "
      f"(aborted={aborted}, consistent={consistent})")
