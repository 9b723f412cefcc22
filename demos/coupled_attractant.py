"""The full two-field system: tips produce where the attractant sits.

Density p(t,x,v) gains mass at rate alpha(c) * rho(v) wherever the
attractant concentration c(t,x) is high, while c is consumed at rate
eta * j with j the local speed moment of p.  The concentration splits as
c = c_free + c_hat where c_free is the plain heat evolution of c0 and
c_hat <= 0 carries the consumption.  Run as
``python3 demos/coupled_attractant.py``.
"""

import numpy as np

from angiosolve import (GridSpec, HeatPlan, ModelParams, PhaseField, Schedule,
                        build_initial_c, integrate_phase, picard_coupled,
                        speed_moment)
from angiosolve.picard import summarise_iterates


def main():
    # 128 points per axis: on 64 the product of the damping coefficient
    # and the bump aliases past Nyquist at ~1e-11 of the sup, beyond the
    # round-off the per-step positivity floor may absorb
    g = GridSpec(dim_x=1, dim_v=1, n_x=128, n_v=128,
                 half_width_x=8.0, half_width_v=8.0)
    x, v = g.x_coords(), g.v_coords()
    p_vals = np.multiply.outer(np.exp(-(x + 2.0) ** 2),
                               np.exp(-(v - 1.3) ** 2 / 0.8))
    p0 = PhaseField(g, p_vals / p_vals.sum() / g.cell_volume, nonnegative=True)
    # attractant plateau to the right of the density; the recipe helper
    # periodizes the ramp so the box seam stays smooth under the heat flow
    c0 = build_initial_c(g, {"recipe": "plateau_ramp", "k_inf": 1.0,
                             "edge_lo": -1.0, "edge_hi": 5.0, "width": 1.6})

    params = ModelParams(sigma=0.05, d=0.05, gamma=1.0, eta=2.0,
                         alpha1=0.8, c_R=1.0, epsilon=0.5, v0=(1.3,))
    sched = Schedule(t_end=0.6, dt=0.005, save_stride=24)
    p_traj, c_traj, diag = picard_coupled(p0, c0, params, sched)
    print(f"converged: {diag.converged} after {diag.iterations} sweeps over "
          f"{summarise_iterates(diag.k_per_slab)}\n")

    # the correction c_hat = c - c_free, with c_free the heat flow of c0
    c_free = HeatPlan(g, params.d, "x").apply_each(c0.values, c_traj.times, "spatial")
    chat = [cf.values - free for cf, free in zip(c_traj.fields, c_free)]
    print("   t     mass p   sup j     sup c     min c_hat")
    for k, t in enumerate(c_traj.times):
        j = speed_moment(p_traj.fields[k])
        print(f"  {t:4.2f}  {integrate_phase(p_traj.fields[k]):8.5f}"
              f"  {float(j.values.max()):8.5f}"
              f"  {float(c_traj.fields[k].values.max()):8.5f}"
              f"  {float(chat[k].min()):10.3e}")

    print("\nthe production term grows the tip mass, consumption carves the")
    print("plateau down, and the correction c_hat stays nonpositive: the")
    print("concentration can never exceed the heat flow of its initial data.")

    c_last = c_traj.fields[-1].values
    print(f"\nwindow check at t = {c_traj.times[-1]:.2f}: "
          f"0 <= min c = {float(c_last.min()):.3e}, "
          f"max c = {float(c_last.max()):.5f} <= sup c0 = "
          f"{float(c0.values.max()):.5f}")


if __name__ == "__main__":
    main()
