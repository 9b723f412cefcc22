"""The memory-damped fixed point, step by step.

The density obeys  dp/dt = sigma Lap p - gamma * A(t,x) * p  where
A(t,x) = int_0^t ptilde(s,x) ds  is built from the solution's own past.
The driver freezes A from the previous iterate, solves the resulting
linear problem, and repeats, window by window; A does not depend on v,
so the iterates are marginals, marched on the position lattice, and each
window marches the density once at the end.  This script prints the
contraction at work.
Run as ``python3 demos/pure_fixed_point.py``.
"""

import numpy as np

from angiosolve import (GridSpec, ModelParams, PhaseField, Schedule,
                        integrate_phase, picard_pure, velocity_marginal)
from angiosolve.picard import summarise_iterates


def main():
    # 128 points per axis: on 64 the product of the damping coefficient
    # and the bump aliases past Nyquist at ~1e-11 of the sup, beyond the
    # round-off the per-step positivity floor may absorb
    g = GridSpec(dim_x=1, dim_v=1, n_x=128, n_v=128,
                 half_width_x=8.0, half_width_v=8.0)
    x, v = g.x_coords(), g.v_coords()
    vals = np.multiply.outer(np.exp(-(x + 1.0) ** 2), np.exp(-(v - 1.3) ** 2))
    p0 = PhaseField(g, vals / vals.sum() / g.cell_volume, nonnegative=True)

    params = ModelParams(sigma=0.05, d=0.05, gamma=4.0, eta=1.0,
                         alpha1=0.0, c_R=1.0, epsilon=0.25, v0=(1.3,))
    sched = Schedule(t_end=0.5, dt=0.005, save_stride=20)
    traj, diag = picard_pure(p0, params, sched)

    print(f"gamma = {params.gamma}: strong memory damping")
    print(f"time axis iterated on {summarise_iterates(diag.k_per_slab)}")
    print("(windows of at most two steps, inside slabs short enough that")
    print(" freezing the memory coefficient is a contraction; each window")
    print(" restarts from the previous one's converged state, carries its")
    print(" accumulated integral and is seeded by the quadratic continuation")
    print(" of the converged marginal)\n")

    print("first window (no history to seed from): iterate-to-iterate sup")
    print("deviations of the marginal")
    for k, d in enumerate(diag.deltas_p[0], start=2):
        print(f"  iterate {k}: {d:.3e}")
    seeded = [deltas[-1] for deltas in diag.deltas_p[1:]]
    print(f"seeded windows: largest final deviation {max(seeded):.3e}")
    print(f"converged: {diag.converged} after {diag.iterations} iterates "
          f"({diag.x_step_solves} position-lattice and "
          f"{diag.phase_step_solves} phase-lattice steps)\n")

    print("the converged run, with its memory coefficient:")
    for t, f, a in zip(traj.times, traj.fields, traj.aux["a"]):
        pt = velocity_marginal(f)
        print(f"  t = {t:4.2f}  mass {integrate_phase(f):.6f}  "
              f"sup ptilde {float(pt.values.max()):.4f}  "
              f"sup A {float(a.max()):.4f}")
    print("\nmass only ever decreases and the accumulated integral A grows")
    print("monotonically: the memory term is a pure death term.")


if __name__ == "__main__":
    main()
