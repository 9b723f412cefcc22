"""Tour of the linear stepper and its two independent referees.

Runs the splitting solver on a damped diffusion problem, then checks it
against (a) the trapezoid mild-solution sweep on the same schedule and
(b) a plain finite-difference stencil, printing the observed convergence
orders.  Run as ``python3 demos/linear_solver_vs_references.py``.
"""

import math

import numpy as np

from angiosolve import (CoefficientTrack, GridSpec, PhaseField, Schedule,
                        duhamel_reference, fd_reference, integrate_phase,
                        solve_linear)

SIGMA = 0.05


def make_grid(n):
    return GridSpec(dim_x=1, dim_v=1, n_x=n, n_v=n,
                    half_width_x=8.0, half_width_v=8.0)


def gaussian(grid, var=0.5):
    # fold in the nearest periodic images: a bare tail meeting zero at the
    # box seam would ring negative under the spectral heat flow
    def bump(coords, centre, half_width):
        return sum(np.exp(-(coords - centre + shift) ** 2 / (2 * var))
                   for shift in (-2 * half_width, 0.0, 2 * half_width))

    vals = np.multiply.outer(bump(grid.x_coords(), -1.0, grid.half_width_x),
                             bump(grid.v_coords(), 1.3, grid.half_width_v))
    return PhaseField(grid, vals / (2 * math.pi * var), nonnegative=True)


def damping(grid):
    vals = np.exp(-grid.x_coords()[:, None] ** 2 / 8.0) \
        * np.ones(grid.n_v)[None, :]
    return PhaseField(grid, vals)


def main():
    g = make_grid(64)
    p0 = gaussian(g)
    print("damped diffusion on a 64x64 phase lattice, sigma =", SIGMA)
    print(f"initial mass {integrate_phase(p0):.6f}")

    sched = Schedule(t_end=0.2, dt=0.01, save_stride=5)
    traj = solve_linear(p0, CoefficientTrack(sched, g, a=damping(g)), SIGMA)
    for t, f in zip(traj.times, traj.fields):
        print(f"  t = {t:4.2f}  mass {integrate_phase(f):.6f}  "
              f"sup {float(f.values.max()):.6f}  min {float(f.values.min()):.1e}")
    print("mass decays (the zero-order term only removes density) and the")
    print("minimum never leaves zero: the splitting preserves positivity up to")
    print("round-off, which the per-step floor absorbs (anything larger would")
    print("stop the march with a SignError naming the step and cell).\n")

    print("referee 1: trapezoid sweep of the mild-solution form, shared dt")
    diffs = {}
    for dt in (0.04, 0.02, 0.01):
        s = Schedule(t_end=0.2, dt=dt, save_stride=max(1, int(round(0.04 / dt))))
        track = CoefficientTrack(s, g, a=damping(g))
        du = duhamel_reference(p0, track, SIGMA)
        sol = solve_linear(p0, track, SIGMA)
        diffs[dt] = max(float(np.abs(a.values - b.values).max())
                        for a, b in zip(sol.fields[1:], du.fields[1:]))
        print(f"  dt = {dt:5.3f}  max deviation {diffs[dt]:.3e}")
    slope = np.polyfit([math.log(d) for d in diffs],
                       [math.log(e) for e in diffs.values()], 1)[0]
    print(f"  observed order in dt: {slope:.3f} (two different second-order")
    print("  discretisations can only differ at second order)\n")

    print("referee 2: forward-Euler stencil, lattice halving")
    errs = {}
    for n in (32, 64, 128):
        gn = make_grid(n)
        p0n = gaussian(gn, var=1.6)
        s = Schedule(t_end=0.2, dt=0.1, save_stride=1)
        fd = fd_reference(p0n, CoefficientTrack(s, gn, a=damping(gn)), SIGMA,
                          gn.h_x ** 2 / 20.0)
        s_f = Schedule(t_end=0.2, dt=0.0025, save_stride=40)
        ref = solve_linear(p0n, CoefficientTrack(s_f, gn, a=damping(gn)), SIGMA)
        scale = float(np.abs(ref.fields[-1].values).max())
        errs[n] = max(float(np.abs(a.values - b.values).max())
                      for a, b in zip(fd.fields[1:], ref.fields[1:])) / scale
        print(f"  n = {n:4d}  relative error {errs[n]:.3e}")
    print(f"  ratios per halving: {errs[32] / errs[64]:.2f}, "
          f"{errs[64] / errs[128]:.2f} (4.0 = clean second order in h)")


if __name__ == "__main__":
    main()
