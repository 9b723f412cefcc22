"""The benchmark's workloads and the inputs each seed gives them.

Every workload is a shipped scenario plus ``--override`` strings.  Seed 0 is
the shipped initial data; any other seed moves the density bump's centres
and scales its mass by small amounts drawn from ``random.Random(seed)``,
starting from the values the shipped scenario holds.  The ranges keep every
resolution guard (the variances are untouched) and the second-moment
envelope hypothesis (the mean square speed stays above 1), and they are
small enough that the iterate counts per slab do not change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CENTRE_X_SHIFT = 0.25    # |shift| of each spatial centre coordinate
CENTRE_V_SHIFT = 0.1     # |shift| of each velocity centre coordinate
MASS_SCALE = 0.02        # |relative change| of the total mass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: tuple
    step_solves: int      # baseline step-solves at seed 0
    k_per_slab: tuple     # baseline iterates per slab at seed 0


WORKLOADS = {
    w.name: w for w in (
        Workload("march-1d", "pure-gaussian", (), 5559, (6, 5)),
        Workload("coupled-1d", "coupled-ramp", (), 4844, (6, 6, 5)),
        Workload("dense-2d", "coupled-smoke-2d", ("schedule.save_stride=1",),
                 200, (5,)),
    )
}


def _floats(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _axes(values) -> str:
    return ",".join(repr(v) for v in values)


def seed_overrides(p_recipe: dict, seed: int) -> list:
    """The ``--override`` strings that move ``seed``'s density bump away from
    the shipped one, whose ``[initial_p]`` section is ``p_recipe``."""
    if seed == 0:
        return []
    rng = random.Random(seed)
    cx = [c + rng.uniform(-CENTRE_X_SHIFT, CENTRE_X_SHIFT)
          for c in _floats(p_recipe["center_x"])]
    cv = [c + rng.uniform(-CENTRE_V_SHIFT, CENTRE_V_SHIFT)
          for c in _floats(p_recipe["center_v"])]
    mass = float(p_recipe["mass"]) * (1.0 + rng.uniform(-MASS_SCALE, MASS_SCALE))
    return [f"initial_p.center_x={_axes(cx)}",
            f"initial_p.center_v={_axes(cv)}",
            f"initial_p.mass={mass!r}"]
