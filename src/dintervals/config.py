"""Default enumeration guards, overridable through environment variables.

Every exhaustive routine takes an explicit ``guard`` argument; when the
caller passes none, the default below applies.  ``DINTERVALS_GUARD_<NAME>``
overrides a default process-wide, which keeps the CLI usable on larger
inputs without touching call sites.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    "NERVE": 20,          # family size for nerve enumeration
    "COLLAPSE_FACES": 2 ** 14,  # face count: nerve walk, collapsibility oracle
    "RADON_POINTS": 12,   # |P| for the Radon number brute force
    "PIERCE_SETS": 30,    # family size for exact tau / nu
    "PQ_WORK": 10 ** 6,   # tuple evaluations for (p,q) checks
    "DRAWS": 10 ** 5,     # rejection-sampling draw cap
}


def guard_limit(name: str, override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(f"DINTERVALS_GUARD_{name}")
    if env is not None:
        return int(env)
    return _DEFAULTS[name]
