"""Default guards on exponential work, overridable through the environment.

``DINTERVALS_GUARD_<NAME>`` overrides a default process-wide, which keeps
the CLI usable on larger inputs without touching call sites; no guard
takes a per-call override.  ``check_guard`` is the guard rule itself; the
walks that count as they go (the nerve's face walk and ``helly_check``)
read ``guard_limit`` once instead.
"""

from __future__ import annotations

import os

from .errors import GuardExceededError

_DEFAULTS = {
    "NERVE": 20,          # family size for nerve enumeration
    "COLLAPSE_FACES": 2 ** 14,  # face count: nerve walk, collapsibility oracle
    "PIERCE_SETS": 30,    # family size for exact tau / nu
    "PQ_WORK": 10 ** 6,   # tuple evaluations: (p,q), Helly and Radon walks
}


def guard_limit(name: str) -> int:
    env = os.environ.get(f"DINTERVALS_GUARD_{name}")
    if env is not None:
        return int(env)
    return _DEFAULTS[name]


def check_guard(name: str, what: str, size: int) -> None:
    """Raise ``GuardExceededError(what, size, limit)`` when ``size`` is
    past the guard's limit (the bound is inclusive)."""
    limit = guard_limit(name)
    if size > limit:
        raise GuardExceededError(what, size, limit)
