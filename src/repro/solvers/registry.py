"""Registry of Step-1 linear-solver strategies.

The Sakurai-Sugiura Step 1 — solve ``P(z_j) Y_j = V`` at every
quadrature shift — admits several execution strategies (sparse direct,
per-task BiCG emulating the paper's parallel middle layer, vectorized
batched BiCG).  The SS solver dispatches by name through this registry
so new strategies can be plugged in without touching the solver:

>>> from repro.solvers.registry import step1_strategy
>>> @step1_strategy("my-strategy")
... def _my_step1(solver, pencil, contour, v, acc, warm=None):
...     ...

A strategy is a callable ``(solver, pencil, contour, v, acc, warm=None)
-> list[PointStats]`` that solves every shifted system and folds the
solutions into the moment accumulator ``acc``.  ``warm`` optionally
carries a :class:`repro.solvers.batched.Step1WarmStart` from an
adjacent energy slice; strategies are free to ignore it.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

_STRATEGIES: Dict[str, Callable] = {}


def step1_strategy(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering a Step-1 strategy under ``name``."""

    def register(fn: Callable) -> Callable:
        _STRATEGIES[name] = fn
        return fn

    return register


def get_step1_strategy(name: str) -> Callable:
    """Look up a registered strategy; raises ``KeyError`` with the list
    of known names on a miss."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown Step-1 strategy {name!r}; "
            f"registered: {sorted(_STRATEGIES)}"
        ) from None


def available_strategies() -> Tuple[str, ...]:
    """Names of all registered strategies, sorted."""
    return tuple(sorted(_STRATEGIES))


def resolve_strategy(name: str, n: int, direct_threshold: int = 6000) -> str:
    """Resolve a strategy spec to a concrete registered name.

    ``"auto"`` picks by problem size: sparse direct factorization up to
    ``direct_threshold`` unknowns, the batched matrix-free engine above
    it.  Concrete names pass through after a registry existence check
    (raising the registry's descriptive ``KeyError`` on a miss), so a
    per-slice config can be resolved once and then dispatched repeatedly
    without re-deciding.
    """
    if name == "auto":
        return "direct" if n <= direct_threshold else "bicg-batched"
    get_step1_strategy(name)
    return name
