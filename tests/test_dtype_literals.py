"""The dtype literals of the Step-1 path have one home.

The Step-1 modules must take their dtypes from :mod:`repro.dtypes`
instead of scattering ``np.complex128``-style literals, so the
precision policy is one edit, not a grep.  Checked by AST inspection of
each module's source.
"""

from __future__ import annotations

import ast
import inspect

import pytest

import repro.qep.pencil as pencil_mod
import repro.solvers.batched as batched_mod
import repro.solvers.bicg as bicg_mod
import repro.solvers.preconditioners as preconditioners_mod
import repro.solvers.stopping as stopping_mod
import repro.ss.solver as ss_solver_mod

#: Modules whose sources must not contain raw numpy dtype literals
#: (the single definition site is repro/dtypes.py).
DTYPE_CLEAN_MODULES = [
    batched_mod,
    bicg_mod,
    pencil_mod,
    preconditioners_mod,
    stopping_mod,
    ss_solver_mod,
]

BANNED_DTYPE_ATTRS = {
    "complex128", "complex64", "float64", "float32", "int64", "int8",
}


@pytest.mark.parametrize(
    "mod", DTYPE_CLEAN_MODULES, ids=lambda m: m.__name__
)
def test_no_raw_dtype_literals(mod):
    tree = ast.parse(inspect.getsource(mod))
    hits = [
        (node.lineno, f"np.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in BANNED_DTYPE_ATTRS
    ]
    assert not hits, (
        f"{mod.__name__} must take dtypes from repro.dtypes, "
        f"found raw literals: {hits}"
    )
