"""The batched Step 1 in the block products' ``(N, S, m)`` column layout.

The batched BiCG engine keeps its ``(S, N, m)`` stacks as views of
``(N, S, m)``-ordered memory, so a stack enters the block products as one
``(N, S·m)`` block without a copy; the round runs in place, and the
pencil writes the products into reusable buffers.  The contract under
test: the layout changes no bit (batched applications on a layout view
equal those on a C-contiguous copy; the products through the reusable
buffers equal the plain products; pinned Al(100) solves keep the digests
they had before the layout change), the engine and the solver really
hold that layout, and one round allocates no more than its two product
results.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import repro.ss.solver as solver_mod
from repro.api import resolve_system
from repro.models.random_blocks import random_bulk_triple
from repro.qep.blocks import BlockTriple
from repro.qep.pencil import (
    QuadraticPencil,
    _block_products,
    _product_into,
    _ProductBuffers,
)
from repro.solvers.batched import BatchedBiCG
from repro.ss.solver import SSConfig, SSHankelSolver

AL100 = {"spacing_angstrom": 0.9}
AL100_KPAR = {"spacing_angstrom": 0.9, "k_par": 0.7}


def _plain(blocks):
    return BlockTriple(blocks.hm, blocks.h0, blocks.hp, blocks.cell_length)


def _triples():
    """Real, complex and mixed-dtype, separable and plain, sparse and
    dense triples."""
    al = resolve_system("al100", AL100)
    twisted = resolve_system("al100", AL100_KPAR)
    return {
        "al100-separable-real": al,
        "al100-plain-real": _plain(al),
        "al100-separable-complex": twisted,
        "al100-plain-complex": _plain(twisted),
        "al100-mixed-dtype": BlockTriple(al.hm, al.h0.astype(complex),
                                         al.hp, al.cell_length),
        "random-dense": random_bulk_triple(12, seed=7),
        "random-dense-real": random_bulk_triple(12, seed=8,
                                                complex_valued=False),
        "random-sparse-complex": random_bulk_triple(30, seed=6, sparse=True,
                                                    density=0.3),
    }


TRIPLES = _triples()


def _layout_stack(s, n, m, seed=0):
    """A random ``(S, N, m)`` stack as a view of ``(N, S, m)`` memory."""
    rng = np.random.default_rng(seed)
    mem = rng.standard_normal((n, s, m)) + 1j * rng.standard_normal((n, s, m))
    return mem.transpose(1, 0, 2)


def _shifts(s):
    return 1.3 * np.exp(2j * np.pi * (np.arange(s) + 0.5) / s)


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.float64),
        np.ascontiguousarray(b).view(np.float64),
    )


# -- bit identity of the batched applications -------------------------------


@pytest.mark.parametrize("energy", [0.3, 0.3 + 0.05j],
                         ids=["dual", "complex-energy"])
@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_layout_view_equals_contiguous_input(name, energy):
    blocks = TRIPLES[name]
    pencil = QuadraticPencil(blocks, energy)
    assert pencil.is_dual_symmetric == (energy == 0.3)
    s, m = 5, 3
    zs = _shifts(s)
    view = _layout_stack(s, blocks.n, m)
    contiguous = np.ascontiguousarray(view)
    assert not view.flags.c_contiguous and contiguous.flags.c_contiguous
    for apply in (pencil.apply_batch, pencil.apply_adjoint_batch):
        a, b = apply(zs, view), apply(zs, contiguous)
        assert _bits_equal(a, b)
        # the result is an (S, N, m) view of (N, S, m) memory
        assert a.shape == (s, blocks.n, m)
        assert a.transpose(1, 0, 2).flags.c_contiguous


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_shard_slice_equals_its_own_stack(name):
    """A shard ``b[lo:hi]`` of a layout stack is a strided view; its
    application equals that of the same shifts on their own stack."""
    blocks = TRIPLES[name]
    pencil = QuadraticPencil(blocks, 0.3)
    zs = _shifts(6)
    full = _layout_stack(6, blocks.n, 2, seed=1)
    shard = full[2:5]
    assert np.shares_memory(shard, full)
    own = np.ascontiguousarray(shard)
    for apply in (pencil.apply_batch, pencil.apply_adjoint_batch):
        assert _bits_equal(apply(zs[2:5], shard), apply(zs[2:5], own))


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_reused_buffers_give_the_plain_products(name):
    blocks = TRIPLES[name]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((blocks.n, 7)) + 1j * rng.standard_normal(
        (blocks.n, 7))
    buffers = _ProductBuffers(blocks, 7)
    fresh = _block_products(blocks, x)
    for _ in range(2):  # the second call reuses the filled buffers
        into = _block_products(blocks, x, buffers)
        for a, b, o in zip(into, fresh, buffers.products):
            assert _bits_equal(a, b)
            assert np.shares_memory(a, o)
    if blocks.separable is None:
        for a, h in zip(fresh, (blocks.h0, blocks.hp, blocks.hm)):
            assert _bits_equal(a, h @ x)


def test_product_into_rejects_what_the_kernel_cannot_write():
    m = TRIPLES["al100-plain-complex"].h0
    n = m.shape[0]
    v = np.ones((n, 4), dtype=complex)
    good = np.empty((n, 4), dtype=complex)
    _product_into(m, v, good)
    assert _bits_equal(good, m @ v)
    for bad_v, bad_out in [
        (v[:-1], good),                                 # too few rows
        (v, np.empty((n, 3), dtype=complex)),           # wrong width
        (v, np.empty((n, 4))),                          # real output
        (v, np.empty((n, 8), dtype=complex)[:, ::2]),   # strided output
        (np.asfortranarray(v), good),                   # strided input
    ]:
        with pytest.raises(ValueError):
            _product_into(m, bad_v, bad_out)


# -- pinned solves --------------------------------------------------------------


#: sha256 of the accepted eigenvalues (complex128 bytes) followed by the
#: per-quadrature-point BiCG iteration counts (int64 bytes) of a
#: ``"bicg-batched"`` solve at E = 0.3 (n_int=16, n_mm=4, n_rh=4, seed=5),
#: recorded with the ``(S, N, m)`` C-ordered engine this layout replaced.
PINNED_DIGESTS = {
    ("al100", "default"):
        "522fcdab74293e26b6552659fa1b8caa74e32dba909bd38dc913c037d656beef",
    ("al100", "jacobi"):
        "4a799d6912c9152c7bd0b80831bc4d094982d9b7c531ad0fac156f8d4e44abce",
    ("al100", "no-quorum"):
        "d6c1cbceb84a67735196d5f017e14c9058021ab0c6dfa2bd28eded095abe4973",
    ("al100", "executor-2"):
        "522fcdab74293e26b6552659fa1b8caa74e32dba909bd38dc913c037d656beef",
    ("al100-kpar", "default"):
        "56c56e537ea6814747b6d4a76d9aa9c5d2a208a0152ac92fe8f7a24c6f755e90",
    ("al100-kpar", "jacobi"):
        "3c05a0f831022fb6b487a744b8ccaa650008b48282304f996764edb7a99157a1",
}

OPTIONS = {
    "default": {},
    "jacobi": {"jacobi": True},
    "no-quorum": {"quorum_fraction": None},
    "executor-2": {"executor": 2},
}


@pytest.mark.parametrize("system, option", sorted(PINNED_DIGESTS))
def test_pinned_al100_solve(system, option):
    params = AL100 if system == "al100" else AL100_KPAR
    blocks = resolve_system("al100", params)
    cfg = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=5,
                   linear_solver="bicg-batched", **OPTIONS[option])
    r = SSHankelSolver(blocks, cfg).solve(0.3)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(r.eigenvalues, dtype=np.complex128).tobytes())
    h.update(np.array([p.iterations for p in r.point_stats],
                      dtype=np.int64).tobytes())
    assert r.count > 0
    assert h.hexdigest() == PINNED_DIGESTS[(system, option)]


# -- the layout itself ----------------------------------------------------------


def _is_layout(stack):
    return stack.transpose(1, 0, 2).flags.c_contiguous


def test_engine_stacks_use_the_product_layout():
    blocks = TRIPLES["al100-separable-real"]
    pencil = QuadraticPencil(blocks, 0.3)
    zs = _shifts(4)
    b = np.ascontiguousarray(_layout_stack(4, blocks.n, 3))  # C-ordered in
    eng = BatchedBiCG(lambda x: pencil.apply_batch(zs, x),
                      lambda x: pencil.apply_adjoint_batch(zs, x), b, b,
                      precond=np.stack([pencil.diagonal(z) for z in zs]))
    eng.step()
    for stack in (eng.x, eng.xd, eng.r, eng.rt, eng.p, eng.pt):
        assert _is_layout(stack)


def test_solver_builds_the_rhs_in_the_engine_layout(monkeypatch):
    seen = []
    run = solver_mod.run_batched_bicg

    def spy(apply, apply_h, b, b_dual=None, **kwargs):
        seen.append((b, b_dual))
        return run(apply, apply_h, b, b_dual, **kwargs)

    monkeypatch.setattr(solver_mod, "run_batched_bicg", spy)
    blocks = TRIPLES["al100-separable-real"]
    cfg = SSConfig(n_int=16, n_mm=4, n_rh=4, seed=5,
                   linear_solver="bicg-batched", executor=2)
    SSHankelSolver(blocks, cfg).solve(0.3)
    assert len(seen) == 2  # two shards of the dual shifts
    n_shifts = sum(b.shape[0] for b, _ in seen)
    base = seen[0][0].base
    assert base is not None and base.flags.c_contiguous
    assert base.shape == (blocks.n, n_shifts, 4)  # (N, S, m) memory
    for b, b_dual in seen:
        # each shard (primal and dual RHS alike) is a view, not a copy
        assert b.base is base and b_dual.base is base


# -- allocation guard -------------------------------------------------------------


@pytest.mark.parametrize("jacobi", [False, True])
@pytest.mark.parametrize("name, s, m", [
    ("al100-separable-real", 16, 16),
    ("al100-separable-complex", 16, 16),
    ("random-sparse-complex", 16, 8),
])
def test_round_allocates_only_its_products(name, s, m, jacobi):
    """After warm-up one round's traced peak stays under three stacks:
    its two product results ``q``/``q̃`` plus ufunc buffers (at most
    8192 elements each).  The engine that kept ``(S, N, m)`` C-ordered
    stacks read 6.3-7.1 stacks here."""
    blocks = (random_bulk_triple(256, seed=3, sparse=True)
              if name.startswith("random") else TRIPLES[name])
    pencil = QuadraticPencil(blocks, 0.3)
    zs = _shifts(s)
    b = _layout_stack(s, blocks.n, m, seed=2)
    precond = (np.stack([pencil.diagonal(z) for z in zs]) if jacobi
               else None)
    eng = BatchedBiCG(lambda x: pencil.apply_batch(zs, x),
                      lambda x: pencil.apply_adjoint_batch(zs, x), b, b,
                      precond=precond)
    eng.step()
    eng.step()
    assert eng.any_active
    stack = s * blocks.n * m * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        eng.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack, f"{peak / stack:.2f} stacks"
