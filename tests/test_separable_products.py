"""Block products through the separable form of Kohn-Sham triples.

The builder attaches a :class:`~repro.qep.blocks.SeparableForm` (local
CSR blocks plus rank-``P`` projector factors) to real-space triples whose
projector outer products dominate the stored entries, and :func:`repro.qep.pencil._block_products` multiplies
through it.  The contract under test: every product agrees with the
assembled blocks to 1e-13 relative, the form multiplies out to those
blocks, the assembled blocks themselves are unchanged, and a triple
without the form keeps the plain CSR path.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import resolve_system
from repro.dft.builders import bulk_al100, grid_for_structure
from repro.dft.hamiltonian import build_blocks
from repro.errors import ConfigurationError
from repro.parallel.pool import _blocks_digest
from repro.qep import pencil as pencil_mod
from repro.qep.blocks import BlockTriple, SeparableForm
from repro.qep.pencil import QuadraticPencil, _block_products

SYSTEMS = {
    "al100": ("al100", {"spacing_angstrom": 0.9}),
    "al100-kpar": ("al100", {"spacing_angstrom": 0.9, "k_par": 0.7}),
    "nanotube": ("nanotube", {"n": 4, "m": 0, "spacing_angstrom": 0.6}),
}
TOL = 1e-13
SHIFTS = np.array([1.2 * np.exp(2j * np.pi * t / 5) for t in range(5)])


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def pair(request):
    """``(factored, plain)``: the builder's triple and the same assembled
    arrays without the form."""
    name, params = SYSTEMS[request.param]
    blocks = resolve_system(name, params)
    return blocks, _plain(blocks)


def _plain(blocks):
    return BlockTriple(blocks.hm, blocks.h0, blocks.hp, blocks.cell_length)


def _stack(shape, seed=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_builder_attaches_the_form(pair):
    blocks, plain = pair
    form = blocks.separable
    assert form is not None and plain.separable is None
    n, p = blocks.n, form.n_projectors
    assert p > 0
    assert form.c.shape == (n, 3 * p) and form.ect.shape == (3 * p, n)
    assert all(m.dtype == blocks.h0.dtype for m in form.factors)
    assert all(g.shape == (n, n + 3 * p) for g in form.row_operators)
    # the nonlocal part is rank 3P: fewer stored entries to read
    assert form.product_nnz + n < blocks.nnz


def test_form_multiplies_out_to_the_assembled_blocks(pair):
    blocks, _ = pair
    f = blocks.separable
    p = f.n_projectors
    cm, c0, cp = (f.c[:, i * p:(i + 1) * p] for i in range(3))
    em, e0, ep = (f.ect[i * p:(i + 1) * p] for i in range(3))
    expect = {
        "h0": f.l0 + cm @ em + c0 @ e0 + cp @ ep,
        "hp": f.lp + cm @ e0 + c0 @ ep,
        "hm": f.lm + c0 @ em + cp @ e0,
    }
    for name, m in expect.items():
        ref = getattr(blocks, name)
        assert abs(m - ref).max() <= TOL * abs(ref).max()


@pytest.mark.parametrize("shape", ["vector", "block"])
def test_block_products_match_assembled(pair, shape):
    blocks, plain = pair
    x = _stack((blocks.n,) if shape == "vector" else (blocks.n, 6))
    for a, b in zip(_block_products(blocks, x), _block_products(plain, x)):
        assert a.shape == x.shape and a.dtype == np.complex128
        assert _rel(a, b) <= TOL


@pytest.mark.parametrize("energy", [0.2, 0.2 + 0.03j],
                         ids=["dual-symmetric", "non-dual"])
@pytest.mark.parametrize("shape", ["vector", "block"])
def test_pencil_appliers_match_assembled(pair, energy, shape):
    blocks, plain = pair
    fac, ref = QuadraticPencil(blocks, energy), QuadraticPencil(plain, energy)
    x = _stack((blocks.n,) if shape == "vector" else (blocks.n, 3))
    z = SHIFTS[2]
    assert _rel(fac.apply(z, x), ref.apply(z, x)) <= TOL
    assert _rel(fac.apply_adjoint(z, x), ref.apply_adjoint(z, x)) <= TOL
    xs = _stack((len(SHIFTS), blocks.n, 3))
    assert _rel(fac.apply_batch(SHIFTS, xs), ref.apply_batch(SHIFTS, xs)) <= TOL
    assert _rel(fac.apply_adjoint_batch(SHIFTS, xs),
                ref.apply_adjoint_batch(SHIFTS, xs)) <= TOL


def test_residuals_match_assembled(pair):
    blocks, plain = pair
    psis = _stack((blocks.n, 4))
    a = QuadraticPencil(blocks, 0.2).residuals(SHIFTS[:4], psis)
    b = QuadraticPencil(plain, 0.2).residuals(SHIFTS[:4], psis)
    assert np.all(np.abs(a - b) <= TOL * np.abs(b))


def test_real_form_takes_the_real_view():
    """Real factors multiply the float64 view: bit-equal to the products
    of the ``as_complex()`` twin, whose form is cast along."""
    blocks = resolve_system(*SYSTEMS["al100"])
    twin = blocks.as_complex()
    assert pencil_mod._real_view_applies(blocks)
    assert not pencil_mod._real_view_applies(twin)
    assert all(m.dtype == np.complex128 for m in twin.separable.factors)
    x = _stack((blocks.n, 5))
    for a, b in zip(_block_products(blocks, x), _block_products(twin, x)):
        assert np.array_equal(a, b)


def test_as_complex_carries_and_as_dense_drops_the_form():
    blocks = resolve_system(*SYSTEMS["al100"])
    twin = blocks.as_complex()
    for a, b in zip(blocks.separable.factors, twin.separable.factors):
        assert np.array_equal(a.toarray(), b.toarray())
    assert blocks.as_dense().separable is None


def test_triple_rebuilt_from_the_arrays_takes_the_csr_path(monkeypatch):
    blocks = resolve_system(*SYSTEMS["al100"])
    plain = _plain(blocks)
    calls = []
    routed = pencil_mod._separable_products

    def spy(*args):
        calls.append(1)
        return routed(*args)

    monkeypatch.setattr(pencil_mod, "_separable_products", spy)
    x = _stack((blocks.n, 2))
    _block_products(plain, x)
    assert calls == []
    _block_products(blocks, x)
    assert calls == [1]


def test_without_projectors_no_form():
    s = bulk_al100()
    g = grid_for_structure(s, spacing_angstrom=0.9)
    blocks, info = build_blocks(s, g, include_nonlocal=False)
    assert blocks.separable is None and info.n_projectors == 0


def test_no_form_where_the_stencil_dominates():
    """On a coarse vacuum-padded tube the projector outer products are a
    few entries; a product through the form would read as many."""
    blocks = resolve_system("nanotube",
                            {"n": 4, "m": 0, "spacing_angstrom": 0.9})
    assert blocks.separable is None


def test_form_is_not_compared_and_is_validated():
    blocks = resolve_system(*SYSTEMS["al100"])
    (field,) = [f for f in dataclasses.fields(BlockTriple)
                if f.name == "separable"]
    assert not field.compare and "separable" not in repr(blocks)
    f = blocks.separable
    with pytest.raises(ConfigurationError, match="separable form"):
        BlockTriple(blocks.hm, blocks.h0, blocks.hp,
                    separable=SeparableForm(f.lm, f.l0, f.lp, f.ect, f.c))
    with pytest.raises(ConfigurationError, match="separable form"):
        BlockTriple(blocks.hm.toarray(), blocks.h0.toarray(),
                    blocks.hp.toarray(), separable=f)
    small = sp.identity(4, format="csr")
    with pytest.raises(ConfigurationError, match="separable form"):
        BlockTriple(blocks.hm, blocks.h0, blocks.hp,
                    separable=SeparableForm(small, small, small, f.c, f.ect))


#: ``_blocks_digest`` (cell length, dtype, pattern and values) of the
#: assembled blocks alone, as the builder produced them before the
#: separable form existed: attaching the form moves no assembled bit.
ASSEMBLED_DIGESTS = {
    "al100": "4d1ad5ec17750090b8eb67d94b5175e807a17ac3f03147710947226c364a83e9",
    "al100-kpar":
        "6197e496be6664f1ab3e0a2ad1c086c55af744532895d02ca38623394aa45467",
    "nanotube":
        "9bf9b0af39eb40ef7d8d4fc6893fa034bf32660cb78160bbc35031fd0db1d43b",
    "al100-0.45":
        "893d0a459c9742ef39e13600182e9738989fabb38941026eaa58e950a77854f5",
}


@pytest.mark.parametrize("key", sorted(ASSEMBLED_DIGESTS))
def test_assembled_blocks_unchanged(key):
    name, params = SYSTEMS.get(key, ("al100", {"spacing_angstrom": 0.45}))
    blocks = resolve_system(name, params)
    assert blocks.separable is not None
    assert _blocks_digest(_plain(blocks)) == ASSEMBLED_DIGESTS[key]
