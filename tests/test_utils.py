"""Utility modules: timing, memory accounting, RNG, constants."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import constants
from repro.utils.memory import MemoryReport, format_bytes, nbytes_of
from repro.utils.rng import DEFAULT_SEED, complex_gaussian, default_rng
from repro.utils.timing import PhaseTimes, Stopwatch, Timer


# -- constants ---------------------------------------------------------------

def test_unit_roundtrips():
    assert constants.hartree_to_ev(constants.ev_to_hartree(3.7)) == pytest.approx(3.7)
    assert constants.bohr_to_angstrom(constants.angstrom_to_bohr(1.23)) == pytest.approx(1.23)


def test_known_values():
    assert constants.HARTREE_EV == pytest.approx(27.2114, abs=1e-3)
    assert constants.BOHR_ANGSTROM == pytest.approx(0.529177, abs=1e-5)
    assert constants.RYDBERG_EV == pytest.approx(constants.HARTREE_EV / 2)


# -- timing -------------------------------------------------------------------

def test_stopwatch_accumulates():
    sw = Stopwatch()
    with sw:
        pass
    first = sw.elapsed
    with sw:
        pass
    assert sw.elapsed >= first
    sw.reset()
    assert sw.elapsed == 0.0


def test_stopwatch_misuse():
    sw = Stopwatch()
    with pytest.raises(RuntimeError):
        sw.stop()
    sw.start()
    with pytest.raises(RuntimeError):
        sw.start()


def test_timer():
    with Timer() as t:
        sum(range(100))
    assert t.elapsed >= 0.0


def test_phase_times():
    pt = PhaseTimes()
    with pt.phase("a"):
        pass
    with pt.phase("a"):
        pass
    pt.add("b", 1.5)
    assert pt.get("b") == 1.5
    assert pt.get("a") > 0.0
    assert pt.total == pytest.approx(pt.get("a") + 1.5)
    assert set(pt.as_dict()) == {"a", "b"}


# -- memory --------------------------------------------------------------------

def test_nbytes_ndarray():
    a = np.zeros(10, dtype=np.complex128)
    assert nbytes_of(a) == 160


def test_nbytes_sparse():
    m = sp.csr_matrix(np.eye(4))
    expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert nbytes_of(m) == expected


def test_nbytes_containers():
    a = np.zeros(4)
    assert nbytes_of([a, a]) == 2 * a.nbytes
    assert nbytes_of({"x": a}) == a.nbytes
    assert nbytes_of(None) == 0
    assert nbytes_of(object()) == 0


def test_memory_report():
    rep = MemoryReport()
    rep.add("vec", np.zeros(8))
    rep.add("raw", 100)
    rep.add("raw", 28)
    assert rep.total == 64 + 128
    other = MemoryReport()
    other.add("x", 16)
    rep.merge(other, prefix="sub/")
    assert rep.items["sub/x"] == 16


def test_format_bytes():
    assert format_bytes(512) == "512.000 B"
    assert "KB" in format_bytes(2048)
    assert "GB" in format_bytes(3 * 1024**3)


# -- rng ------------------------------------------------------------------------

def test_default_rng_deterministic():
    a = default_rng().standard_normal(5)
    b = default_rng(DEFAULT_SEED).standard_normal(5)
    assert np.array_equal(a, b)


def test_default_rng_passthrough():
    g = np.random.default_rng(1)
    assert default_rng(g) is g


def test_complex_gaussian_stats():
    z = complex_gaussian(default_rng(0), 20000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05  # unit variance
    assert abs(z.mean()) < 0.05
