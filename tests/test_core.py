import numpy as np
import pytest

from adaptmc.core import (EmpiricalMeasure, PsdMatrix, RngStream, make_stream,
                          psd_sqrt)
from adaptmc.errors import DimensionMismatch, NonPsd


def test_same_key_same_draws():
    a = make_stream(123, 5).uniform(100)
    b = make_stream(123, 5).uniform(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_uncorrelated():
    a = make_stream(42, 0).uniform(10000)
    b = make_stream(42, 1).uniform(10000)
    r = float(np.corrcoef(a, b)[0, 1])
    # regression value frozen from the first run of this implementation
    assert r == pytest.approx(-0.01256144924110657, abs=1e-12)
    assert abs(r) < 0.05


def test_stream_independent_of_sibling_consumption():
    # stream (7, 1) produces the same sequence whether or not (7, 0) drew first
    lone = make_stream(7, 1).uniform(50)
    noisy_sibling = make_stream(7, 0)
    noisy_sibling.uniform(1000)
    again = make_stream(7, 1).uniform(50)
    assert np.array_equal(lone, again)


def test_calls_counter():
    s = make_stream(1, 0)
    s.uniform()
    s.normal(3)
    s.integers(0, 10)
    assert s.calls == 3


def test_state_snapshot_roundtrip():
    s = make_stream(99, 3)
    s.uniform(17)
    s.normal()
    snap = s.state()
    tail = s.uniform(25)
    fresh = make_stream(99, 3)
    fresh.set_state(snap)
    assert np.array_equal(fresh.uniform(25), tail)
    assert fresh.calls == s.calls


def test_state_snapshot_wrong_key_rejected():
    snap = make_stream(1, 2).state()
    with pytest.raises(ValueError):
        make_stream(1, 3).set_state(snap)


def test_substream_deterministic_and_distinct():
    s = make_stream(5, 0)
    c1 = s.substream(4)
    c2 = make_stream(5, 0).substream(4)
    assert c1.stream_id == c2.stream_id
    assert np.array_equal(c1.uniform(20), c2.uniform(20))
    assert s.substream(3).stream_id != s.substream(4).stream_id


def test_seed_range_checked():
    with pytest.raises(ValueError):
        make_stream(-1, 0)
    with pytest.raises(ValueError):
        make_stream(0, 2**64)


def test_psd_identity_sqrt():
    s = PsdMatrix.identity(4).sqrt()
    assert np.allclose(s.entries, np.eye(4), atol=1e-14)


def test_psd_sqrt_2x2_closed_form():
    # A = [[2,1],[1,2]] has eigenpairs 1 at (1,-1)/sqrt2 and 3 at (1,1)/sqrt2,
    # so S = [[(r3+1)/2, (r3-1)/2], [(r3-1)/2, (r3+1)/2]] with r3 = sqrt(3)
    r3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    s = psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.abs(s.entries - expected).max() < 1e-12


def test_psd_sqrt_diagonal():
    s = psd_sqrt(np.diag([4.0, 9.0, 0.25]))
    assert np.allclose(s.entries, np.diag([2.0, 3.0, 0.5]))


@pytest.mark.parametrize("dim", [2, 5, 11])
def test_psd_sqrt_reconstruction_random(dim):
    rng = np.random.default_rng(dim)
    b = rng.normal(size=(dim, dim))
    m = b.T @ b
    s = psd_sqrt(m)
    scale = np.abs(m).max()
    assert np.abs(s.entries @ s.entries - m).max() <= 1e-9 * scale


def test_psd_negative_eig_within_clip_accepted():
    # eigenvalue -1e-11 * lmax sits inside the clip band
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    m = q @ np.diag([1.0, 0.5, -1e-11]) @ q.T
    m = 0.5 * (m + m.T)
    p = PsdMatrix(m)
    assert p.eigenvalues()[0] == 0.0
    s = p.sqrt()
    assert np.all(np.isfinite(s.entries))


def test_psd_negative_eig_beyond_clip_rejected():
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
    m = q @ np.diag([1.0, 0.5, -1e-8]) @ q.T
    m = 0.5 * (m + m.T)
    with pytest.raises(NonPsd):
        PsdMatrix(m)


def test_psd_asymmetric_rejected():
    with pytest.raises(NonPsd):
        PsdMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_psd_nonsquare_rejected():
    with pytest.raises(DimensionMismatch):
        PsdMatrix(np.ones((2, 3)))


def test_empirical_measure_uniform_default():
    m = EmpiricalMeasure([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert m.support_size == 3
    assert m.dim == 2
    assert np.allclose(m.weights, 1.0 / 3.0)
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_empirical_measure_normalizes():
    m = EmpiricalMeasure([0.0, 1.0, 2.0], weights=[2.0, 2.0, 4.0])
    assert np.allclose(m.weights, [0.25, 0.25, 0.5])
    assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_empirical_measure_lifts_scalars():
    m = EmpiricalMeasure([0.5, 0.25])
    assert m.points.shape == (2, 1)


def test_empirical_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], weights=[1.0, -0.5])
    with pytest.raises(ValueError):
        EmpiricalMeasure([0.0, 1.0], weights=[0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        EmpiricalMeasure([0.0, 1.0], weights=[1.0, 1.0, 1.0])


def test_empirical_measure_rejects_empty():
    with pytest.raises(DimensionMismatch):
        EmpiricalMeasure(np.zeros((0, 2)))


def test_empirical_measure_mean():
    m = EmpiricalMeasure([0.0, 1.0], weights=[0.25, 0.75])
    assert m.mean() == pytest.approx([0.75])
