import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from adaptmc import transport
from adaptmc.core import EmpiricalMeasure, make_stream
from adaptmc.errors import DimensionError, Error, SizeCap
from adaptmc.transport import (CERT_TOL, bounded_distance, discrete_ot_exact,
                               euclidean_metric, sliced_w1, w1_atoms_vs_uniform01,
                               w2_gaussian, w_exact_1d)


def unif_quantile_atoms(n):
    # n-point quantile discretization of Unif(0,1)
    return EmpiricalMeasure((np.arange(n) + 0.5) / n)


# ---------------------------------------------------------------- w_exact_1d

def test_w1_identical_measures():
    m = EmpiricalMeasure([0.1, 0.5, 0.9])
    assert w_exact_1d(m, m, p=1).cost == 0.0


def test_w1_point_masses():
    r = w_exact_1d(EmpiricalMeasure([0.0]), EmpiricalMeasure([1.0]), p=1)
    assert r.cost == 1.0
    assert r.method == "exact-1d"
    assert r.error == 0.0


def test_w2_split_mass():
    # half of the mass at 0 and half at 1 each travel 1/2 to the midpoint
    mu = EmpiricalMeasure([0.0, 1.0])
    nu = EmpiricalMeasure([0.5])
    assert w_exact_1d(mu, nu, p=1).cost == pytest.approx(0.5)
    assert w_exact_1d(mu, nu, p=2).cost == pytest.approx(0.5)


def test_w1_monotone_coupling_beats_crossing():
    mu = EmpiricalMeasure([0.0, 2.0])
    nu = EmpiricalMeasure([1.0, 3.0])
    # monotone matching shifts each atom by 1; the crossed matching costs 2
    assert w_exact_1d(mu, nu, p=1).cost == pytest.approx(1.0)


def test_w1_dyadic_atoms_vs_uniform_quantiles():
    # t=4 dyadic atoms against a 2^16-point discretized uniform target;
    # the continuous-target value is exactly 2^-5
    mu = EmpiricalMeasure(np.arange(16) / 16.0)
    nu = unif_quantile_atoms(2 ** 16)
    r = w_exact_1d(mu, nu, p=1)
    assert abs(r.cost - 2.0 ** -5) <= 2.0 ** -17


def test_w_exact_1d_rejects_bad_inputs():
    m2 = EmpiricalMeasure(np.zeros((3, 2)))
    m1 = EmpiricalMeasure([0.0, 1.0])
    with pytest.raises(DimensionError):
        w_exact_1d(m2, m2)
    with pytest.raises(ValueError):
        w_exact_1d(m1, m1, p=3)


def test_w_exact_1d_weighted_plan_marginals():
    rng = np.random.default_rng(11)
    mu = EmpiricalMeasure(rng.normal(size=37), weights=rng.uniform(size=37))
    nu = EmpiricalMeasure(rng.normal(size=23), weights=rng.uniform(size=23))
    r = w_exact_1d(mu, nu, p=2)
    row = np.asarray(r.plan.sum(axis=1)).ravel()
    col = np.asarray(r.plan.sum(axis=0)).ravel()
    assert np.abs(row - mu.weights).max() <= 1e-10
    assert np.abs(col - nu.weights).max() <= 1e-10


@pytest.mark.parametrize("p", [1, 2])
def test_w_exact_1d_matches_lp(p):
    # quantile coupling against the generic exact solver, several sizes
    rng = np.random.default_rng(5 + p)
    for n, m in [(4, 7), (60, 41), (257, 400)]:
        mu = EmpiricalMeasure(rng.normal(size=n), weights=rng.uniform(size=n))
        nu = EmpiricalMeasure(rng.normal(size=m), weights=rng.uniform(size=m))
        r = w_exact_1d(mu, nu, p=p)
        c = np.abs(mu.points[:, 0][:, None] - nu.points[:, 0][None, :]) ** p
        lp = discrete_ot_exact(c, mu.weights, nu.weights)
        assert abs(r.meta["power_cost"] - lp.cost) <= 1e-9


# ----------------------------------------------------------- discrete_ot_exact

def test_ot_single_atom():
    r = discrete_ot_exact(np.array([[3.5]]), [1.0], [1.0])
    assert r.cost == pytest.approx(3.5)


def test_ot_identity_matching():
    r = discrete_ot_exact(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          [0.5, 0.5], [0.5, 0.5])
    assert r.cost == pytest.approx(0.0, abs=1e-12)


def test_ot_hand_2x2():
    # x11 = t free in [0, 0.3]: cost = 1.2 - 3t, minimal at t = 0.3
    r = discrete_ot_exact(np.array([[0.0, 2.0], [1.0, 0.0]]),
                          [0.3, 0.7], [0.6, 0.4])
    assert r.cost == pytest.approx(0.3, abs=1e-12)
    dense = r.plan.toarray()
    assert dense[0, 0] == pytest.approx(0.3, abs=1e-9)
    assert dense[1, 1] == pytest.approx(0.4, abs=1e-9)


def test_ot_matches_permutation_bruteforce():
    rng = np.random.default_rng(17)
    w = np.full(6, 1.0 / 6.0)
    for _ in range(20):
        c = rng.uniform(size=(6, 6))
        best = min(c[np.arange(6), list(p)].sum() / 6.0
                   for p in permutations(range(6)))
        r = discrete_ot_exact(c, w, w)
        assert abs(r.cost - best) <= 1e-12


def test_ot_certificate_reported():
    rng = np.random.default_rng(2)
    c = rng.uniform(size=(15, 9))
    a = rng.uniform(size=15)
    a /= a.sum()
    b = rng.uniform(size=9)
    b /= b.sum()
    r = discrete_ot_exact(c, a, b)
    assert r.meta["gap"] <= 1e-9
    assert r.error <= 1e-9 * c.max()
    u, v = r.meta["dual_u"], r.meta["dual_v"]
    assert (u[:, None] + v[None, :] - c).max() <= 1e-9 * c.max() + 1e-15


# Entries drawn from a few fixed values give many exact ties; capping at 1
# adds more, as the capped metric does.
_ENTRY = st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                   st.floats(0.0, 2.0, allow_nan=False))


@st.composite
def _square_costs(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return np.full((n, n), draw(_ENTRY))
    entries = draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))
    return np.minimum(np.reshape(entries, (n, n)), 1.0)


def _lp_value(c, a, b):
    scale = c.max() or 1.0
    return transport._lp_route(c / scale, a, b)[0] * scale


def _assert_certified(r, c):
    u, v = r.meta["dual_u"], r.meta["dual_v"]
    assert (u[:, None] + v[None, :] - c).max() <= CERT_TOL * c.max()
    assert r.meta["gap"] <= CERT_TOL
    assert r.error <= CERT_TOL * c.max()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_square_costs())
def test_ot_assignment_route_matches_bruteforce_and_lp(c):
    n = c.shape[0]
    w = np.full(n, 1.0 / n)
    r = discrete_ot_exact(c, w, w)
    assert r.meta["route"] == "assignment"
    best = min(c[np.arange(n), list(p)].sum() / n
               for p in permutations(range(n)))
    assert abs(r.cost - best) <= 1e-12
    assert abs(r.cost - _lp_value(c, w, w)) <= 1e-12
    _assert_certified(r, c)
    # the plan is a permutation carrying mass 1/n per row
    dense = r.plan.toarray()
    assert np.array_equal(np.sort(dense.argmax(axis=1)), np.arange(n))
    assert np.allclose(dense.sum(axis=1), w, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(17, 20), st.integers(17, 20), st.booleans(), st.data())
def test_ot_other_weights_take_the_lp_route(n, m, uniform, data):
    # every shape here has more than SIMPLEX_ENTRIES cost entries
    if uniform:
        if n == m:
            m += 1
        a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    else:
        m = n
        raw = np.asarray(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n,
                                            max_size=n)))
        if np.all(raw == raw[0]):
            raw[0] *= 2.0
        a, b = raw / raw.sum(), np.full(n, 1.0 / n)
    entries = data.draw(st.lists(_ENTRY, min_size=n * m, max_size=n * m))
    c = np.minimum(np.reshape(entries, (n, m)), 1.0)
    r = discrete_ot_exact(c, a, b)
    assert r.meta["route"] == "lp"
    assert abs(r.cost - _lp_value(c, a, b)) <= 1e-12
    _assert_certified(r, c)


def _counts(data, k, total):
    # k nonnegative integers summing to total
    cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=k - 1,
                                     max_size=k - 1)))
    return np.diff([0] + cuts + [total])


def _is_discrete_metric(c):
    n, m = c.shape
    return n == m > 1 and c.max() > 0 and np.all(c / c.max()
                                                  == 1.0 - np.eye(n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 8), st.data())
def test_ot_simplex_route_matches_repeated_atom_assignment(n, m, total,
                                                           data):
    ka, kb = _counts(data, n, total), _counts(data, m, total)
    a, b = ka / total, kb / total
    entries = data.draw(st.lists(_ENTRY, min_size=n * m, max_size=n * m))
    c = np.minimum(np.reshape(entries, (n, m)), 1.0)
    assume(not (n == m and np.all(a == a[0]) and np.all(b == b[0])))
    assume(not _is_discrete_metric(c))
    r = discrete_ot_exact(c, a, b)
    assert r.meta["route"] == "simplex"
    # integer marginals admit an integral optimal plan, so repeating atom
    # i ka[i] times turns the problem into an exact total x total assignment
    big = c[np.repeat(np.arange(n), ka)][:, np.repeat(np.arange(m), kb)]
    rows, cols = linear_sum_assignment(big)
    assert abs(r.cost - big[rows, cols].sum() / total) <= 1e-12
    _assert_certified(r, c)


@pytest.mark.parametrize("a, b, want", [
    ([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], 0.0),
    ([1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], 0.9),
    ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75], 1.0),
    ([0.4, 0.1, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4], 0.3),
], ids=["equal", "point-mass", "disjoint", "mixed"])
def test_ot_discrete_metric_route_is_total_variation(a, b, want):
    c = 0.5 * (1.0 - np.eye(4))
    a, b = np.asarray(a), np.asarray(b)
    r = discrete_ot_exact(c, a, b)
    assert r.meta["route"] == "discrete-metric"
    assert abs(r.cost - 0.5 * want) <= 1e-15
    assert abs(r.cost - _lp_value(c, a, b)) <= 1e-12
    _assert_certified(r, c)
    # min(a, b) stays in place
    assert np.array_equal(r.plan.toarray().diagonal(), np.minimum(a, b))


def test_ot_discrete_metric_needs_the_exact_shape():
    a = np.array([0.4, 0.1, 0.3, 0.2])
    b = np.array([0.1, 0.2, 0.3, 0.4])
    c = 0.5 * (1.0 - np.eye(4))
    w = np.full(4, 0.25)
    assert discrete_ot_exact(c, w, w).meta["route"] == "assignment"
    off = c.copy()
    off[0, 1] = 0.4
    nonzero_diag = c + 0.1 * np.eye(4)
    for cost in (off, nonzero_diag, c[:, :3]):
        aa = a[:cost.shape[0]] / a[:cost.shape[0]].sum()
        r = discrete_ot_exact(cost, aa, b[:cost.shape[1]] /
                              b[:cost.shape[1]].sum())
        assert r.meta["route"] == "simplex"


def test_ot_failed_assignment_certificate_falls_back_to_lp(monkeypatch):
    rng = np.random.default_rng(4)
    c = rng.uniform(size=(5, 5))
    w = np.full(5, 0.2)

    def uncertified(cs, a, b):
        fun, u, v, plan = transport._assignment_route(cs, a, b)
        return fun, u + 1e-6, v, plan   # duals now infeasible

    monkeypatch.setitem(transport._ROUTES, "assignment", uncertified)
    r = discrete_ot_exact(c, w, w)
    assert r.meta["route"] == "lp"
    assert abs(r.cost - _lp_value(c, w, w)) <= 1e-12
    _assert_certified(r, c)


def test_ot_failed_discrete_metric_certificate_falls_back_to_lp(
        monkeypatch):
    c = 0.5 * (1.0 - np.eye(4))
    a = np.array([0.4, 0.1, 0.3, 0.2])
    b = np.array([0.1, 0.2, 0.3, 0.4])

    def uncertified(cs, a, b):
        fun, u, v, plan = transport._discrete_metric_route(cs, a, b)
        return fun, u + 1e-6, v, plan   # duals now infeasible

    monkeypatch.setitem(transport._ROUTES, "discrete-metric", uncertified)
    r = discrete_ot_exact(c, a, b)
    assert r.meta["route"] == "lp"
    assert abs(r.cost - 0.15) <= 1e-12
    _assert_certified(r, c)


def test_ot_simplex_pivot_cap_falls_back_to_lp(monkeypatch):
    rng = np.random.default_rng(5)
    c = rng.uniform(size=(6, 7))
    a = rng.uniform(size=6)
    b = rng.uniform(size=7)
    a, b = a / a.sum(), b / b.sum()
    assert discrete_ot_exact(c, a, b).meta["route"] == "simplex"
    monkeypatch.setattr(transport, "SIMPLEX_PIVOTS", 0)
    assert transport._simplex_route(c / c.max(), a, b) is None
    r = discrete_ot_exact(c, a, b)
    assert r.meta["route"] == "lp"
    assert abs(r.cost - _lp_value(c, a, b)) <= 1e-12
    _assert_certified(r, c)


def test_ot_size_cap():
    with pytest.raises(SizeCap):
        discrete_ot_exact(np.zeros((2049, 512)), np.full(2049, 1 / 2049),
                          np.full(512, 1 / 512))


def test_ot_rejects_unnormalized_weights():
    with pytest.raises(ValueError):
        discrete_ot_exact(np.ones((2, 2)), [0.5, 0.4], [0.5, 0.5])


def test_ot_rejects_negative_cost():
    with pytest.raises(Error):
        discrete_ot_exact(np.array([[-1.0, 0.0], [0.0, 1.0]]),
                          [0.5, 0.5], [0.5, 0.5])


# --------------------------------------------------------------- w2_gaussian

def test_w2_gaussian_identical():
    c = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert w2_gaussian([0.0, 0.0], c, [0.0, 0.0], c) == pytest.approx(0.0, abs=1e-7)


def test_w2_gaussian_mean_shift():
    c = np.array([[1.5, 0.2], [0.2, 0.8]])
    assert w2_gaussian([0.0, 0.0], c, [3.0, 4.0], c) == pytest.approx(5.0, abs=1e-7)


def test_w2_gaussian_1d_sigmas():
    # N(0, 4) vs N(0, 1): |2 - 1|
    assert w2_gaussian([0.0], [[4.0]], [0.0], [[1.0]]) == pytest.approx(1.0)


def test_w2_gaussian_commuting_diagonal():
    c1 = np.diag([4.0, 9.0])
    c2 = np.diag([1.0, 1.0])
    # commuting case: sum of (sqrt(l1) - sqrt(l2))^2 = 1 + 4
    expected = math.sqrt(1.0 + 4.0)
    assert w2_gaussian([0.0, 0.0], c1, [0.0, 0.0], c2) == pytest.approx(expected)


def test_w2_gaussian_degenerate_covariance():
    # against a point mass: sqrt(|m|^2 + tr C)
    val = w2_gaussian([1.0, 1.0], np.eye(2), [0.0, 0.0], np.zeros((2, 2)))
    assert val == pytest.approx(math.sqrt(2.0 + 2.0))


def test_w2_gaussian_vs_empirical_ot():
    # closed form against exact OT on subsampled Gaussian clouds
    stream = make_stream(77, 0)
    c1 = np.array([[1.0, 0.4], [0.4, 2.0]])
    c2 = np.eye(2)
    l1 = np.linalg.cholesky(c1)
    x = make_stream(77, 1).normal((1000, 2)) @ l1.T
    y = make_stream(77, 2).normal((1000, 2)) + np.array([1.0, 0.0])
    exact = w2_gaussian([0.0, 0.0], c1, [1.0, 0.0], c2)

    def sq_euclid(a, b):
        return euclidean_metric(a, b) ** 2

    # W2^2 via capless exact OT on 300-point stratified subsamples
    from adaptmc.transport import _stratified_indices
    costs = []
    for r in range(16):
        sub = stream.substream(r)
        ix = _stratified_indices(x, np.full(1000, 1e-3), 300, sub.uniform(300))
        iy = _stratified_indices(y, np.full(1000, 1e-3), 300, sub.uniform(300))
        w = np.full(300, 1.0 / 300.0)
        costs.append(math.sqrt(discrete_ot_exact(sq_euclid(x[ix], y[iy]), w, w).cost))
    costs = np.array(costs)
    assert abs(costs.mean() - exact) <= 3.0 * costs.std(ddof=1) + 0.05


# ----------------------------------------------------------------- sliced_w1

def test_sliced_identical():
    m = EmpiricalMeasure(np.random.default_rng(0).normal(size=(50, 3)))
    r = sliced_w1(m, m, 8, make_stream(1, 0))
    assert r.cost == pytest.approx(0.0, abs=1e-12)


def test_sliced_mean_shift_analytic():
    # shifting a cloud by m gives projected W1 exactly |<u, m>|, whose mean
    # over uniform directions is |m| * E|u_1| = |m| * Gamma(d/2) /
    # (sqrt(pi) Gamma((d+1)/2))
    d = 3
    shift = np.array([0.8, -0.3, 0.5])
    pts = make_stream(9, 0).normal((10000, d))
    mu = EmpiricalMeasure(pts)
    nu = EmpiricalMeasure(pts + shift)
    r = sliced_w1(mu, nu, 64, make_stream(9, 1))
    c_d = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d + 1) / 2.0))
    expected = np.linalg.norm(shift) * c_d
    assert abs(r.cost - expected) <= 3.0 * r.error


def test_sliced_lower_bounds_w1():
    rng = np.random.default_rng(4)
    mu = EmpiricalMeasure(rng.normal(size=(200, 2)))
    nu = EmpiricalMeasure(rng.normal(size=(200, 2)) + 0.7)
    r = sliced_w1(mu, nu, 32, make_stream(4, 0))
    full = discrete_ot_exact(euclidean_metric(mu.points, nu.points),
                             mu.weights, nu.weights)
    assert r.cost <= full.cost + 1e-9


def test_sliced_rejects_1d():
    m = EmpiricalMeasure([0.0, 1.0])
    with pytest.raises(DimensionError):
        sliced_w1(m, m, 4, make_stream(0, 0))


# ----------------------------------------------------------- bounded_distance

def test_bounded_identical():
    m = EmpiricalMeasure(np.random.default_rng(1).normal(size=(20, 2)))
    assert bounded_distance(m, m).cost == pytest.approx(0.0, abs=1e-12)


def test_bounded_cap_binds():
    r = bounded_distance(EmpiricalMeasure([[0.0]]), EmpiricalMeasure([[7.0]]))
    assert r.cost == pytest.approx(1.0)


def test_bounded_below_uncapped():
    rng = np.random.default_rng(8)
    mu = EmpiricalMeasure(rng.normal(size=(40, 2)))
    nu = EmpiricalMeasure(rng.normal(size=(40, 2)) + 1.5)
    capped = bounded_distance(mu, nu).cost
    uncapped = discrete_ot_exact(euclidean_metric(mu.points, nu.points),
                                 mu.weights, nu.weights).cost
    assert capped <= uncapped + 1e-9
    assert capped <= 1.0 + 1e-12


def test_bounded_subsample_close_to_exact():
    rng = np.random.default_rng(21)
    mu = EmpiricalMeasure(rng.normal(size=(600, 1)))
    nu = EmpiricalMeasure(rng.normal(size=(600, 1)) * 1.4 + 0.3)
    exact = bounded_distance(mu, nu, subsample=600).cost
    est = bounded_distance(mu, nu, subsample=128, stream=make_stream(21, 0))
    assert est.meta["subsampled"] is True
    assert abs(est.cost - exact) <= max(4.0 * est.error, 0.05)


def test_bounded_subsample_needs_stream():
    m = EmpiricalMeasure(np.arange(40.0))
    with pytest.raises(ValueError):
        bounded_distance(m, m, subsample=8)


def test_bounded_subsample_cap():
    m = EmpiricalMeasure([0.0])
    with pytest.raises(SizeCap):
        bounded_distance(m, m, subsample=2048)


def test_bounded_deterministic_given_stream_key():
    rng = np.random.default_rng(3)
    mu = EmpiricalMeasure(rng.normal(size=(300, 1)))
    nu = EmpiricalMeasure(rng.normal(size=(300, 1)) + 1.0)
    a = bounded_distance(mu, nu, subsample=64, stream=make_stream(5, 9))
    b = bounded_distance(mu, nu, subsample=64, stream=make_stream(5, 9))
    assert a.cost == b.cost
    assert a.error == b.error


# -------------------------------------------------------------- metric axioms

def test_symmetry():
    rng = np.random.default_rng(12)
    mu = EmpiricalMeasure(rng.normal(size=(30, 2)))
    nu = EmpiricalMeasure(rng.normal(size=(25, 2)) + 0.5)
    ab = bounded_distance(mu, nu).cost
    ba = bounded_distance(nu, mu).cost
    assert abs(ab - ba) <= 1e-10


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(13)
    for trial in range(5):
        ms = [EmpiricalMeasure(rng.normal(size=(15, 2)) + rng.normal(size=2))
              for _ in range(3)]
        d01 = bounded_distance(ms[0], ms[1]).cost
        d12 = bounded_distance(ms[1], ms[2]).cost
        d02 = bounded_distance(ms[0], ms[2]).cost
        assert d02 <= d01 + d12 + 1e-9


def test_w1_triangle_inequality():
    rng = np.random.default_rng(14)
    for trial in range(5):
        ms = [EmpiricalMeasure(rng.normal(size=20) + rng.normal())
              for _ in range(3)]
        d01 = w_exact_1d(ms[0], ms[1]).cost
        d12 = w_exact_1d(ms[1], ms[2]).cost
        d02 = w_exact_1d(ms[0], ms[2]).cost
        assert d02 <= d01 + d12 + 1e-12


# ------------------------------------------------------ closed-form uniform W1

def test_atoms_vs_uniform_hand_values():
    # single atom at 1/2: integral of |1[s >= 1/2] - s| = 1/4
    assert w1_atoms_vs_uniform01([0.5]) == pytest.approx(0.25)
    # atoms {0, 1/2}: 2^-2 * (0 + 1) / 2 ... direct integral gives 1/4
    assert w1_atoms_vs_uniform01([0.0, 0.5]) == pytest.approx(0.25)
    # 16 dyadic atoms: exactly 2^-5
    assert w1_atoms_vs_uniform01(np.arange(16) / 16.0) == pytest.approx(2.0 ** -5)


def test_atoms_vs_uniform_matches_quantile_discretization():
    rng = np.random.default_rng(6)
    for trial in range(4):
        pts = rng.uniform(size=9)
        w = rng.uniform(size=9)
        closed = w1_atoms_vs_uniform01(pts, w)
        approx = w_exact_1d(EmpiricalMeasure(pts, weights=w),
                            unif_quantile_atoms(100000), p=1).cost
        assert abs(closed - approx) <= 1e-5


def test_atoms_outside_unit_interval():
    # point mass at 2: integral of F_U gap = int_0^1 s ds + 1 = 1.5
    assert w1_atoms_vs_uniform01([2.0]) == pytest.approx(1.5)
