"""Sparsemax against a brute-force simplex grid search, plus Jacobian checks."""

import numpy as np
import pytest

from smat import autodiff as ad
from conftest import fd_gradients, rel_err


def simplex_grid(dim, step=1e-3):
    """All points of the regular grid on the probability simplex."""
    n = round(1.0 / step)
    if dim == 2:
        i = np.arange(n + 1)
        return np.stack([i, n - i], axis=1) / n
    if dim == 3:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = i + j <= n
        i, j = i[keep], j[keep]
        return np.stack([i, j, n - i - j], axis=1) / n
    raise ValueError("grid oracle only built for dims 2 and 3")


def grid_project(z, grid):
    """Nearest grid point to z in Euclidean distance: the brute-force oracle."""
    d = ((grid - z[None, :]) ** 2).sum(axis=1)
    return grid[int(np.argmin(d))]


GRIDS = {2: simplex_grid(2), 3: simplex_grid(3)}


def test_matches_grid_search_oracle():
    """100 seeded random z, H in {2, 3}: L-inf distance to the oracle <= 2e-3."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        dim = 2 if trial % 2 == 0 else 3
        z = rng.normal(scale=1.5, size=dim)
        got = ad.sparsemax_project(z.astype(np.float64))
        want = grid_project(z, GRIDS[dim])
        assert np.abs(got - want).max() <= 2e-3, f"trial {trial}: z={z}"


def test_zero_input_is_uniform():
    for dim in (2, 3, 5, 8):
        out = ad.sparsemax_project(np.zeros(dim))
        assert np.array_equal(out, np.full(dim, 1.0 / dim))


def test_known_projections():
    out = ad.sparsemax_project(np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    out = ad.sparsemax_project(np.array([0.3, 0.2, -0.1]))
    assert np.allclose(out, [0.5, 0.4, 0.1], atol=1e-12)


def test_output_is_on_simplex():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.normal(scale=3.0, size=int(rng.integers(2, 9)))
        p = ad.sparsemax_project(z)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-9


def test_projection_is_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = ad.sparsemax_project(rng.normal(size=4))
        again = ad.sparsemax_project(p)
        assert np.allclose(again, p, atol=1e-12)


def test_tied_inputs_get_equal_mass():
    out = ad.sparsemax_project(np.array([0.5, 0.5, -1.0]))
    assert np.array_equal(out, np.array([0.5, 0.5, 0.0]))
    # determinism under permutation of a tie
    a = ad.sparsemax_project(np.array([0.2, 0.2, 0.1]))
    b = ad.sparsemax_project(np.array([0.2, 0.1, 0.2]))
    assert a[0] == a[1] and b[0] == b[2]


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        ad.sparsemax_project(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ad.sparsemax_project(np.zeros(0))


# ---------------------------------------------------------------------------
# vector-Jacobian products


def vjp_at(z, upstream):
    t = ad.Tensor(z, requires_grad=True, dtype=np.float64)
    p = ad.sparsemax(t)
    loss = ad.tsum(ad.mul(p, ad.constant(upstream, dtype=np.float64)))
    return ad.backward(loss, [t])[0].data


def test_vjp_annihilates_constants_on_uniform():
    out = vjp_at(np.zeros(2), np.array([1.0, 1.0]))
    assert np.allclose(out, [0.0, 0.0], atol=1e-12)


def test_vjp_zero_on_saturated_point():
    out = vjp_at(np.array([2.0, -2.0]), np.array([1.0, 0.0]))
    assert np.array_equal(out, np.zeros(2))


def test_vjp_full_support_closed_form():
    # p = (0.5, 0.4, 0.1): J = I - ones/3, so (3,0,0) maps to (2,-1,-1)
    out = vjp_at(np.array([0.3, 0.2, -0.1]), np.array([3.0, 0.0, 0.0]))
    assert np.allclose(out, [2.0, -1.0, -1.0], atol=1e-12)


def support_of(z):
    return tuple(np.nonzero(ad.sparsemax_project(z) > 0)[0].tolist())


def test_jacobian_matches_finite_differences_at_stable_points():
    """Full Jacobian vs per-coordinate FD wherever the support is stable."""
    rng = np.random.default_rng(5)
    h = 1e-6
    checked = 0
    while checked < 10:
        dim = int(rng.integers(2, 5))
        z = rng.normal(scale=1.2, size=dim)
        p = ad.sparsemax_project(z)
        if np.any((p > 0) & (p < 1e-3)):
            continue  # too close to a support change for FD
        stable = all(
            support_of(probe) == support_of(z)
            for i in range(dim)
            for probe in (z + h * np.eye(dim)[i], z - h * np.eye(dim)[i])
        )
        if not stable:
            continue
        rows = np.stack([vjp_at(z, np.eye(dim)[i]) for i in range(dim)])

        def value_row(arrs, i):
            return float(ad.sparsemax_project(arrs[0])[i])

        fd_rows = np.stack([
            fd_gradients(lambda arrs, i=i: value_row(arrs, i), [z], h=h)[0]
            for i in range(dim)
        ])
        assert rel_err(rows, fd_rows) < 1e-4, f"z={z}"
        checked += 1


def test_gradient_flows_through_graph():
    z = ad.Tensor(np.array([0.3, 0.2, -0.1]), requires_grad=True, dtype=np.float64)
    w = ad.constant(np.array([1.0, 2.0, 3.0]), dtype=np.float64)
    loss = ad.tsum(ad.mul(ad.sparsemax(z), w))
    (g,) = ad.backward(loss, [z])
    assert g.data.shape == (3,)
    assert not np.allclose(g.data, 0.0)


def test_rows_match_the_vector_op_exactly():
    rng = np.random.default_rng(15)
    phi = rng.normal(size=5).astype(np.float32) * np.float32(0.3)
    z = np.stack([phi, rng.normal(size=5).astype(np.float32), phi])
    g = rng.normal(size=(3, 5)).astype(np.float32)
    rows = ad.Tensor(z, requires_grad=True)
    (got,) = ad.backward(ad.tsum(ad.mul(ad.sparsemax(rows), ad.constant(g))), [rows])
    for i in range(3):
        one = ad.Tensor(z[i], requires_grad=True)
        p = ad.sparsemax(one)
        (want,) = ad.backward(ad.tsum(ad.mul(p, ad.constant(g[i]))), [one])
        assert np.array_equal(ad.sparsemax(rows).data[i], p.data)
        assert np.array_equal(got.data[i], want.data)
