"""Exact algebra of the space layer: coordinates, restrictions, isometries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyint import rng
from levyint.errors import ConfigInvalid, LevyintError
from levyint.spaces import (
    CovarianceSpec,
    alternate_decomposition,
    build_eigen_isometry,
    make_covariance,
    phi_lambda_apply,
    phi_lambda_invert,
    psi_lambda_apply,
    random_orthogonal,
    restrict_bounded_operator,
)

TWO_MODES = make_covariance((0.5, 0.25))


def gram_defect_fsum(q: np.ndarray) -> float:
    """Orthonormality defect computed with compensated summation."""
    worst = 0.0
    for i in range(q.shape[1]):
        for j in range(q.shape[1]):
            g = math.fsum(float(q[k, i]) * float(q[k, j])
                          for k in range(q.shape[0]))
            worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
    return worst


# ---------------------------------------------------------------------------
# construction and validation


def test_identity_covariance_fields():
    assert TWO_MODES.n_modes == 2
    assert TWO_MODES.dim_u == 2
    assert TWO_MODES.identity_basis
    root = np.sqrt(np.array([0.5, 0.25]))
    assert np.array_equal(TWO_MODES.synthesis, np.diag(root))
    assert np.array_equal(TWO_MODES.analysis, np.diag(1.0 / root))
    assert TWO_MODES.gram_defect() == 0.0


def test_covariance_arrays_are_frozen():
    with pytest.raises(ValueError):
        TWO_MODES.eigenvalues[0] = 1.0
    with pytest.raises(ValueError):
        TWO_MODES.eigenbasis[0, 0] = 2.0


def test_make_covariance_rejects_bad_spectra():
    with pytest.raises(ConfigInvalid, match="eigenvalues must be finite"):
        make_covariance((0.5, 0.0))
    with pytest.raises(ConfigInvalid, match="eigenvalues must be finite"):
        make_covariance((0.5, -0.25))
    with pytest.raises(ConfigInvalid, match="eigenvalues must be finite"):
        make_covariance((0.5, float("inf")))
    for tail in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid, match="tail_mass must be finite"):
            make_covariance((0.5,), tail_mass=tail)
        with pytest.raises(ConfigInvalid, match="tail_mass must be finite"):
            CovarianceSpec(np.array([0.5]), np.eye(1), tail)
    with pytest.raises(ConfigInvalid, match="must be a nonempty vector"):
        make_covariance([[0.5, 0.25]])
    with pytest.raises(ConfigInvalid, match="must be a nonempty vector"):
        make_covariance(())


def test_make_covariance_rejects_bad_bases():
    with pytest.raises(ConfigInvalid, match="Gram defect"):
        make_covariance((0.5, 0.25), [[1.0, 0.0], [0.3, 1.0]])
    # a NaN defect is no pass
    with pytest.raises(ConfigInvalid, match="Gram defect nan"):
        make_covariance((0.5, 0.25), [[float("nan"), 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigInvalid, match="unknown eigenbasis directive"):
        make_covariance((0.5, 0.25), "qr")
    with pytest.raises(ConfigInvalid, match="exactly the key 'seed'"):
        make_covariance((0.5, 0.25), {"seed": 1, "extra": 2})
    # fewer rows than modes can never have orthonormal columns
    with pytest.raises(ConfigInvalid, match=r"eigenbasis shape \(2, 3\)"):
        make_covariance((0.5, 0.25, 0.125), np.eye(3)[:2])


def test_direct_construction_skips_gram_validation():
    # the harness injects broken bases through this route on purpose
    broken = CovarianceSpec(np.array([0.5, 0.25]),
                            np.array([[1.0, 0.0], [0.3, 1.0]]))
    assert broken.gram_defect() > 0.1


def test_rectangular_basis_models_ambient_directions():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    spec = make_covariance((0.5, 0.25), basis)
    assert spec.dim_u == 3 and spec.n_modes == 2
    assert not spec.identity_basis
    w = phi_lambda_apply(spec, np.array([[1.0], [2.0], [5.0]]))
    # the third reference direction carries no variance and is dropped
    assert abs(float(spec.eigenvalues @ w[:, 0] ** 2) - 5.0) <= 1e-12


# ---------------------------------------------------------------------------
# random orthogonal matrices


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_random_orthogonal_is_orthogonal(n):
    for seed in range(3):
        q = random_orthogonal(n, rng.stream(seed, 0, 0, rng.BASIS))
        assert q.shape == (n, n)
        assert gram_defect_fsum(q) <= 1e-12


def test_random_orthogonal_is_deterministic():
    a = random_orthogonal(5, rng.stream(9, 0, 0, rng.BASIS))
    b = random_orthogonal(5, rng.stream(9, 0, 0, rng.BASIS))
    c = random_orthogonal(5, rng.stream(10, 0, 0, rng.BASIS))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# the weighted coordinate picture


def test_weighted_coordinates_frozen_case():
    w = phi_lambda_apply(TWO_MODES, np.array([[1.0], [2.0]]))
    assert w[0, 0] == 1.0 / math.sqrt(0.5)
    assert w[1, 0] == 4.0
    assert float(TWO_MODES.eigenvalues @ w[:, 0] ** 2) == 5.0
    back = phi_lambda_invert(TWO_MODES, w)
    assert np.max(np.abs(back - np.array([[1.0], [2.0]]))) <= 1e-15


def test_phi_rejects_wrong_length():
    with pytest.raises(LevyintError, match="expected 2 U coordinates"):
        phi_lambda_apply(TWO_MODES, np.ones((3, 1)))
    with pytest.raises(LevyintError, match="expected 2 U coordinates"):
        phi_lambda_apply(TWO_MODES, np.ones(2))
    with pytest.raises(LevyintError, match="expected 2 modes"):
        phi_lambda_invert(TWO_MODES, np.ones((3, 1)))


@given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_weighted_picture_preserves_inner_products(seed, n):
    gen = rng.stream(seed, 0, 0, rng.CASE)
    spec = make_covariance(gen.uniform(0.05, 4.0, n), {"seed": seed})
    u = gen.standard_normal((n, 2))        # two U vectors as columns
    w = phi_lambda_apply(spec, u)
    gram = u.T @ u
    weighted = w.T @ (spec.eigenvalues[:, None] * w)
    assert np.max(np.abs(weighted - gram)) <= 1e-10 * max(1.0, np.max(np.abs(gram)))
    # Phi_lambda^-1 inverts Phi_lambda, and Phi_lambda inverts Phi_lambda^-1
    assert np.max(np.abs(phi_lambda_invert(spec, w) - u)) <= 1e-10
    assert np.max(np.abs(phi_lambda_apply(spec, phi_lambda_invert(spec, w))
                         - w)) <= 1e-10 * max(1.0, np.max(np.abs(w)))


def test_maps_take_leading_batch_axes():
    spec = make_covariance((0.5, 0.25, 0.125), {"seed": 2})
    gen = rng.stream(3, 0, 0, rng.CASE)
    u = gen.standard_normal((4, 3, 5))
    op = gen.standard_normal((4, 2, 3))
    w = phi_lambda_apply(spec, u)
    restricted = restrict_bounded_operator(spec, op)
    for i in range(4):
        assert np.array_equal(w[i], phi_lambda_apply(spec, u[i]))
        assert np.array_equal(phi_lambda_invert(spec, w)[i],
                              phi_lambda_invert(spec, w[i]))
        assert np.allclose(restricted[i], restrict_bounded_operator(spec, op[i]),
                           rtol=0.0, atol=1e-15)
    assert np.array_equal(psi_lambda_apply(spec, restricted),
                          np.swapaxes(restricted, 1, 2))


def test_operator_unroll_preserves_norms():
    gen = rng.stream(2, 0, 0, rng.CASE)
    op = gen.standard_normal((3, 2))
    rows = psi_lambda_apply(TWO_MODES, op)
    assert rows.shape == (2, 3)
    assert np.array_equal(rows, op.T)
    assert abs(math.sqrt(np.sum(op * op))
               - math.sqrt(np.sum(rows * rows))) <= 1e-12
    with pytest.raises(LevyintError, match="operator must have 2 columns"):
        psi_lambda_apply(TWO_MODES, np.ones((3, 4)))


def test_restrict_bounded_operator_frozen_case():
    a = np.array([[1.0, 3.0]])
    s = restrict_bounded_operator(TWO_MODES, a)
    assert s[0, 0] == math.sqrt(0.5)
    assert s[0, 1] == 1.5
    hs2 = float(np.sum(s * s))
    assert abs(hs2 - 2.75) <= 1e-12
    # Hilbert-Schmidt mass is capped by opnorm(a)^2 times the eigenvalue sum
    bound = float(np.linalg.norm(a, 2)) ** 2 * float(np.sum(TWO_MODES.eigenvalues))
    assert hs2 <= bound + 1e-12
    with pytest.raises(LevyintError, match="operator must have 2 columns"):
        restrict_bounded_operator(TWO_MODES, np.ones((1, 3)))


@given(seed=st.integers(0, 10_000), dim_h=st.integers(1, 4), n=st.integers(1, 5),
       rotated=st.booleans())
@settings(max_examples=40, deadline=None)
def test_restriction_respects_operator_norm_bound(seed, dim_h, n, rotated):
    gen = rng.stream(seed, 0, 0, rng.CASE)
    spec = make_covariance(gen.uniform(0.05, 2.0, n),
                           {"seed": seed} if rotated else "identity")
    a = gen.standard_normal((dim_h, n))
    s = restrict_bounded_operator(spec, a)
    assert s.shape == (dim_h, n)
    bound = float(np.linalg.norm(a, 2)) ** 2 * float(np.sum(spec.eigenvalues))
    assert float(np.sum(s * s)) <= bound * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# isometries between decompositions


def test_block_rotation_isometry_and_alternate_decomposition():
    lam = (0.3, 0.3, 0.1)
    spec = make_covariance(lam, {"seed": 4})
    rot = random_orthogonal(2, rng.stream(5, 0, 0, rng.BASIS))
    iso = build_eigen_isometry(spec, {0.3: rot})
    cmap = iso.coord_map
    assert gram_defect_fsum(cmap) <= 1e-12
    # the block does not touch the 0.1 position
    assert cmap[2, 2] == 1.0 and np.all(cmap[2, :2] == 0.0)
    other = alternate_decomposition(spec, iso)
    assert other.gram_defect() <= 1e-10
    lam_d = np.diag(spec.eigenvalues)
    q1 = spec.eigenbasis @ lam_d @ spec.eigenbasis.T
    q2 = other.eigenbasis @ lam_d @ other.eigenbasis.T
    assert np.max(np.abs(q1 - q2)) <= 1e-12


def test_seqh_transport_matches_coordinate_map():
    from levyint.integrators import ito_seq
    from levyint.processes import assemble_levy, replay_path, transport_levy

    lam = (0.25, 0.25)
    spec = make_covariance(lam)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    iso = build_eigen_isometry(spec, {0.25: swap})
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    driver = replay_path([0.0, 0.5, 1.0], [[0.5, -1.5], [2.0, 0.25]])
    moved = transport_levy(assemble_levy(spec, driver), iso)

    def constant(value):
        return lambda p: np.broadcast_to(
            value, p.grid.times.shape + value.shape)

    # the coordinate map mixes sequence entries as the transport mixes
    # the components, so the integral does not move
    transported = iso.coord_map @ rows
    assert np.array_equal(transported, rows[::-1])
    assert np.array_equal(ito_seq(constant(transported), moved.driver),
                          ito_seq(constant(rows), driver))


def test_isometry_builder_rejects_bad_inputs():
    spec = make_covariance((0.5, 0.25))
    with pytest.raises(LevyintError, match=r"block needs \(1, 1\)"):
        build_eigen_isometry(spec, {0.5: np.eye(2)})
    with pytest.raises(LevyintError, match="absent eigenvalues"):
        build_eigen_isometry(spec, {0.9: np.eye(1)})
    pair = make_covariance((0.3, 0.3))
    with pytest.raises(LevyintError, match="Gram defect"):
        build_eigen_isometry(pair, {0.3: np.array([[1.0, 1.0], [0.0, 1.0]])})
    with pytest.raises(LevyintError, match="Gram defect nan"):
        build_eigen_isometry(pair, {0.3: np.array([[math.nan, 0.0],
                                                   [0.0, 1.0]])})


def test_isometry_spec_mismatches():
    spec = make_covariance((0.5, 0.25))
    iso = build_eigen_isometry(spec)
    other = make_covariance((0.4, 0.2))
    with pytest.raises(LevyintError, match="match the covariance spec"):
        alternate_decomposition(other, iso)
