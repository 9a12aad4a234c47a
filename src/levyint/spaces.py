"""Finite-dimensional models of the Hilbert spaces behind the integral construction.

Every vector is stored as coordinates with respect to a fixed reference
basis, and every change of basis is an explicit orthogonal matrix, so
basis-independence claims can be tested as exact float identities rather
than approximations.

Conventions used throughout the package:

* H vectors: ``(dim_h,)`` arrays; the H norm is the Euclidean norm.
* U vectors: ``(dim_u,)`` arrays in the reference basis of U.
* ``CovarianceSpec`` holds the spectral data of the covariance operator
  Q on U.  Column ``j`` of ``eigenbasis`` holds the reference coordinates
  of the unit eigenvector e_j belonging to ``eigenvalues[j]`` (lambda_j).
* Weighted sequences (the space l2_lambda): coordinate vectors ``v``
  with inner product ``sum_j eigenvalues[j] * v[j] * w[j]``.
* Sequences of H vectors: ``(n_modes, dim_h)`` arrays, row ``j`` an H
  vector; the squared norm is the sum of squared row norms.
* Hilbert-Schmidt operators: ``(dim_h, n_modes)`` arrays whose column
  ``j`` is the image of the j-th weighted basis direction, i.e.
  ``sqrt(eigenvalues[j])`` times the unit eigenvector.  The squared
  Hilbert-Schmidt norm is then the squared Frobenius norm.

The maps of the construction live here and nowhere else, and
sqrt(lambda) enters them through two matrices that ``CovarianceSpec``
builds once; each map is one product with one of them:

* Phi_lambda is ``analysis``, the transposed eigenbasis with row j divided
  by sqrt(lambda_j): u -> (<u, e_j> / sqrt(lambda_j))_j takes U to
  l2_lambda, and a path's standard components are its image.
* Phi_lambda^-1 is ``synthesis``, the eigenbasis with column j scaled by
  sqrt(lambda_j); it assembles the U-valued path from its components.
* The restriction makes a bounded operator on U Hilbert-Schmidt: the
  operator times ``synthesis``.  It is linear in the operator, so an
  integrand affine in its coefficients is restricted once, coefficient by
  coefficient, when it is drawn, and any other integrand node by node
  (:func:`levyint.scenarios.build_grid_integrand`).
* Psi_lambda turns a Hilbert-Schmidt operator into its sequence of
  columns, which the series integral sums term by term.

Phi_lambda and its inverse act on axis -2 (a path is one column per
node), the restriction and Psi_lambda on the last two axes; leading axes
are batch axes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigInvalid, LevyintError
from . import rng as _rng

# construction-time validation tolerance for orthogonality defects
GRAM_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovarianceSpec:
    """Spectral data of a trace-class covariance operator on U.

    ``eigenbasis`` has orthonormal columns; it is square in the typical
    case but may have more rows than columns when U is modelled with
    ambient directions that carry no variance.  Construction through
    :func:`make_covariance` validates orthonormality; building the
    dataclass directly trusts the caller (the verification harness uses
    that route to inject a deliberately broken basis).
    """

    eigenvalues: np.ndarray          # (n_modes,), strictly positive
    eigenbasis: np.ndarray           # (dim_u, n_modes), orthonormal columns
    tail_mass: float = 0.0           # declared spectral mass beyond the truncation
    synthesis: np.ndarray = field(init=False, repr=False, compare=False)
    analysis: np.ndarray = field(init=False, repr=False, compare=False)
    identity_basis: bool = field(init=False, repr=False, compare=False)
    n_modes: int = field(init=False, repr=False, compare=False)
    dim_u: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = _freeze(self.eigenvalues)
        basis = _freeze(self.eigenbasis)
        if lam.ndim != 1 or lam.size == 0:
            raise ConfigInvalid(
                "covariance.eigenvalues must be a nonempty vector")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ConfigInvalid("covariance.eigenvalues must be finite and > 0")
        if basis.ndim != 2 or basis.shape[1] != lam.size or basis.shape[0] < lam.size:
            raise ConfigInvalid(f"covariance.basis: eigenbasis shape "
                                f"{basis.shape} incompatible with {lam.size} modes")
        if not 0 <= self.tail_mass < np.inf:
            raise ConfigInvalid("covariance.tailMass must be finite and >= 0, "
                                f"got {float(self.tail_mass)!r}")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenbasis", basis)
        root = np.sqrt(lam)
        object.__setattr__(self, "synthesis", _freeze(basis * root))
        object.__setattr__(self, "analysis", _freeze(basis.T / root[:, None]))
        object.__setattr__(self, "n_modes", lam.size)
        object.__setattr__(self, "dim_u", basis.shape[0])
        object.__setattr__(
            self, "identity_basis",
            basis.shape[0] == basis.shape[1]
            and np.array_equal(basis, np.eye(basis.shape[0])))

    def gram_defect(self) -> float:
        g = self.eigenbasis.T @ self.eigenbasis
        return float(np.max(np.abs(g - np.eye(self.n_modes))))


def random_orthogonal(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix built from Householder reflections.

    Own implementation rather than a library QR so the result depends only
    on elementary float operations and is bit-stable across linear-algebra
    backends.
    """
    a = gen.standard_normal((n, n))
    q = np.eye(n)
    for k in range(n - 1):
        x = a[k:, k].copy()
        nx = np.sqrt(np.dot(x, x))
        if nx == 0.0:
            continue
        x[0] += nx if x[0] >= 0 else -nx
        w = x / np.sqrt(np.dot(x, x))
        a[k:, k:] -= 2.0 * np.outer(w, w @ a[k:, k:])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ w, w)
    d = np.sign(np.diag(a))
    d[d == 0] = 1.0
    return q * d


def make_covariance(eigenvalues, eigenbasis="identity", tail_mass: float = 0.0
                    ) -> CovarianceSpec:
    """Validated construction of a :class:`CovarianceSpec`.

    ``eigenbasis`` may be the string ``"identity"``, an explicit matrix
    with orthonormal columns, or a mapping ``{"seed": n}`` requesting a
    uniformly random orthogonal matrix drawn from the seeded basis stream.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if isinstance(eigenbasis, str):
        if eigenbasis != "identity":
            raise ConfigInvalid(
                f"covariance.basis: unknown eigenbasis directive {eigenbasis!r}")
        basis = np.eye(lam.size)
    elif isinstance(eigenbasis, dict):
        if set(eigenbasis) != {"seed"}:
            raise ConfigInvalid("covariance.basis must have exactly the key 'seed'")
        basis = random_orthogonal(lam.size, _rng.stream(int(eigenbasis["seed"]),
                                                        0, 0, _rng.BASIS))
    else:
        basis = np.asarray(eigenbasis, dtype=float)
    spec = CovarianceSpec(lam, basis, tail_mass)
    defect = spec.gram_defect()
    if not defect <= GRAM_TOL:
        raise ConfigInvalid(f"covariance.basis: eigenbasis Gram defect "
                            f"{defect:.3e} exceeds {GRAM_TOL:.0e}")
    return spec


def phi_lambda_apply(spec: CovarianceSpec, u: np.ndarray) -> np.ndarray:
    """Phi_lambda: U reference coordinates (..., dim_u, k) to l2_lambda."""
    if u.ndim < 2 or u.shape[-2] != spec.dim_u:
        raise LevyintError(
            f"expected {spec.dim_u} U coordinates on axis -2, got {u.shape}")
    return spec.analysis @ u


def phi_lambda_invert(spec: CovarianceSpec, w: np.ndarray) -> np.ndarray:
    """Phi_lambda^-1: l2_lambda coordinates (..., n_modes, k) to U."""
    if w.ndim < 2 or w.shape[-2] != spec.n_modes:
        raise LevyintError(
            f"expected {spec.n_modes} modes on axis -2, got {w.shape}")
    return spec.synthesis @ w


def restrict_bounded_operator(spec: CovarianceSpec, a: np.ndarray) -> np.ndarray:
    """The restriction: operators (..., dim_h, dim_u) on U to Hilbert-Schmidt.

    The result is (..., dim_h, n_modes) with squared norm at most
    ``opnorm(a)**2 * sum(eigenvalues)``.  Leading axes may be nodes and
    paths, or the coefficient axis of an affine integrand: the map is
    linear, so both give the same values up to rounding.
    """
    if a.ndim < 2 or a.shape[-1] != spec.dim_u:
        raise LevyintError(
            f"operator must have {spec.dim_u} columns, got {a.shape}")
    # one product over every leading axis, not one per operator
    out = a.reshape(-1, spec.dim_u) @ spec.synthesis
    return out.reshape(a.shape[:-1] + (spec.n_modes,))


def psi_lambda_apply(spec: CovarianceSpec, op: np.ndarray) -> np.ndarray:
    """Psi_lambda: operators (..., dim_h, n_modes) to their columns, a view.

    The view is C-contiguous when ``op`` is itself the transposed view of
    (..., n_modes, dim_h) memory, as restricted affine integrands emit it.
    """
    if op.ndim < 2 or op.shape[-1] != spec.n_modes:
        raise LevyintError(
            f"operator must have {spec.n_modes} columns, got {op.shape}")
    return op.swapaxes(-1, -2)


@dataclass(frozen=True)
class BasisIsometry:
    """Norm-preserving map of a weighted sequence space onto itself.

    ``coord_map`` acts directly on plain coordinate vectors; it is an
    orthogonal matrix supported on equal-eigenvalue blocks, which makes
    the map isometric for the weighted inner product and keeps
    eigenvectors of distinct eigenvalues orthogonal.
    """

    eigenvalues: np.ndarray
    coord_map: np.ndarray            # (n, n) orthogonal, block-supported

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))
        object.__setattr__(self, "coord_map", _freeze(self.coord_map))


def build_eigen_isometry(source: CovarianceSpec,
                         block_rotations=None) -> BasisIsometry:
    """Isometry of the weighted picture that mixes equal eigenvalues.

    ``block_rotations`` optionally maps an eigenvalue to an orthogonal
    matrix mixing the positions of that eigenvalue; equality of
    eigenvalues is exact, matching how repeated blocks are constructed.
    Omitted blocks use the identity, so the default is the identity map.
    Every position keeps its eigenvalue: on a truncation, reordering the
    eigenvalues would only reorder a finite sum.
    """
    lam = source.eigenvalues
    block_rotations = dict(block_rotations or {})
    cmap = np.zeros((lam.size, lam.size))
    for value in sorted(set(lam.tolist())):
        idx = np.flatnonzero(lam == value)
        rot = np.asarray(block_rotations.pop(value, np.eye(idx.size)),
                         dtype=float)
        if rot.shape != (idx.size, idx.size):
            raise LevyintError(
                f"rotation for eigenvalue {value} has shape {rot.shape}, "
                f"block needs {(idx.size, idx.size)}")
        defect = float(np.max(np.abs(rot.T @ rot - np.eye(idx.size))))
        if not defect <= GRAM_TOL:
            raise LevyintError(
                f"rotation for eigenvalue {value} has Gram defect {defect:.3e}")
        cmap[np.ix_(idx, idx)] = rot
    if block_rotations:
        raise LevyintError(
            f"rotations given for absent eigenvalues: {sorted(block_rotations)}")
    return BasisIsometry(lam, cmap)


def alternate_decomposition(spec: CovarianceSpec, iso: BasisIsometry
                            ) -> CovarianceSpec:
    """Second eigendecomposition of the same covariance operator.

    The new unit eigenvectors are the block mixes of the old ones encoded
    in ``iso``; the returned spec describes the identical operator, which
    is what the well-definedness checks integrate against.
    """
    if not np.array_equal(iso.eigenvalues, spec.eigenvalues):
        raise LevyintError("isometry source does not match the covariance spec")
    basis = spec.eigenbasis @ iso.coord_map.T
    return CovarianceSpec(spec.eigenvalues, basis, spec.tail_mass)
