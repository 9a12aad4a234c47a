"""Scenario descriptions and the integrand evaluator registry.

A scenario bundles everything a check or CLI run needs to generate paths
and integrands: space dimensions, the covariance spec, drivers and an
integrand description.  The covariance, from a spectrum or a decay law
(:func:`resolve_law`), and the driver recipe
(:func:`levyint.processes.normalize_drivers`) are resolved once, when the
config is parsed; ``drivers`` may instead hold a replay mapping.
Scenarios are plain data, so they pickle cleanly across worker processes.

:func:`build_integrand` builds a scenario's integrand, a function of a
block of sampled paths (:class:`levyint.processes.PathBlock`) that
returns one value per path and grid node, where the value at node k is
computed from path data up to node k only; that is what makes left-point
sampling predictable.  The grid family is a named evaluator bound to its
draws by :func:`functools.partial`, the simple family a
:class:`levyint.integrators.SimpleIntegrand`.  The right-point fault is
injected where an integrand is built: node k takes node k + 1's value.

Grid evaluators:

* ``constant``: a fixed value, given explicitly or drawn once per scenario.
* ``driver_linear``: value at node k is affine in the cumulative driver
  values at node k, c0 + sum_m L_m(t_k) c1[m], evaluated as one product
  of the path's node inputs with the stacked coefficients [c0; c1].
  Unbounded but square-integrable.
* ``driver_tanh``: tanh of the same affine expression, hence bounded.

An operator carrier's raw values are (dim_h, dim_u) matrices on the
reference coordinates of U; given a covariance spec, the builder makes
them Hilbert-Schmidt when it draws them.  The restriction is linear, so
for ``constant`` and ``driver_linear`` it runs once, on the drawn
coefficients; for ``driver_tanh`` it runs on every node value, after the
tanh (:func:`restrict_integrand`).  Either way it is
:func:`levyint.spaces.restrict_bounded_operator`, and which evaluators
commute with it is read from the config, never from a built integrand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import rng as _rng
from .errors import ConfigInvalid, expect_number
from .integrators import SimpleIntegrand, node_values
from .processes import (PathSampler, StandardLevySpec, normalize_drivers,
                        scheduled_nodes)
from .spaces import CovarianceSpec, make_covariance, restrict_bounded_operator

CARRIERS = ("hvector", "seqh", "operator")
FAULTS = ("right_point", "nonorthogonal_basis")

# perturbation size for the deliberately broken eigenbasis; far above the
# construction tolerance and far above 4-sigma noise at default path counts
BASIS_FAULT_EPS = 0.05


# B_2j / (2j)! for j = 1..7, the Euler-Maclaurin corrections of a power sum
_EULER_MACLAURIN = np.array([b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), 1)])


def _hurwitz_zeta(p: float, q: float) -> float:
    """sum_{k>=0} (q + k)**-p for p > 1 and q >= 1, by Euler-Maclaurin.

    Twelve terms are summed directly; the rest is the integral, the half
    term and the corrections B_2 .. B_14 at a = q + 12.
    """
    head = math.fsum(((q + np.arange(12)) ** -p).tolist())
    a = q + 12.0
    # p (p + 1) ... (p + 2j - 2) / a**(2j - 1) for j = 1..7
    rising = np.cumprod((p + np.arange(13)) / a)[::2]
    return head + a ** -p * (a / (p - 1.0) + 0.5
                             + float(_EULER_MACLAURIN @ rising))


# the desk's decay law, which a scenario without a covariance takes
DESK_LAW = {"kind": "geometric", "c": 0.5, "r": 0.5}


def resolve_law(law: dict, n_modes: int) -> tuple:
    """(eigenvalues, tail mass) of a decay law on ``n_modes`` modes.

    ``law`` has ``kind`` in {"power", "geometric"}: power means
    c * j**(-p) with p > 1, geometric means c * r**j with 0 < r < 1, both
    for j = 1..n_modes; the tail mass is the law's analytic remainder.
    """
    kind = law.get("kind")
    c = expect_number(law.get("c", 1.0), "covariance.eigenvalues.c")
    js = np.arange(1, n_modes + 1, dtype=float)
    if kind == "power":
        p = expect_number(law.get("p"), "covariance.eigenvalues.p")
        if p <= 1:
            raise ConfigInvalid("covariance.eigenvalues.p must exceed 1")
        return c * js ** (-p), c * float(_hurwitz_zeta(p, n_modes + 1))
    if kind == "geometric":
        r = expect_number(law.get("r"), "covariance.eigenvalues.r")
        if not 0 < r < 1:
            raise ConfigInvalid("covariance.eigenvalues.r must lie in (0, 1)")
        return c * r ** js, c * r ** (n_modes + 1) / (1.0 - r)
    raise ConfigInvalid(
        f"covariance.eigenvalues.kind {kind!r} not one of power, geometric")


@dataclass(frozen=True)
class IntegrandConfig:
    """What to integrate: family, value carrier, evaluator and its draw."""

    family: str = "grid"             # "grid" | "simple"
    carrier: str = "operator"        # "hvector" | "seqh" | "operator"
    evaluator: str = "driver_linear"
    seed: int = 0
    scale: float = 1.0
    value: object = None             # explicit constant value (nested list ok)
    breakpoints: Optional[tuple] = None   # simple family only

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise ConfigInvalid(
                f"integrand.carrier {self.carrier!r} not one of {CARRIERS}")
        if self.family not in ("grid", "simple"):
            raise ConfigInvalid(
                f"integrand.family {self.family!r} not one of grid, simple")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation setup.

    ``covariance`` is the resolved spec on ``n_modes`` modes, by default
    the identity basis and :data:`DESK_LAW` with its tail mass.
    ``drivers`` is a non-empty tuple from
    :func:`levyint.processes.normalize_drivers`, or a replay mapping;
    anything else fails when the scenario is built.
    """

    dim_h: int = 4
    n_modes: int = 6
    horizon: float = 1.0
    n_scheduled: int = 64
    covariance: Optional[CovarianceSpec] = None
    drivers: object = normalize_drivers((   # or {"replay": ...}
        "brownian", {"preset": "poisson", "a": 0.5},
        {"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0}))
    integrand: IntegrandConfig = field(default_factory=IntegrandConfig)
    fault: Optional[str] = None

    def __post_init__(self):
        if self.covariance is None:
            lam, tail = resolve_law(DESK_LAW, self.n_modes)
            object.__setattr__(self, "covariance",
                               make_covariance(lam, "identity", tail))
        elif self.covariance.n_modes != self.n_modes:
            raise ConfigInvalid(
                f"covariance.eigenvalues lists {self.covariance.n_modes} "
                f"values, space.J is {self.n_modes}")
        d = self.drivers
        if not isinstance(d, dict) and (
                type(d) is not tuple
                or set(map(type, d)) != {StandardLevySpec}):
            raise ConfigInvalid(
                "drivers must be a replay mapping or a non-empty tuple of "
                "specs from levyint.processes.normalize_drivers, got "
                f"{d!r}")
        if self.fault is not None and self.fault not in FAULTS:
            raise ConfigInvalid(
                f"fault {self.fault!r} not one of {', '.join(FAULTS)}")
        b = self.integrand.breakpoints
        if self.integrand.family == "simple" and b is not None and (
                len(b) < 2 or b[0] != 0.0 or b[-1] != self.horizon
                or not all(x < y for x, y in zip(b, b[1:]))):
            raise ConfigInvalid("integrand.breakpoints must strictly increase "
                                f"from 0 to space.T {self.horizon}, got {b!r}")

    def with_fault(self, fault: Optional[str]) -> "ScenarioConfig":
        return replace(self, fault=fault)


def resolve_covariance(scenario: ScenarioConfig) -> CovarianceSpec:
    """The spec a scenario samples: under the basis fault, a broken copy."""
    spec = scenario.covariance
    if scenario.fault != "nonorthogonal_basis":
        return spec
    basis = np.array(spec.eigenbasis)
    if basis.shape[1] >= 2:
        basis[:, 0] += BASIS_FAULT_EPS * basis[:, 1]
    else:
        basis[:, 0] *= 1.0 + BASIS_FAULT_EPS
    # deliberate bypass of make_covariance: the point is a broken basis
    return CovarianceSpec(spec.eigenvalues, basis, spec.tail_mass)


def _extra_times(scenario: ScenarioConfig, probes) -> tuple:
    """A simple integrand's inner breakpoints, then the probe times."""
    cfg = scenario.integrand
    extra = tuple(probes)
    if cfg.family == "simple" and cfg.breakpoints is not None:
        extra = tuple(cfg.breakpoints[1:-1]) + extra
    return extra


def driver_specs(scenario: ScenarioConfig) -> tuple:
    """One spec per component: the normalized recipe, cycled over the
    ``n_modes`` components when it is shorter."""
    specs = scenario.drivers
    return tuple(specs[i % len(specs)] for i in range(scenario.n_modes))


def make_sampler(scenario: ScenarioConfig, probes: tuple = ()) -> PathSampler:
    """The scenario's sampler.

    A simple integrand's breakpoints and the ``probes``, times at which a
    check reads the path, join its grid, so that each is a node of every
    path.
    """
    return PathSampler(driver_specs(scenario), scenario.horizon,
                       scenario.n_scheduled, _extra_times(scenario, probes))


def path_law(scenario: ScenarioConfig, probes: tuple = ()) -> tuple:
    """What ``make_sampler(scenario, probes)`` draws from, as a dict key.

    The normalized driver specs, the horizon and the bytes of the merged
    grid: scenarios with equal laws sample equal paths from one seed,
    whatever their integrands, and without building a sampler.
    """
    grid = scheduled_nodes(scenario.horizon, scenario.n_scheduled,
                           _extra_times(scenario, probes))
    return driver_specs(scenario), scenario.horizon, grid.tobytes()


# ---------------------------------------------------------------------------
# evaluator registry


def value_shape(scenario: ScenarioConfig, carrier: str) -> tuple:
    """The shape of one node value of an integrand with this carrier."""
    if carrier == "hvector":
        return (scenario.dim_h,)
    if carrier == "seqh":
        return (scenario.n_modes, scenario.dim_h)
    return (scenario.dim_h, scenario.covariance.dim_u)


def _eval_constant(path, coeffs: np.ndarray) -> np.ndarray:
    return np.broadcast_to(coeffs, path.grid.times.shape + coeffs.shape)


def _affine(path, coeffs: np.ndarray) -> np.ndarray:
    """c0 + sum_m cum[m, k] c1[m] at every node k, batch axes first.

    ``coeffs`` stacks [c0; c1], (1 + n_inputs, *value_shape), so the sum
    is one product of the path's node inputs, a one and then every
    cumulative value, with the flattened coefficients.
    """
    x = path.node_inputs
    out = x @ coeffs.reshape(coeffs.shape[0], -1)
    return out.reshape(x.shape[:-1] + coeffs.shape[1:])


def _eval_driver_linear(path, coeffs: np.ndarray) -> np.ndarray:
    return _affine(path, coeffs)


def _eval_driver_tanh(path, coeffs: np.ndarray) -> np.ndarray:
    out = _affine(path, coeffs)
    return np.tanh(out, out=out)


_GRID_EVALUATORS = ("constant", "driver_linear", "driver_tanh")


def _constant_value(cfg: IntegrandConfig, shape: tuple) -> np.ndarray:
    """The explicit ``value``, which must have ``shape``, or ``scale``
    times standard normals of that shape from the integrand seed's stream."""
    if cfg.value is None:
        gen = _rng.stream(cfg.seed, 0, 0, _rng.INTEGRAND)
        return cfg.scale * gen.standard_normal(shape)
    value = np.asarray(cfg.value, dtype=float)
    if value.shape != shape:
        raise ConfigInvalid(f"integrand.value has shape {value.shape}, "
                            f"need {shape}")
    return value


def build_grid_integrand(cfg: IntegrandConfig, carrier_shape: tuple,
                         n_inputs: int,
                         cov: Optional[CovarianceSpec] = None) -> partial:
    """Materialize a grid integrand, a function of a block; coefficient
    draws are scenario-level.

    ``n_inputs`` is the number of path components the evaluator sees
    (driver components, or reference coordinates for observable-path
    integrands).  With ``cov``, the (dim_h, dim_u) operator values are
    restricted to (dim_h, n_modes) (module docstring).  ``constant`` and
    ``driver_linear`` restrict their coefficients, the value or the stacked
    [c0; c1], and store them C-contiguous (..., n_modes, dim_h): the node
    values are a transposed view whose Psi_lambda view is contiguous and
    reshapes into the kernels without a copy.
    """
    if cfg.evaluator not in _GRID_EVALUATORS:
        raise ConfigInvalid(
            f"integrand.evaluator {cfg.evaluator!r} not one of {_GRID_EVALUATORS}")
    if cfg.evaluator == "constant":
        fn, c = _eval_constant, _constant_value(cfg, carrier_shape)
    else:
        gen = _rng.stream(cfg.seed, 0, 0, _rng.INTEGRAND)
        c0 = cfg.scale * gen.standard_normal(carrier_shape)
        c1 = (cfg.scale / np.sqrt(n_inputs)) * gen.standard_normal(
            (n_inputs,) + carrier_shape)
        fn = (_eval_driver_linear if cfg.evaluator == "driver_linear"
              else _eval_driver_tanh)
        c = np.concatenate([c0[None], c1])
    raw = partial(fn, coeffs=c)
    if cov is None:
        return raw
    if cfg.evaluator == "driver_tanh":
        return restrict_integrand(raw, cov)
    # (..., dim_h, n_modes) values, stored (..., n_modes, dim_h)
    c = restrict_bounded_operator(cov, c).swapaxes(-1, -2)
    return partial(_eval_folded,
                   raw_eval=partial(fn, coeffs=np.ascontiguousarray(c)))


def _eval_restricted(path, raw_eval, spec: CovarianceSpec) -> np.ndarray:
    return restrict_bounded_operator(spec, raw_eval(path))


def _eval_folded(path, raw_eval) -> np.ndarray:
    return raw_eval(path).swapaxes(-1, -2)


def _eval_right_point(path, integrand) -> np.ndarray:
    """The right-point fault: node k takes node k + 1's value and the last
    node keeps its own, in the memory layout the kernels' rounding depends
    on; values constant along the nodes (stride 0) are their own shift."""
    v = node_values(integrand, path)
    if v.strides[1] == 0:
        return v
    out = np.empty_like(v)
    out[:, :-1], out[:, -1] = v[:, 1:], v[:, -1]
    return out


def _with_fault(scenario: ScenarioConfig, integrand):
    """The integrand, or under the right-point fault its shifted form."""
    if scenario.fault != "right_point":
        return integrand
    return partial(_eval_right_point, integrand=integrand)


def restrict_integrand(raw, spec: CovarianceSpec) -> partial:
    """``raw`` with every node value restricted per ``spec``."""
    return partial(_eval_restricted, raw_eval=raw, spec=spec)


def build_integrand(scenario: ScenarioConfig,
                    cov: Optional[CovarianceSpec] = None, *,
                    n_inputs: Optional[int] = None, seed_offset: int = 0):
    """Materialize the scenario integrand, grid or simple family.

    A grid integrand takes the value convention of its carrier; with
    ``cov``, an operator carrier's (dim_h, dim_u) matrices on the
    reference coordinates of U are restricted to their Hilbert-Schmidt
    form per that spec (:func:`build_grid_integrand`).  A simple integrand
    holds H vectors, one per interval of ``integrand.breakpoints``: the
    explicit ``value`` or, like the ``constant`` evaluator's, normals from
    the integrand seed.
    """
    cfg = scenario.integrand
    if seed_offset:
        cfg = replace(cfg, seed=cfg.seed + seed_offset)
    if cfg.family == "grid":
        shape = value_shape(scenario, cfg.carrier)
        inputs = scenario.n_modes if n_inputs is None else n_inputs
        return _with_fault(scenario,
                           build_grid_integrand(cfg, shape, inputs, cov))
    b = cfg.breakpoints
    if b is None:
        raise ConfigInvalid("a simple integrand needs integrand.breakpoints")
    values = _constant_value(cfg, (len(b) - 1, scenario.dim_h))
    return _with_fault(scenario, SimpleIntegrand(b, values))
