"""Experiment config files: strict parsing.

Configs are JSON with camelCase keys.  Top level:

    {
      "space":      {"dH": 4, "J": 6, "T": 1.0, "nScheduled": 64},
      "covariance": {"eigenvalues": [...] | {"kind": ..., ...},
                     "basis": "identity" | {"seed": n} | [[...]],
                     "tailMass": 0.0},
      "drivers":    "brownian" | [entry, ...] | {"replay": ...},
      "integrand":  {"family": ..., "carrier": ..., "evaluator": ...,
                     "seed": n, "scale": x, "value": ...,
                     "breakpoints": [...]},
      "nPaths": 100000, "nExact": 64, "seed": n,
      "checks": ["isometry1", ...], "fault": null
    }

Every section is optional and falls back to the desk-scale defaults of
:class:`levyint.scenarios.ScenarioConfig`.  Unknown keys are rejected by
name rather than ignored, so a typo cannot silently run the defaults, and
the size keys of ``space`` are bounded before anything is allocated.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .checks import BASE_SEED, CHECKS
from .errors import ConfigInvalid, ConfigNotFound, expect_number
from .scenarios import CovarianceConfig, IntegrandConfig, ScenarioConfig

_TOP_KEYS = {"space", "covariance", "drivers", "integrand", "nPaths",
             "nExact", "seed", "checks", "fault"}
_SPACE_KEYS = {"dH", "J", "T", "nScheduled"}
_COV_KEYS = {"eigenvalues", "basis", "tailMass"}
_LAW_KEYS = {"kind", "c", "p", "r"}
_INTEGRAND_KEYS = {"family", "carrier", "evaluator", "seed", "scale",
                   "value", "breakpoints"}
# upper bounds of the size keys, checked before anything is allocated;
# they stop sizes no array could hold, far above the desk's 4, 6 and 64
_SIZE_LIMITS = {"dH": 1024, "J": 2048, "nScheduled": 65536}


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario plus the run-level knobs shared by every subcommand."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_paths: int = 100_000
    n_exact: int = 64
    seed: int = BASE_SEED
    checks: Optional[tuple] = None


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{where} must be an object, got {section!r}")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {', '.join(unknown)} in {where}")


def _positive_int(section: dict, key: str, default: int, where: str,
                  limit: Optional[int] = None) -> int:
    value = section.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigInvalid(f"{where}.{key} must be a positive integer")
    if limit is not None and value > limit:
        raise ConfigInvalid(f"{where}.{key} must be at most {limit}, "
                            f"got {value}")
    return value


def _parse_space(section: dict) -> dict:
    _reject_unknown(section, _SPACE_KEYS, "space")
    horizon = expect_number(section.get("T", 1.0), "space.T")
    if not 0 < horizon < float("inf"):
        raise ConfigInvalid("space.T must be a positive finite number")
    return {
        "dim_h": _positive_int(section, "dH", 4, "space", _SIZE_LIMITS["dH"]),
        "n_modes": _positive_int(section, "J", 6, "space", _SIZE_LIMITS["J"]),
        "horizon": horizon,
        "n_scheduled": _positive_int(section, "nScheduled", 64, "space",
                                     _SIZE_LIMITS["nScheduled"]),
    }


def _parse_covariance(section: dict) -> CovarianceConfig:
    _reject_unknown(section, _COV_KEYS, "covariance")
    ev = section.get("eigenvalues", {"kind": "geometric", "c": 0.5, "r": 0.5})
    if isinstance(ev, dict):
        _reject_unknown(ev, _LAW_KEYS, "covariance.eigenvalues")
    elif isinstance(ev, (list, tuple)):
        ev = tuple(expect_number(x, "covariance.eigenvalues") for x in ev)
    else:
        raise ConfigInvalid("covariance.eigenvalues must be a list or a law")
    basis = section.get("basis", "identity")
    if isinstance(basis, dict):
        _reject_unknown(basis, {"seed"}, "covariance.basis")
        seed = basis.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigInvalid(f"covariance.basis.seed must be an integer, "
                                f"got {seed!r}")
    elif isinstance(basis, list):
        if not all(isinstance(row, (list, tuple)) for row in basis):
            raise ConfigInvalid("covariance.basis rows must be lists of "
                                "numbers")
        basis = tuple(tuple(expect_number(x, "covariance.basis") for x in row)
                      for row in basis)
    elif basis != "identity":
        raise ConfigInvalid(
            'covariance.basis must be "identity", {"seed": n} or a matrix')
    tail = section.get("tailMass")
    if tail is not None:
        tail = expect_number(tail, "covariance.tailMass")
        if tail < 0:
            raise ConfigInvalid("covariance.tailMass must be nonnegative")
    return CovarianceConfig(ev, basis, tail)


def _check_value(value) -> None:
    """``integrand.value`` must be a number or nested lists of numbers."""
    if isinstance(value, (list, tuple)):
        for entry in value:
            _check_value(entry)
    else:
        expect_number(value, "integrand.value")


def _parse_integrand(section: dict) -> IntegrandConfig:
    _reject_unknown(section, _INTEGRAND_KEYS, "integrand")
    value = section.get("value")
    if value is not None:
        _check_value(value)
        try:
            np.asarray(value, dtype=float)
        except ValueError:
            raise ConfigInvalid("integrand.value must be a rectangular array "
                                "of numbers")
    breakpoints = section.get("breakpoints")
    if breakpoints is not None:
        if not isinstance(breakpoints, (list, tuple)):
            raise ConfigInvalid("integrand.breakpoints must be a list of "
                                "numbers")
        breakpoints = tuple(expect_number(x, "integrand.breakpoints")
                            for x in breakpoints)
    seed = section.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigInvalid(f"integrand.seed must be an integer, got {seed!r}")
    return IntegrandConfig(
        family=section.get("family", "grid"),
        carrier=section.get("carrier", "operator"),
        evaluator=section.get("evaluator", "driver_linear"),
        seed=seed,
        scale=expect_number(section.get("scale", 1.0), "integrand.scale"),
        value=value,
        breakpoints=breakpoints,
    )


def _parse_drivers(entry):
    if isinstance(entry, str):
        return entry
    if isinstance(entry, dict):
        if "replay" not in entry:
            raise ConfigInvalid(
                "a drivers mapping must be a replay: {\"replay\": ...}")
        _reject_unknown(entry, {"replay"}, "drivers")
        return {"replay": entry["replay"]}
    if isinstance(entry, (list, tuple)):
        for i, e in enumerate(entry):
            if not isinstance(e, (str, dict)):
                raise ConfigInvalid(
                    f"drivers[{i}] must be a preset name or an object, "
                    f"got {e!r}")
        return tuple(e if isinstance(e, str) else dict(e) for e in entry)
    raise ConfigInvalid("drivers must be a name, a recipe list or a replay")


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config")
    space = _parse_space(data.get("space", {}))
    scenario_kwargs = dict(space)
    if "covariance" in data:
        cov = _parse_covariance(data["covariance"])
        if (isinstance(cov.eigenvalues, tuple)
                and len(cov.eigenvalues) != space["n_modes"]):
            raise ConfigInvalid(
                f"covariance.eigenvalues lists {len(cov.eigenvalues)} "
                f"values, space.J is {space['n_modes']}")
        scenario_kwargs["covariance"] = cov
    if "drivers" in data:
        scenario_kwargs["drivers"] = _parse_drivers(data["drivers"])
    if "integrand" in data:
        scenario_kwargs["integrand"] = _parse_integrand(data["integrand"])
    scenario_kwargs["fault"] = data.get("fault")
    checks = data.get("checks")
    if checks is not None:
        if not isinstance(checks, (list, tuple)) \
                or not all(isinstance(c, str) for c in checks):
            raise ConfigInvalid("checks must be a list of check names")
        checks = tuple(checks)
        unknown = sorted(set(checks) - set(CHECKS))
        if unknown:
            raise ConfigInvalid(
                f"unknown check(s) {', '.join(unknown)}; valid names: "
                f"{', '.join(CHECKS)}")
    seed = data.get("seed", BASE_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool) \
            or not 0 <= seed < 2 ** 64:
        raise ConfigInvalid("seed must be an integer in [0, 2**64)")
    return ExperimentConfig(
        scenario=ScenarioConfig(**scenario_kwargs),
        n_paths=_positive_int(data, "nPaths", 100_000, "config"),
        n_exact=_positive_int(data, "nExact", 64, "config"),
        seed=seed,
        checks=checks,
    )


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigNotFound(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config file {path} is not valid JSON: {exc}")
    return parse_config(data)
