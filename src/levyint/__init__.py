"""Series construction of stochastic integrals against Hilbert-space-valued
drivers with independent stationary increments, on finite truncations,
plus a harness that verifies the identities the construction promises.

Layered API, lowest first:

* :mod:`levyint.spaces`      covariance specs and the maps of the
  construction: Phi_lambda, its inverse, the restriction, Psi_lambda.
* :mod:`levyint.processes`   normalized driver components, event-driven
  path sampling, assembled vector-valued paths and their projection.
* :mod:`levyint.integrators` the integral layers, brackets, quadratures.
* :mod:`levyint.scenarios`   config dataclasses and integrand evaluators.
* :mod:`levyint.checks`      identity checks, suite runner, reports.
* :mod:`levyint.config`      JSON config parsing.
* :mod:`levyint.cli`         the ``levyint`` command.
"""

from .checks import (BASE_SEED, CHECKS, CheckSpec, Report, default_suite,
                     fault_detected, negative_control_suite, reports_to_csv,
                     reports_to_json, run_check, run_suite, suite_passed)
from .config import ExperimentConfig, load_config, parse_config
from .errors import LevyintError
from .integrators import ito_general, ito_h, ito_l2lambda, ito_seq

__version__ = "0.1.0"
