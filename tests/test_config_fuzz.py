"""Config fuzzer: malformed configs fail closed, reports stay strict JSON.

Each example mutates a copy of ``configs/default.json`` (wrong types,
NaN and infinities, negatives, empty lists, unknown keys), shrinks it to
at most 8 paths per statistical check and 2 per exact check, and runs
``levyint check`` in process.  Every run must return 0, 1 or 2 without
raising, and every report it writes must parse as JSON without NaN or
Infinity tokens.  Mutated numbers stay small, so no example asks for a
huge grid, path count or jump rate.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from levyint.cli import main

DEFAULT = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "default.json").read_text(encoding="utf-8"))
DEFAULT.update(nPaths=8, nExact=2)

# where a mutation lands: keys of the default config, optional keys it
# leaves out, and whole sections
KEYS = (
    ("space",), ("space", "dH"), ("space", "J"), ("space", "T"),
    ("space", "nScheduled"),
    ("covariance",), ("covariance", "eigenvalues"),
    ("covariance", "eigenvalues", "kind"), ("covariance", "eigenvalues", "c"),
    ("covariance", "eigenvalues", "r"), ("covariance", "eigenvalues", "p"),
    ("covariance", "basis"), ("covariance", "tailMass"),
    ("drivers",), ("drivers", 0), ("drivers", 1), ("drivers", 1, "a"),
    ("drivers", 2, "sigma"), ("drivers", 2, "preset"),
    ("integrand",), ("integrand", "family"), ("integrand", "carrier"),
    ("integrand", "evaluator"), ("integrand", "seed"), ("integrand", "scale"),
    ("integrand", "value"), ("integrand", "breakpoints"),
    ("nPaths",), ("nExact",), ("seed",), ("checks",), ("fault",),
)
BAD = (None, True, False, "", "x", "identity", "power", "mixed", [], {},
       [1.0, 2.0], [[1.0]], ["x"], {"seed": 1}, {"kind": "power"},
       -1, 0, 2, 0.5, -2.5, math.nan, math.inf, -math.inf)

mutation = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), st.sampled_from(BAD)),
    st.tuples(st.just("unknown"), st.sampled_from(
        ((), ("space",), ("covariance",), ("covariance", "eigenvalues"),
         ("integrand",), ("drivers", 1))), st.sampled_from(BAD)),
)


def _apply(cfg: dict, kind: str, where: tuple, value) -> None:
    """Set ``cfg`` at the key path ``where``, or add an unknown key there."""
    node = cfg
    path = where if kind == "unknown" else where[:-1]
    for key in path:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        elif isinstance(node, list) and isinstance(key, int) \
                and key < len(node):
            node = node[key]
        else:
            return
    if kind == "unknown":
        if isinstance(node, dict):
            node["bogusKey"] = value
    elif isinstance(node, dict):
        node[where[-1]] = value
    elif isinstance(node, list) and isinstance(where[-1], int) \
            and where[-1] < len(node):
        node[where[-1]] = value


def _reject_constant(token):
    raise ValueError(f"non-finite token {token} in a report")


@given(st.lists(mutation, min_size=1, max_size=3))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_mutated_configs_fail_closed(tmp_path_factory, mutations):
    cfg = copy.deepcopy(DEFAULT)
    for kind, where, value in mutations:
        _apply(cfg, kind, where, copy.deepcopy(value))
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "cfg.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    report = root / "report.json"
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["check", "--config", str(config), "--out", str(report)])
    assert code in (0, 1, 2), (cfg, code)
    event(f"exit {code}")
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    if report.exists():
        rows = json.loads(report.read_text(encoding="utf-8"),
                          parse_constant=_reject_constant)
        assert isinstance(rows, list) and rows
    else:
        assert code == 2, (cfg, code)
