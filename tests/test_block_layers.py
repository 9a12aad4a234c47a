"""The layers on a block of paths agree with the same layers path by path.

Every check computes its rows from a :class:`PathBlock`, so each layer
it calls must give, on row i of a block, what it gives on path i alone,
a block of one, and padding must leave running values at their terminal
value.
"""

import numpy as np
import pytest

from levyint.errors import GridMismatch
from levyint.integrators import (
    SimpleIntegrand,
    cell_values,
    integrate_cells,
    integrate_in_basis,
    ito_h,
    node_values,
    series_terms,
    terminal_cells,
)
from levyint.processes import (
    PathBlock,
    PathSampler,
    TimeGrid,
    assemble_levy,
    coordinate_view,
    make_standard_specs,
    transport_levy,
)
from levyint.scenarios import (IntegrandConfig, ScenarioConfig, _with_fault,
                               build_grid_integrand, build_integrand,
                               make_sampler, resolve_covariance,
                               restrict_integrand)
from levyint.spaces import (build_eigen_isometry, make_covariance,
                            psi_lambda_apply, random_orthogonal,
                            restrict_bounded_operator)
from levyint.stats import CHUNK_SIZE
from levyint import rng

SEED = 20260816
BREAKS = (0.0, 0.3, 0.7, 1.0)
DIM_H = 3
DESK = make_standard_specs(6, (
    "brownian", {"preset": "poisson", "a": 0.5},
    {"preset": "mixed", "sigma": 0.7071067811865476, "a": 1.0},
    "brownian", {"preset": "poisson", "a": 0.25},
    {"preset": "mixed", "sigma": 0.5, "a": 0.5}))
JUMP_DENSE = make_standard_specs(6, (
    {"preset": "poisson", "a": 0.15}, {"preset": "mixed", "sigma": 0.5, "a": 0.12},
    {"preset": "poisson", "a": 0.25}, {"preset": "mixed", "sigma": 0.3, "a": 0.1},
    {"preset": "poisson", "a": 0.2}, {"preset": "mixed", "sigma": 0.7, "a": 0.2}))
# a block that crosses a chunk boundary, and a block of one
BLOCKS = (range(CHUNK_SIZE - 5, CHUNK_SIZE + 6), (17,))

DRIVERS = pytest.mark.parametrize("specs", [DESK, JUMP_DENSE],
                                  ids=["desk", "jump_dense"])
INDICES = pytest.mark.parametrize("indices", BLOCKS,
                                  ids=["chunk-boundary", "one"])


def _sampler(specs):
    return PathSampler(specs, 1.0, 64, extra_times=BREAKS[1:-1])


def _integrands():
    gen = rng.stream(3, 0, 0, rng.INTEGRAND)
    simple = SimpleIntegrand(BREAKS, gen.standard_normal((3, DIM_H)))
    grid = build_grid_integrand(
        IntegrandConfig(carrier="hvector", evaluator="driver_tanh", seed=4),
        (DIM_H,), 6)
    seq = build_grid_integrand(
        IntegrandConfig(carrier="seqh", evaluator="driver_linear", seed=5),
        (6, DIM_H), 6)
    return {"simple": simple, "grid": grid, "seq": seq}


def _close(got, want):
    """Equal to 1e-12 of the largest absolute value of the reference row."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def _keeps_terminal(values, n_nodes):
    """Running values (nodes first) repeat their terminal value on padding."""
    assert np.all(values[n_nodes:] == values[n_nodes - 1])


@DRIVERS
@INDICES
@pytest.mark.parametrize("kind", ["simple", "grid", "seq"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_cell_values_rows_are_the_per_path_values(specs, indices, kind, side):
    """Left-point cell values, and right-point ones through the faulted
    integrand."""
    sampler = _sampler(specs)
    integrand = _integrands()[kind]
    if side == "right":
        integrand = _with_fault(ScenarioConfig(fault="right_point"), integrand)
    block = sampler.sample_block(SEED, indices)
    vals = cell_values(integrand, block)
    assert vals.shape[:2] == (block.n_paths, block.grid.n_nodes - 1)
    for row, p in enumerate(indices):
        n = int(block.n_nodes[row])
        want = cell_values(integrand, sampler.sample(SEED, p))
        _close(vals[row, :n - 1], want[0])


@pytest.mark.parametrize("kind", ["driver_linear", "operator", "simple"])
def test_right_point_fault_takes_the_next_nodes_value(kind):
    """Under the fault, node k of the scenario's integrand holds node k + 1
    of the clean one, and the last node, padding included, repeats."""
    if kind == "simple":
        cfg = IntegrandConfig(family="simple", carrier="hvector",
                              evaluator="constant", breakpoints=BREAKS)
    else:
        cfg = IntegrandConfig(
            carrier="seqh" if kind == "driver_linear" else "operator")
    sc = ScenarioConfig(dim_h=DIM_H, integrand=cfg)
    block = make_sampler(sc).sample_block(SEED, range(40))
    assert len(set(block.n_nodes.tolist())) > 1

    def values(scenario):
        integrand = build_integrand(scenario)
        if kind == "operator":
            integrand = restrict_integrand(integrand,
                                           resolve_covariance(scenario))
        return node_values(integrand, block)

    clean, faulted = values(sc), values(sc.with_fault("right_point"))
    assert np.array_equal(faulted[:, :-1], clean[:, 1:])
    for row, n in enumerate(block.n_nodes.tolist()):
        assert np.all(faulted[row, n - 1:] == clean[row, n - 1])


@DRIVERS
@INDICES
@pytest.mark.parametrize("kind", ["simple", "grid"])
def test_ito_h_rows_are_the_per_path_integrals(specs, indices, kind):
    sampler = _sampler(specs)
    integrand = _integrands()[kind]
    basis = random_orthogonal(DIM_H, rng.stream(9, 0, 0, rng.BASIS))

    def routes(path):
        """Component 2's integral, plainly and through ``basis``."""
        dm = path.increments[..., 2, :]
        return (ito_h(integrand, path, 2),
                integrate_in_basis(cell_values(integrand, path), dm, basis))

    block = sampler.sample_block(SEED, indices)
    for route, z in enumerate(routes(block)):
        assert z.shape == (block.n_paths, block.grid.n_nodes, DIM_H)
        for row, p in enumerate(indices):
            n = int(block.n_nodes[row])
            want = routes(sampler.sample(SEED, p))[route]
            _close(z[row, :n], want[0])
            _keeps_terminal(z[row], n)


@DRIVERS
@INDICES
@pytest.mark.parametrize("first", [0, 2], ids=["all", "tail-slice"])
def test_terminal_forms_are_the_running_kernels_last_node(specs, indices,
                                                          first):
    block = _sampler(specs).sample_block(SEED, indices)
    node = node_values(_integrands()["seq"], block)[:, :, first:]
    vals, inc = node[:, :-1], block.increments[:, first:]
    # the tail slice is a view, as in truncation_tail
    assert first == 0 or not vals.flags.c_contiguous
    # unit eigenvalues and the identity basis: Psi_lambda of the operator
    # values is ``vals`` itself, so the series terms integrate it per mode
    levy = assemble_levy(make_covariance((1.0,) * inc.shape[1]),
                         PathBlock(block.grid, inc, block.n_nodes))
    op = node.swapaxes(-1, -2)
    for got, want in ((terminal_cells(vals, inc),
                       integrate_cells(vals, inc)[..., -1, :]),
                      (series_terms(op, levy, terminal=True),
                       series_terms(op, levy)[..., -1, :])):
        for row in range(block.n_paths):
            _close(got[row], want[row])


def _kernel_loop(vals, increments):
    """integrate_cells written out: per cell, one component at a time."""
    cells = np.zeros(vals.shape[:-2] + vals.shape[-1:])
    for j in range(increments.shape[-2]):
        cells += vals[..., :, j, :] * increments[..., j, :, None]
    out = np.zeros(cells.shape[:-2] + (cells.shape[-2] + 1, cells.shape[-1]))
    out[..., 1:, :] = np.cumsum(cells, axis=-2)
    return out


@DRIVERS
@INDICES
@pytest.mark.parametrize("layout", ["contiguous", "tail-slice"])
def test_running_kernel_is_the_per_component_loop(specs, indices, layout):
    block = _sampler(specs).sample_block(SEED, indices)
    vals = cell_values(_integrands()["seq"], block)
    inc = block.increments
    if layout == "contiguous":
        vals = np.ascontiguousarray(vals)
    else:
        vals, inc = vals[:, :, 2:], inc[:, 2:]
    assert vals.flags.c_contiguous == (layout == "contiguous")
    z = integrate_cells(vals, inc)
    want = _kernel_loop(vals, inc)
    for row in range(block.n_paths):
        _close(z[row], want[row])
        _keeps_terminal(z[row], int(block.n_nodes[row]))


@DRIVERS
@pytest.mark.parametrize("where", ["value", "increment"])
def test_a_nan_reaches_every_later_node_of_its_row_only(specs, where):
    block = _sampler(specs).sample_block(SEED, range(8))
    vals = np.array(cell_values(_integrands()["seq"], block))
    inc = np.array(block.increments)
    row, cell, comp, d = 3, 10, 2, 1
    if where == "value":
        vals[row, cell, comp, d] = np.nan
        cols = [d]
    else:
        inc[row, comp, cell] = np.nan
        cols = list(range(DIM_H))
    bad = np.isnan(integrate_cells(vals, inc))
    assert bad[row, cell + 1:][:, cols].all()
    assert np.count_nonzero(bad[row]) == (bad.shape[1] - cell - 1) * len(cols)
    assert not np.delete(bad, row, axis=0).any()


@DRIVERS
@INDICES
def test_transport_and_view_keep_the_block(specs, indices):
    sampler = _sampler(specs)
    lam = (0.25, 0.125, 0.125, 0.0625, 0.0625, 0.03125)
    cov = make_covariance(lam, {"seed": 7})
    gen = rng.stream(1, 0, 0, rng.BASIS)
    iso = build_eigen_isometry(cov, {0.125: random_orthogonal(2, gen),
                                     0.0625: random_orthogonal(2, gen)})
    block = sampler.sample_block(SEED, indices)
    levy = assemble_levy(cov, block)
    moved = transport_levy(levy, iso)
    view = coordinate_view(levy)
    assert isinstance(moved.driver, PathBlock)
    assert isinstance(view, PathBlock)
    for row, p in enumerate(indices):
        n = int(block.n_nodes[row])
        single = assemble_levy(cov, sampler.sample(SEED, p))
        want_moved = transport_levy(single, iso)
        want_view = coordinate_view(single)
        _close(moved.driver.increments[row, :, :n - 1],
               want_moved.driver.increments[0])
        _close(view.increments[row, :, :n - 1], want_view.increments[0])
        _close(moved.coords[row, :, :n], want_moved.coords[0])
        for cum in (moved.driver.cumulative[row], view.cumulative[row]):
            _keeps_terminal(cum.T, n)


BASES = pytest.mark.parametrize("basis", ["identity", "random", "rectangular"])


def _restriction_case(basis, evaluator):
    """A covariance with the named basis and a raw operator integrand on U."""
    lam = 0.5 ** np.arange(1.0, 7.0)
    gen = rng.stream(2, 0, 0, rng.BASIS)
    directive = {"identity": "identity", "random": {"seed": 7},
                 # U with two directions beyond the six modes
                 "rectangular": random_orthogonal(8, gen)[:, :6]}[basis]
    cov = make_covariance(lam, directive)
    raw = build_grid_integrand(
        IntegrandConfig(carrier="operator", evaluator=evaluator, seed=6),
        (DIM_H, cov.dim_u), 6)
    return cov, raw


@DRIVERS
@BASES
@pytest.mark.parametrize("evaluator", ["constant", "driver_linear"])
def test_folded_restriction_is_the_per_node_restriction(specs, basis,
                                                        evaluator):
    # the affine evaluators restrict their coefficients once; restricting
    # every node value of the raw integrand must give the same values
    cov, raw = _restriction_case(basis, evaluator)
    block = _sampler(specs).sample_block(SEED, BLOCKS[0])
    folded = node_values(restrict_integrand(raw, cov), block)
    per_node = restrict_bounded_operator(cov, node_values(raw, block))
    assert folded.shape == (block.n_paths, block.grid.n_nodes, DIM_H, 6)
    for row in range(block.n_paths):
        _close(folded[row], per_node[row])


@DRIVERS
@BASES
def test_restricted_affine_values_reach_the_kernels_without_a_copy(specs,
                                                                   basis):
    cov, raw = _restriction_case(basis, "driver_linear")
    block = _sampler(specs).sample_block(SEED, BLOCKS[0])
    node = node_values(restrict_integrand(raw, cov), block)
    seq = psi_lambda_apply(cov, node)
    assert seq.flags.c_contiguous
    # terminal_cells flattens cells and components into one axis
    cells = seq[:, :-1]
    flat = cells.reshape(cells.shape[:1] + (-1, DIM_H))
    assert np.shares_memory(flat, node)


_SHAPES = {"hvector": (DIM_H,), "seqh": (6, DIM_H), "operator": (DIM_H, 6)}


def _explicit_affine(cfg, shape, increments):
    """c0 + sum_m cum[m, k] c1[m] at every node k, drawn as the registry
    draws them, with the cumulative values summed here."""
    n_inputs = increments.shape[-2]
    gen = rng.stream(cfg.seed, 0, 0, rng.INTEGRAND)
    c0 = cfg.scale * gen.standard_normal(shape)
    c1 = (cfg.scale / np.sqrt(n_inputs)) * gen.standard_normal(
        (n_inputs,) + shape)
    cum = np.concatenate([np.zeros(increments.shape[:-1] + (1,)),
                          np.cumsum(increments, axis=-1)], axis=-1)
    out = np.zeros(cum.shape[:-2] + cum.shape[-1:] + shape)
    out += c0
    for m in range(n_inputs):
        out += np.multiply.outer(cum[..., m, :], c1[m])
    return np.tanh(out) if cfg.evaluator == "driver_tanh" else out


@DRIVERS
@pytest.mark.parametrize("carrier",
                         ["hvector", "seqh", "operator", "restricted"])
@pytest.mark.parametrize("evaluator", ["driver_linear", "driver_tanh"])
@pytest.mark.parametrize("one", [True, False], ids=["path", "block"])
def test_affine_node_values_are_the_explicit_sum(specs, carrier, evaluator,
                                                 one):
    sampler = _sampler(specs)
    path = (sampler.sample(SEED, 17) if one
            else sampler.sample_block(SEED, BLOCKS[0]))
    cfg = IntegrandConfig(evaluator=evaluator, seed=6)
    if carrier == "restricted":
        # an operator on a U wider than the modes, restricted
        cov, raw = _restriction_case("rectangular", evaluator)
        integrand = restrict_integrand(raw, cov)
        want = restrict_bounded_operator(cov, _explicit_affine(
            cfg, (DIM_H, cov.dim_u), path.increments))
    else:
        integrand = build_grid_integrand(cfg, _SHAPES[carrier], 6)
        want = _explicit_affine(cfg, _SHAPES[carrier], path.increments)
    got = node_values(integrand, path)
    for g, w in ([(got, want)] if one else zip(got, want)):
        _close(g, w)


@DRIVERS
def test_a_breakpoint_missing_from_one_row_is_rejected(specs):
    block = _sampler(specs).sample_block(SEED, range(4))
    simple = _integrands()["simple"]
    cell_values(simple, block)
    times = block.grid.times.copy()
    k = int(np.flatnonzero(times[2] == BREAKS[1])[0])
    times[2, k] = np.nextafter(BREAKS[1], 0.0)
    moved = PathBlock(TimeGrid(times, block.grid.kind), block.increments,
                      block.n_nodes)
    with pytest.raises(GridMismatch):
        cell_values(simple, moved)
    with pytest.raises(GridMismatch):
        ito_h(simple, moved, 0)
