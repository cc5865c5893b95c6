"""Property tests of the exact oracle over random sizes, scales and offsets."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isingcloak import IsingModel, QuboModel, brute_force, energy_table, eval_ising, eval_qubo
from isingcloak.oracle import TILE_BITS, _bit_view, _pair_view


def _nonzero(rng, size, scale):
    values = rng.uniform(-1.0, 1.0, size) * scale
    values[values == 0.0] = scale
    return values


@st.composite
def models(draw, min_n=1, max_n=10):
    """Ising or QUBO model with min_n <= n <= max_n and coefficients at one random scale."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.floats(0.0, 1.0))
    scale = 10.0 ** draw(st.integers(-12, 12))
    offset = draw(st.floats(-1e10, 1e10, allow_nan=False))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    couplings = dict(zip(pairs, _nonzero(rng, len(pairs), scale).tolist()))
    linear = _nonzero(rng, n, scale) * (rng.random(n) < density)
    if draw(st.booleans()):
        return IsingModel(n, tuple(linear.tolist()), couplings, offset)
    diagonal = {(i, i): float(v) for i, v in enumerate(linear) if v != 0.0}
    return QuboModel(n, {**diagonal, **couplings}, offset)


def _scalar_energy(model, k):
    bits = np.array([(k >> i) & 1 for i in range(model.n)])
    if isinstance(model, IsingModel):
        return eval_ising(model, 2 * bits - 1)
    return eval_qubo(model, bits)


def _coefficient_sum(model):
    if isinstance(model, IsingModel):
        return math.fsum(map(abs, model.h)) + math.fsum(map(abs, model.J.values()))
    return math.fsum(map(abs, model.A.values()))


@settings(max_examples=60, deadline=None)
@given(models())
def test_table_matches_scalar_evaluators_bitwise(model):
    table = energy_table(model)
    scalar = np.array([_scalar_energy(model, k) for k in range(1 << model.n)])
    assert table.tobytes() == scalar.tobytes()


@settings(max_examples=150, deadline=None)
@given(models())
def test_reductions_match_sorted_spectrum(model):
    table = energy_table(model)
    rep = brute_force(model)
    order = np.sort(table)
    assert rep.table.tobytes() == table.tobytes()
    assert rep.energies.tobytes() == order.tobytes()
    # the formulas of a sort-based oracle, with the same tolerance
    tol = 1e-9 * _coefficient_sum(model)
    gmin = float(order[0])
    above = order[order > gmin + tol]
    assert rep.global_min == gmin
    assert rep.gap == (float(above[0] - gmin) if above.size else math.inf)
    ground = {format(int(k), f"0{model.n}b")[::-1] for k in np.flatnonzero(table <= gmin + tol)}
    assert rep.argmin_set == ground


def _reference_table(model):
    """Energy table by one strided pass per term over the whole table, no tiles."""
    e = np.zeros(1 << model.n)
    if isinstance(model, IsingModel):
        for i, hi in enumerate(model.h):
            if hi != 0.0:
                _bit_view(e, i)[...] += np.array([[-hi], [hi]])
        for (i, j), v in model.J.items():
            _pair_view(e, i, j)[...] += np.array([[v, -v], [-v, v]])[:, None, :, None]
    else:
        for (i, _), v in model.diagonal_items():
            _bit_view(e, i)[:, 1, :] += v
        for (i, j), v in model.offdiagonal_items():
            _pair_view(e, i, j)[:, 1, :, 1, :] += v
    e += model.offset
    return e


# n > TILE_BITS reaches the mixed (i < K <= j) and high-bit (K <= i) passes
@settings(max_examples=40, deadline=None)
@given(models(TILE_BITS + 1, 16), st.integers(0, 2**32 - 1))
def test_tiled_table_matches_scalar_evaluators_on_sampled_indices(model, seed):
    n, k = model.n, TILE_BITS
    rng = np.random.default_rng(seed)
    low = rng.integers(0, 1 << k, 8)
    high = rng.integers(0, 1 << (n - k), 8) << k
    indices = [0, (1 << n) - 1, (1 << k) - 1, 1 << k, (1 << k) + 1, 1 << (n - 1),
               *low.tolist(), *high.tolist(), *(low | high).tolist()]
    table = energy_table(model)
    scalar = np.array([_scalar_energy(model, i) for i in indices])
    assert table[indices].tobytes() == scalar.tobytes()


@settings(max_examples=40, deadline=None)
@given(models(TILE_BITS + 1, 16))
def test_tiled_table_matches_untiled_reference(model):
    assert energy_table(model).tobytes() == _reference_table(model).tobytes()
