"""Property tests of the exact oracle and of end-to-end argmin recovery
over random sizes, scales, offsets and densities."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isingcloak import (
    IsingModel,
    QuboModel,
    argmin_distribution,
    brute_force,
    decrypt1,
    decrypt2,
    decrypt3,
    encrypt1,
    encrypt2,
    encrypt3,
    energy_table,
    eval_ising,
    eval_qubo,
    gen_key1,
    minimal_decoy_count,
    problem_graph,
)
from isingcloak.oracle import BLOCK_BITS, TILE_BITS
from isingcloak.scheme1 import key1_from_dict, key1_to_dict
from isingcloak.scheme2 import key2_from_dict, key2_to_dict
from isingcloak.scheme3 import key3_from_dict, key3_to_dict


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
    assert rep.global_min == float(order[0])
    # the formulas of a sort-based oracle, with the same tolerance, on the offset-free spectrum
    free = energy_table(model, include_offset=False)
    free_order = np.sort(free)
    tol = 1e-9 * _coefficient_sum(model)
    gmin = float(free_order[0])
    above = free_order[free_order > gmin + tol]
    assert rep.gap == (float(above[0] - gmin) if above.size else math.inf)
    ground = {format(int(k), f"0{model.n}b")[::-1] for k in np.flatnonzero(free <= gmin + tol)}
    assert rep.argmin_set == ground


def _bit_view(e, i):
    """View of a 2^n table whose axis 1 is bit i of the index."""
    return e.reshape(-1, 2, 1 << i)


def _pair_view(e, i, j):
    """View of a 2^n table whose axes 1 and 3 are bits j and i (i < j)."""
    return e.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)


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


# bits of each class of the table rule over a full block of B = BLOCK_BITS
# bits, whose tile width is K = B - 3: below K, in [K, B) and at or above B
BIT_CLASSES = ((1, BLOCK_BITS - 4), (BLOCK_BITS - 3, BLOCK_BITS - 1), (BLOCK_BITS, BLOCK_BITS + 1))


def _every_bit_class(kind, n):
    """Model with a linear term in each bit class below n and a pair for each two classes."""
    classes = [c for c in BIT_CLASSES if c[1] < n]
    linear = [c[0] for c in classes]
    pairs = [(c[0], d[1]) for a, c in enumerate(classes) for d in classes[a:]]
    values = [(-1.0) ** k * (0.5 + 0.25 * k) for k in range(len(linear) + len(pairs))]
    if kind is IsingModel:
        h = [0.0] * n
        for i, v in zip(linear, values):
            h[i] = v
        return IsingModel(n, tuple(h), dict(zip(pairs, values[len(linear):])), 3.0)
    return QuboModel(n, dict(zip([(i, i) for i in linear] + pairs, values)), 3.0)


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
@example(_every_bit_class(IsingModel, 16))
@example(_every_bit_class(QuboModel, 16))
def test_tiled_table_matches_untiled_reference(model):
    assert energy_table(model).tobytes() == _reference_table(model).tobytes()


@st.composite
def multi_block_models(draw):
    """Ising or QUBO model of more than one table block, with +-1 or real couplings."""
    model = draw(models(BLOCK_BITS + 1, BLOCK_BITS + 4))
    if draw(st.booleans()):  # every coefficient +-1 times one scale, so many energies tie
        scale = 10.0 ** draw(st.integers(-3, 3))
        model = _signs_only(model, scale)
    if draw(st.booleans()):
        model = _without_linear_terms(model)
    if draw(st.booleans()):
        model = replace(model, offset=draw(st.sampled_from([1e15, -1e15, 2.0**60, -0.0])))
    return model


def _signs_only(model, scale):
    if isinstance(model, IsingModel):
        return replace(model, h=tuple(math.copysign(scale, v) if v else 0.0 for v in model.h),
                       J={p: math.copysign(scale, v) for p, v in model.J.items()})
    return replace(model, A={p: math.copysign(scale, v) for p, v in model.A.items()})


def _without_linear_terms(model):
    if isinstance(model, IsingModel):
        return replace(model, h=(0.0,) * model.n)
    return replace(model, A={(i, j): v for (i, j), v in model.A.items() if i != j})


# n > BLOCK_BITS makes tables of more than one block, which reach the
# terms on bits at or above the block width
@settings(max_examples=12, deadline=None)
@given(multi_block_models())
@example(_every_bit_class(IsingModel, BLOCK_BITS + 2))
@example(_every_bit_class(QuboModel, BLOCK_BITS + 2))
def test_multi_block_table_matches_untiled_reference(model):
    table = energy_table(model)
    assert table.tobytes() == _reference_table(model).tobytes()
    free = energy_table(model, include_offset=False)
    for t in (table, free):
        assert not np.signbit(t[t == 0.0]).any()  # no -0.0, which the QAOA levels rely on


@settings(max_examples=80, deadline=None)
@given(models(max_n=16), st.integers(1, 64), st.integers(0, 2**32 - 1))
@example(IsingModel(3, (0.0,) * 3, {}, 5.0), 1, 0)
@example(QuboModel(2, {}, -1e10), 3, 1)
def test_stacked_evaluators_match_row_by_row_calls_bitwise(model, rows, seed):
    bits = np.random.default_rng(seed).integers(0, 2, (rows, model.n))
    if isinstance(model, IsingModel):
        evaluate, stack = eval_ising, 2 * bits - 1
    else:
        evaluate, stack = eval_qubo, bits
    stacked = evaluate(model, stack)
    rowwise = np.array([evaluate(model, row) for row in stack])
    assert stacked.shape == (rows,)
    assert stacked.tobytes() == rowwise.tobytes()
    assert evaluate(model, stack[:1]).tobytes() == rowwise[:1].tobytes()


@st.composite
def client_models(draw, max_n=7):
    """Ising model with n <= max_n, uniform or small-integer coefficients (exact ties)."""
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.0, 1.0))
    scale = 10.0 ** draw(st.integers(-12, 12))
    offset = draw(st.floats(-1e10, 1e10, allow_nan=False))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())

    def values(size):
        if integer:
            return rng.integers(1, 4, size) * rng.choice((-1.0, 1.0), size) * scale
        return _nonzero(rng, size, scale)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    couplings = dict(zip(pairs, values(len(pairs)).tolist()))
    linear = values(n) * (rng.random(n) < density)
    return IsingModel(n, tuple(linear.tolist()), couplings, offset)


def _assert_recovers(model, encrypted, key, decrypt, to_dict, from_dict):
    # the offset stays with the client, so the truth is the offset-free argmin
    truth = brute_force(replace(model, offset=0.0)).argmin_set
    assert decrypt(argmin_distribution(brute_force(encrypted)), key).support == truth
    assert from_dict(json.loads(json.dumps(to_dict(key)))) == key


@settings(max_examples=200, deadline=None)
@given(client_models(), st.integers(0, 2**32 - 1))
def test_scheme1_recovers_argmin(model, seed):
    key = replace(gen_key1(model.n, np.random.default_rng(seed)), offset=model.offset)
    _assert_recovers(model, encrypt1(model, key), key, decrypt1, key1_to_dict, key1_from_dict)


@settings(max_examples=200, deadline=None)
@given(client_models(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(("inverse", "preserve")), st.integers(0, 2**32 - 1))
def test_scheme2_recovers_argmin(model, m, kmax_out, kmax_in, mode, seed):
    rng = np.random.default_rng(seed)
    kmax_out = min(kmax_out, model.n)
    if not any(model.h) and not model.J:
        with pytest.raises(ValueError, match="nonzero coefficient"):
            encrypt2(model, m, rng)
        return
    encrypted, key = encrypt2(model, m, rng, kmax_out=kmax_out, kmax_in=kmax_in, mode=mode)
    _assert_recovers(model, encrypted, key, decrypt2, key2_to_dict, key2_from_dict)


@settings(max_examples=200, deadline=None)
@given(client_models(), st.none() | st.integers(0, 2), st.sampled_from(("inverse", "preserve")),
       st.integers(0, 2**32 - 1))
def test_scheme3_recovers_argmin(model, extra_degree, mode, seed):
    degrees = problem_graph(model).degrees
    d_star = None if extra_degree is None else max(degrees) + extra_degree
    assume(model.n + minimal_decoy_count(degrees, d_star or max(degrees)) <= 14)
    if d_star and not any(model.h) and not model.J:
        # decoys are needed, but an all-zero model has no weights to draw them from
        with pytest.raises(ValueError, match="empty coefficient set"):
            encrypt3(model, np.random.default_rng(seed), d_star=d_star, mode=mode)
        return
    encrypted, key = encrypt3(model, np.random.default_rng(seed), d_star=d_star, mode=mode)
    assert key.d_star == (max(degrees) if d_star is None else d_star)
    _assert_recovers(model, encrypted, key, decrypt3, key3_to_dict, key3_from_dict)
