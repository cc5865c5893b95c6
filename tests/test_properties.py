"""Property tests of the exact oracle, of end-to-end argmin recovery over
random sizes, scales, offsets and densities, of the QAOA simulator
against closed forms and the scheme I gauge, and of the JSON writer and
scheme I's flip against their references."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isingcloak import (
    IsingModel,
    KeyI,
    OutcomeDistribution,
    QaoaParams,
    QuboModel,
    argmin_distribution,
    attack_complexity2,
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
    expectation,
    gen_key1,
    minimal_decoy_count,
    problem_graph,
    simulate,
)
from isingcloak import __version__, core
from isingcloak.core import distribution_to_dict, dumps, ising_to_dict
from isingcloak.oracle import BLOCK_BITS, TILE_BITS
from isingcloak.scheme1 import key1_from_dict, key1_to_dict
from isingcloak.scheme2 import key2_from_dict, key2_to_dict
from isingcloak.scheme3 import key3_from_dict, key3_to_dict
from isingcloak.util import flip_positions


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
    _check_reductions(model)


def _check_reductions(model):
    table = energy_table(model)
    rep = brute_force(model)
    order = np.sort(table)
    assert "table" not in vars(rep)  # built on first read
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


# the oracle reduces each block as it is filled, keeping the entries
# within the tolerance of the running minimum; the examples put the
# minimum in the last block after an earlier block's candidates (which
# it prunes), ground states of +-1 couplings in every block, and every
# entry in the ground set
@settings(max_examples=8, deadline=None)
@given(multi_block_models())
@example(IsingModel(BLOCK_BITS + 1, (1e-10,) + (0.0,) * (BLOCK_BITS - 1) + (-1.0,), {(0, 1): 4.0}))
@example(IsingModel(BLOCK_BITS + 2, (0.0,) * (BLOCK_BITS + 2),
                    {(i, i + 1): (-1.0) ** i for i in range(BLOCK_BITS)}, 2.0))
@example(QuboModel(BLOCK_BITS + 1, {}, -3.0))
def test_multi_block_reductions_match_sorted_spectrum(model):
    _check_reductions(model)


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


@st.composite
def weighted_isings(draw, max_n=10):
    """Ising model with 2 <= n <= max_n, real fields and couplings in [-2, 2) and an offset."""
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    couplings = dict(zip(pairs, _nonzero(rng, len(pairs), 2.0).tolist()))
    offset = draw(st.floats(-1e3, 1e3, allow_nan=False))
    return IsingModel(n, tuple(_nonzero(rng, n, 2.0).tolist()), couplings, offset)


def _one_layer_expectation(model, gamma, beta):
    """The energy expectation after one QAOA layer, in closed form.

    Ozaeta, van Dam and McMahon, "Expectation values from the
    single-layer quantum approximate optimization algorithm on Ising
    problems" (2022), in the simulator's convention.  With
    c(x) = cos(2 gamma x) and products over the other qubits w:
    <Z_u> = sin 2beta sin(2 gamma h_u) prod c(J_uw), and <Z_u Z_v> =
    sin 4beta sin(2 gamma J_uv) [c(h_u) prod c(J_uw) + c(h_v) prod c(J_vw)] / 2
    - sin^2 2beta [c(h_u + h_v) prod c(J_uw + J_vw) - c(h_u - h_v) prod c(J_uw - J_vw)] / 2.
    """
    n, h = model.n, model.h
    J = [[0.0] * n for _ in range(n)]
    for (u, v), value in model.J.items():
        J[u][v] = J[v][u] = value

    def c(x):
        return math.cos(2 * gamma * x)

    total = model.offset
    for u in range(n):
        others = math.prod(c(J[u][w]) for w in range(n) if w != u)
        total += h[u] * math.sin(2 * beta) * math.sin(2 * gamma * h[u]) * others
    for (u, v), coupling in model.J.items():
        rest = [w for w in range(n) if w not in (u, v)]
        single = (c(h[u]) * math.prod(c(J[u][w]) for w in rest)
                  + c(h[v]) * math.prod(c(J[v][w]) for w in rest))
        pair = (c(h[u] + h[v]) * math.prod(c(J[u][w] + J[v][w]) for w in rest)
                - c(h[u] - h[v]) * math.prod(c(J[u][w] - J[v][w]) for w in rest))
        total += coupling * (math.sin(4 * beta) * math.sin(2 * gamma * coupling) * single
                             - math.sin(2 * beta) ** 2 * pair) / 2
    return total


ANGLES = st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(weighted_isings(), ANGLES, ANGLES)
def test_one_layer_expectation_matches_the_closed_form(model, gamma, beta):
    # independent of the simulator's energy table and mixer, so it checks
    # their sign and qubit conventions, not only their bytes
    scale = 1 + sum(map(abs, model.h)) + sum(map(abs, model.J.values())) + abs(model.offset)
    closed = _one_layer_expectation(model, gamma, beta)
    assert abs(expectation(model, QaoaParams((gamma,), (beta,))) - closed) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(weighted_isings(), st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_scheme1_is_a_gauge_of_the_simulated_state(model, angles, seed):
    # the flips commute with the X mixer and the |+> start, and the gammas
    # divided by tau undo the scale, so only the outcomes' labels change
    key = gen_key1(model.n, np.random.default_rng(seed))
    gammas, betas = zip(*angles)
    plain = np.abs(simulate(model, QaoaParams(gammas, betas))) ** 2
    ciphered = simulate(encrypt1(model, key), QaoaParams(tuple(g / key.tau for g in gammas), betas))
    flip = sum(1 << t for t in key.targets)
    x = np.arange(1 << model.n)
    assert np.max(np.abs(np.abs(ciphered[x ^ flip]) ** 2 - plain)) <= 1e-12


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# finite reals as records hold them: zeros of both signs, the smallest
# subnormal and magnitudes from 1e-300 to 1e300
MAGNITUDES = st.sampled_from((5e-324, 1e-300, 0.1, 1.0, 1e300)) | st.floats(1e-300, 1e300)
NONZERO = st.tuples(MAGNITUDES, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])
REALS = NONZERO | st.sampled_from((0.0, -0.0))
WEIGHTS = MAGNITUDES | st.sampled_from((0.0, -0.0))


@st.composite
def ising_records(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    couplings = {pair: draw(NONZERO) for pair in chosen}
    h = draw(st.lists(REALS, min_size=n, max_size=n))
    return ising_to_dict(IsingModel(n, tuple(h), couplings, draw(REALS)))


@st.composite
def distribution_records(draw):
    n = draw(st.integers(1, 40))
    bits = draw(st.lists(st.text("01", min_size=n, max_size=n), unique=True, max_size=30))
    weights = draw(st.lists(WEIGHTS, min_size=len(bits), max_size=len(bits)))
    return distribution_to_dict(OutcomeDistribution(n, dict(zip(bits, weights))))


@settings(max_examples=300, deadline=None)
@given(ising_records() | distribution_records())
@example({"n": 1, "h": [-0.0], "J": [], "offset": 5e-324})
@example({"n": 3, "counts": {}})
@example({"n": 2, "counts": {"00": 0.0, "01": -0.0, "11": 1e300}})
def test_dumps_formats_the_bulk_records_itself_as_json_does(record):
    assert dumps(record) == _json(record)
    assert core._DIRECT[tuple(record)](*record.values()) == _json(record)  # not through json


class _Real(float):
    def __repr__(self):
        return "real"


class _Bits(str):
    def __format__(self, spec):
        return "bits"


@pytest.mark.parametrize("payload", [
    {"n": True, "counts": {}},
    {"n": 1.0, "counts": {"1": 1.0}},
    {"n": 2, "counts": {'0"': 1.0}},
    {"n": 1, "counts": {"\u00e9": 1.0}},
    {"n": 1, "counts": {"\n": 1.0}},
    {"n": 1, "counts": {1: 1.0}},
    {"n": 1, "counts": {_Bits("1"): 1.0}},
    {"n": 1, "counts": {"1": 1}},
    {"n": 1, "counts": {"1": True}},
    {"n": 1, "counts": {"1": math.nan}},
    {"n": 1, "counts": {"1": _Real(0.5)}},
    {"n": 2, "counts": {"00": 1e308, "11": 1e308}},  # finite, with an overflowing sum
    {"n": 1, "counts": [["1", 1.0]]},
    {"counts": {"1": 1.0}, "n": 1},
    {"n": 2, "h": (0.0, 1.0), "J": [], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [(0, 1, 1.0)], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [[0, True, 1.0]], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [[0, 1, 1]], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [[0, 1, 1.0, 2.0]], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [{"i": 0, "j": 1, "v": 1.0}], "offset": 0.0},
    {"n": 2, "h": [0.0, -math.inf], "J": [], "offset": 0.0},
    {"n": 2, "h": [0.0, 1.0], "J": [], "offset": 1},
    {"n": 2, "h": [_Real(1.0), 1.0], "J": [], "offset": 0.0},
])
def test_dumps_leaves_other_values_of_the_record_layouts_to_json(payload):
    assert dumps(payload) == _json(payload)


@settings(max_examples=60, deadline=None)
@given(client_models(), st.sampled_from(("I", "II", "III")), st.integers(0, 2**32 - 1),
       st.text(), st.none() | st.integers(0, 2**63), REALS, st.lists(REALS, max_size=3))
def test_dumps_writes_keys_manifests_and_reports_as_json_does(model, scheme, seed, path,
                                                              replay, value, angles):
    rng = np.random.default_rng(seed)
    assume(scheme == "I" or any(model.h) or model.J)
    if scheme == "I":
        key = key1_to_dict(replace(gen_key1(model.n, rng), offset=model.offset))
    elif scheme == "II":
        key = key2_to_dict(encrypt2(model, 2, rng)[1])
    else:
        key = key3_to_dict(encrypt3(model, rng)[1])
    report = brute_force(model)
    payloads = [
        key,
        {"command": "encrypt", "inputs": {path: "0" * 64}, "seed": replay, "version": __version__},
        {"verified": True, "argmin": sorted(report.argmin_set)},
        {"scheme": scheme, "n": model.n, "m": 2, "attack_complexity_log2":
         attack_complexity2(model.n, 2), "global_min": report.global_min, "ar": value,
         "rar": -value},
        {"layers": len(angles), "gammas": angles, "betas": angles[::-1],
         "best_expectation": value, "evaluations": seed},
    ]
    for payload in payloads:
        assert dumps(payload) == _json(payload)


@st.composite
def flip_cases(draw):
    """A distribution of up to 20 outcomes on 1 <= n <= 300 bits and a scheme I key."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = draw(st.sampled_from(("none", "all", "some")))
    mask = {"none": np.zeros(n, bool), "all": np.ones(n, bool), "some": rng.random(n) < 0.5}
    rows = rng.integers(0, 2, (draw(st.integers(0, 20)), n))
    bits = {"".join(map(str, row)) for row in rows.tolist()}
    weights = rng.integers(0, 3, len(bits)) / 2.0
    key = KeyI(n, frozenset(np.flatnonzero(mask[targets]).tolist()), 1.0)
    return OutcomeDistribution(n, dict(zip(sorted(bits), weights.tolist()))), key


@settings(max_examples=150, deadline=None)
@given(flip_cases())
@example((OutcomeDistribution(1, {}), KeyI(1, frozenset(), 1.0)))
@example((OutcomeDistribution(1, {"0": 0.5, "1": 0.0}), KeyI(1, frozenset({0}), 1.0)))
@example((OutcomeDistribution(300, {}), KeyI(300, frozenset(range(300)), 1.0)))
def test_decrypt1_flips_as_the_per_outcome_reference(case):
    dist, key = case
    reference = {flip_positions(b, key.targets): w for b, w in dist.weights.items()}
    decoded = decrypt1(dist, key)
    assert list(decoded.weights.items()) == sorted(reference.items())
