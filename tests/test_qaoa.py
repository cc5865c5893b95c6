"""QAOA statevector simulator, optimizer and shot sampling."""

import numpy as np
import pytest

from conftest import random_ising
from isingcloak import (
    IsingModel,
    QaoaParams,
    brute_force,
    decrypt1,
    encrypt1,
    energy_table,
    expectation,
    gen_key1,
    optimize,
    qaoa,
    sample,
    simulate,
)
from isingcloak.util import index_to_bitstring

SINGLE_EDGE = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})


def dense_single_edge_state(gamma, beta):
    """Independent 4x4 matrix construction of one layer on one +1 edge."""
    f = np.array([1.0, -1.0, -1.0, 1.0])  # energies by enumeration index
    psi = np.full(4, 0.5, dtype=np.complex128)
    psi = np.diag(np.exp(-1j * gamma * f)) @ psi
    c, s = np.cos(beta), -1j * np.sin(beta)
    rx = np.array([[c, s], [s, c]])
    return np.kron(rx, rx) @ psi


# Reference kernel: the cost phase exponentiated entry by entry and the
# mixer applied pair by pair.  The simulator must reproduce its states
# and expectations byte for byte.
def reference_mix(state, beta, n):
    c = np.cos(beta)
    s = -1j * np.sin(beta)
    for q in range(n):
        view = state.reshape(-1, 2, 1 << q)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 + s * a1
        view[:, 1, :] = s * a0 + c * a1
    return state


def reference_evolve(energies, params, n):
    state = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    for gamma, beta in zip(params.gammas, params.betas):
        state = state * np.exp(-1j * gamma * energies)
        state = reference_mix(state, beta, n)
    return state


def reference_expectation(model, energies, params):
    state = reference_evolve(energies, params, model.n)
    return float((np.abs(state) ** 2) @ energies) + model.offset


def pm_or_real_model(rng, n, kind):
    """A model with +-1 couplings and fields (few levels) or random reals (all distinct)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    if kind == "pm":
        J = {e: float(rng.choice([-1.0, 1.0])) for e in pairs}
        h = rng.choice([-1.0, 0.0, 1.0], n)
    else:
        J = {e: float(rng.normal()) for e in pairs}
        h = rng.normal(size=n)
    return IsingModel(n, tuple(h.tolist()), J, float(rng.normal()))


class TestReferenceKernel:
    @pytest.mark.parametrize("kind", ["pm", "real"])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_states_are_byte_identical(self, n, kind):
        # n runs up to the simulator cap of 16
        rng = np.random.default_rng([n, 70 if kind == "pm" else 71])
        model = pm_or_real_model(rng, n, kind)
        energies = energy_table(model, include_offset=False)
        for p in range(4):
            gammas = rng.uniform(-7.0, 7.0, p)
            betas = rng.uniform(-4.0, 4.0, p)
            if p:  # the grid's gamma = 0 and beta = 0 give exact zeros and ones
                gammas[0] = betas[-1] = 0.0
            params = QaoaParams(tuple(gammas.tolist()), tuple(betas.tolist()))
            state = simulate(model, params)
            assert state.dtype == np.complex128 and state.shape == (1 << n,)
            assert state.tobytes() == reference_evolve(energies, params, n).tobytes()

    @pytest.mark.parametrize("max_iters", [1, 11, 27, 200])
    def test_optimize_matches_a_reference_driven_run(self, max_iters, monkeypatch):
        rng = np.random.default_rng([max_iters, 72])
        cases = [(pm_or_real_model(rng, n, kind), p)
                 for n, kind, p in ((6, "pm", 1), (9, "real", 2), (10, "pm", 3))]
        results = [optimize(m, p, max_iters=max_iters, rng=np.random.default_rng(73))
                   for m, p in cases]
        monkeypatch.setattr(qaoa, "_phase_energies",
                            lambda m: energy_table(m, include_offset=False))
        monkeypatch.setattr(qaoa, "_expectation", reference_expectation)
        for (m, p), (params, trace) in zip(cases, results):
            ref_params, ref_trace = optimize(m, p, max_iters=max_iters,
                                             rng=np.random.default_rng(73))
            assert len(trace) == max_iters
            assert [x.hex() for x in trace] == [x.hex() for x in ref_trace]
            assert [x.hex() for x in params.gammas + params.betas] == [
                x.hex() for x in ref_params.gammas + ref_params.betas]


class TestSimulate:
    def test_zero_layers_uniform(self):
        state = simulate(SINGLE_EDGE, QaoaParams((), ()))
        assert np.allclose(np.abs(state) ** 2, 0.25)

    def test_identity_gates(self):
        state = simulate(SINGLE_EDGE, QaoaParams((0.0,), (0.0,)))
        assert np.allclose(state, 0.5)

    def test_matches_dense_matrix_oracle(self):
        for gamma in np.linspace(0.0, np.pi, 7):
            for beta in np.linspace(-np.pi / 2, np.pi / 2, 7):
                state = simulate(SINGLE_EDGE, QaoaParams((gamma,), (beta,)))
                ref = dense_single_edge_state(gamma, beta)
                assert np.max(np.abs(state - ref)) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(60)
        m = random_ising(rng, n=6)
        for p in range(1, 5):
            params = QaoaParams(tuple(rng.uniform(0, np.pi, p)), tuple(rng.uniform(0, np.pi, p)))
            state = simulate(m, params)
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-9

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            simulate(IsingModel(17, (0.0,) * 17, {}), QaoaParams((), ()))


class TestExpectation:
    def test_uniform_average(self):
        assert expectation(SINGLE_EDGE, QaoaParams((), ())) == 0.0

    def test_closed_form_optimum(self):
        value = expectation(SINGLE_EDGE, QaoaParams((np.pi / 4,), (-np.pi / 8,)))
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_closed_form_on_grid(self):
        for gamma in np.linspace(0.0, np.pi, 9):
            for beta in np.linspace(-np.pi / 2, np.pi / 2, 9):
                value = expectation(SINGLE_EDGE, QaoaParams((gamma,), (beta,)))
                assert value == pytest.approx(np.sin(4 * beta) * np.sin(2 * gamma), abs=1e-9)

    def test_never_below_global_min(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            m = random_ising(rng, n=4)
            params = QaoaParams(tuple(rng.uniform(0, np.pi, 2)), tuple(rng.uniform(0, np.pi, 2)))
            assert expectation(m, params) >= brute_force(m).global_min - 1e-9

    def test_offset_included(self):
        shifted = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0}, offset=5.0)
        assert expectation(shifted, QaoaParams((), ())) == 5.0

    def test_matches_oracle_energy_weighting(self):
        rng = np.random.default_rng(62)
        m = random_ising(rng, n=5)
        params = QaoaParams((0.3, 0.7), (0.2, 0.9))
        probs = np.abs(simulate(m, params)) ** 2
        assert expectation(m, params) == pytest.approx(
            float(probs @ energy_table(m)), rel=1e-12, abs=1e-12
        )


class TestOptimize:
    def test_single_edge_reaches_optimum(self):
        params, trace = optimize(SINGLE_EDGE, 1, max_iters=200, rng=np.random.default_rng(63))
        assert len(trace) <= 200
        ratio = trace[-1] / brute_force(SINGLE_EDGE).global_min
        assert ratio >= 0.99

    def test_trace_non_increasing(self):
        _, trace = optimize(SINGLE_EDGE, 1, max_iters=150, rng=np.random.default_rng(64))
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self):
        a, _ = optimize(SINGLE_EDGE, 2, max_iters=120, rng=np.random.default_rng(65))
        b, _ = optimize(SINGLE_EDGE, 2, max_iters=120, rng=np.random.default_rng(65))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize(SINGLE_EDGE, 0, max_iters=10)
        with pytest.raises(ValueError):
            optimize(SINGLE_EDGE, 1, max_iters=0)


class TestSample:
    def test_frequencies_converge(self):
        rng = np.random.default_rng(66)
        m = random_ising(rng, n=4)
        params = QaoaParams((0.4,), (0.3,))
        state = simulate(m, params)
        dist = sample(state, 100_000, rng)
        probs = np.abs(state) ** 2
        for k, p in enumerate(probs):
            observed = dist.weights.get(format(k, "04b")[::-1], 0.0)
            assert abs(observed - p) < 0.01

    def test_deterministic_per_seed(self):
        state = simulate(SINGLE_EDGE, QaoaParams((0.5,), (0.25,)))
        a = sample(state, 1000, np.random.default_rng(4))
        b = sample(state, 1000, np.random.default_rng(4))
        assert a == b

    def test_basis_state(self):
        state = np.zeros(4, dtype=np.complex128)
        state[2] = 1.0  # bitstring "01"
        dist = sample(state, 500, np.random.default_rng(5))
        assert dist.weights == {"01": 1.0}

    @pytest.mark.parametrize("n", range(1, 17))
    def test_keys_and_weights_match_the_index_construction(self, n):
        rng = np.random.default_rng(n)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        shots = 5000
        dist = sample(state, shots, np.random.default_rng([n, 1]))
        probs = np.abs(state) ** 2
        counts = np.random.default_rng([n, 1]).multinomial(shots, probs / probs.sum())
        drawn = np.flatnonzero(counts)
        expected = {index_to_bitstring(int(k), n): counts[k] / shots for k in drawn}
        assert list(dist.weights) == sorted(expected)
        assert list(dist.weights.values()) == [expected[b] for b in sorted(expected)]
        assert all(index_to_bitstring(int(k), n) == format(k, f"0{n}b")[::-1] for k in drawn)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample(np.ones(2) / np.sqrt(2), 0)


class TestCipheredLandscape:
    def test_decrypted_ground_states_coincide(self):
        # optimize the ciphered single edge, sample it, decrypt: the top
        # outcomes must be exactly the original problem's ground states
        rng = np.random.default_rng(67)
        key = gen_key1(2, rng)
        enc = encrypt1(SINGLE_EDGE, key)
        params, trace = optimize(enc, 1, max_iters=200, rng=rng)
        assert trace[-1] / brute_force(enc).global_min >= 0.99
        dist = sample(simulate(enc, params), 50_000, rng)
        decoded = decrypt1(dist, key)
        top = sorted(decoded.weights, key=lambda b: -decoded.weights[b])[:2]
        assert set(top) == brute_force(SINGLE_EDGE).argmin_set


@pytest.mark.parametrize("value", ["1", True, float("nan"), float("inf")])
def test_params_reject_coercion(value):
    with pytest.raises(ValueError, match="finite real number"):
        QaoaParams((value,), (0.5,))
    with pytest.raises(ValueError, match="finite real number"):
        QaoaParams((0.5,), (value,))
