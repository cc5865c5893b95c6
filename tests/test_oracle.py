"""Brute-force oracle and solution-quality metrics."""

import math
import os
import signal
import time

import numpy as np
import pytest

from conftest import random_ising
from isingcloak import (
    IsingModel,
    OutcomeDistribution,
    ar,
    argmin_distribution,
    brute_force,
    encrypt1,
    energy_table,
    eval_ising,
    eval_qubo,
    gen_key1,
    generate,
    ising_to_qubo,
    rar,
)
from isingcloak import oracle
from isingcloak.util import bitstring_to_array

SINGLE_EDGE = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})


class TestBruteForce:
    def test_single_edge(self):
        rep = brute_force(SINGLE_EDGE)
        assert np.array_equal(rep.energies, [-1.0, -1.0, 1.0, 1.0])
        assert rep.argmin_set == {"01", "10"}
        assert rep.global_min == -1.0
        assert rep.gap == 2.0

    def test_single_field(self):
        rep = brute_force(IsingModel(1, (1.0,), {}))
        assert rep.global_min == -1.0
        assert rep.argmin_set == {"0"}
        assert rep.gap == 2.0

    def test_flat_spectrum(self):
        rep = brute_force(IsingModel(2, (0.0, 0.0), {}, offset=3.0))
        assert rep.global_min == 3.0
        assert rep.gap == math.inf
        assert len(rep.argmin_set) == 4

    def test_table_is_unsorted_energies_sorted(self):
        rep = brute_force(SINGLE_EDGE)
        assert np.array_equal(rep.table, energy_table(SINGLE_EDGE))
        assert np.array_equal(rep.table, [1.0, -1.0, -1.0, 1.0])
        assert "energies" not in vars(rep)  # sorted lazily, on first read
        assert np.array_equal(rep.energies, np.sort(rep.table))
        assert rep.energies is rep.energies

    def test_degeneracy_ignores_offset(self):
        m = generate("regular3", 8, np.random.default_rng(1))
        assert len(brute_force(m).argmin_set) == 2
        shifted = brute_force(IsingModel(m.n, m.h, m.J, 1e10))
        assert shifted.argmin_set == brute_force(m).argmin_set
        assert shifted.gap == brute_force(m).gap

    def test_offset_does_not_round_away_the_ground_set(self):
        # next to an offset of 2e9 the +-1e-8 field is below one ulp
        rep = brute_force(IsingModel(2, (1e-8, 0.0), {}, 2e9))
        assert rep.argmin_set == {"00", "01"}
        assert rep.global_min == 2e9

    def test_degeneracy_follows_coefficient_scale(self):
        m = generate("regular3", 8, np.random.default_rng(1))
        tiny = IsingModel(
            m.n, tuple(h * 1e-12 for h in m.h), {k: v * 1e-12 for k, v in m.J.items()}
        )
        rep = brute_force(tiny)
        assert rep.argmin_set == brute_force(m).argmin_set
        assert rep.gap == pytest.approx(2e-12, rel=1e-9)

    def test_matches_scalar_eval(self):
        from isingcloak import eval_ising
        from isingcloak.util import bitstring_to_array, index_to_bitstring

        rng = np.random.default_rng(11)
        m = random_ising(rng, n=5)
        table = energy_table(m)
        for k in range(2**5):
            bits = bitstring_to_array(index_to_bitstring(k, 5))
            assert table[k] == eval_ising(m, 2 * bits.astype(int) - 1)

    def test_qubo_spectrum_matches_ising(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_ising(rng, n=int(rng.integers(2, 8)))
            a = np.sort(energy_table(m))
            b = np.sort(energy_table(ising_to_qubo(m)))
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.abs(a).max())

    def test_encrypted_spectrum_is_scaled(self):
        rng = np.random.default_rng(13)
        m = random_ising(rng, n=6)
        key = gen_key1(m.n, rng)
        enc = brute_force(encrypt1(m, key)).energies
        ref = key.tau * (brute_force(m).energies - m.offset)
        assert np.max(np.abs(enc - ref)) <= 1e-9 * max(1.0, np.abs(ref).max())

    def test_resource_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force(IsingModel(25, (0.0,) * 25, {}))


class TestArgminDistribution:
    def test_uniform_over_ground_states(self):
        d = argmin_distribution(brute_force(SINGLE_EDGE))
        assert d.weights == {"01": 0.5, "10": 0.5}
        assert d.is_normalized


class TestAr:
    def test_ground_state_gives_one(self):
        d = OutcomeDistribution(2, {"01": 1.0})
        assert ar(d, SINGLE_EDGE, -1.0) == 1.0

    def test_uniform_gives_zero(self):
        d = OutcomeDistribution(2, {b: 0.25 for b in ("00", "01", "10", "11")})
        assert ar(d, SINGLE_EDGE, -1.0) == 0.0

    def test_half_half(self):
        d = OutcomeDistribution(2, {"01": 0.5, "11": 0.5})
        assert ar(d, SINGLE_EDGE, -1.0) == 0.0

    def test_zero_minimum_rejected(self):
        d = OutcomeDistribution(2, {"01": 1.0})
        with pytest.raises(ValueError, match="undefined"):
            ar(d, SINGLE_EDGE, 0.0)

    def test_unnormalized_rejected(self):
        d = OutcomeDistribution(2, {"01": 0.5})
        with pytest.raises(ValueError, match="normalized"):
            ar(d, SINGLE_EDGE, -1.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_length_mismatch_rejected(self, n):
        d = OutcomeDistribution(n, {"1" * n: 1.0})
        message = f"distribution has n={n}, model has n=2"
        with pytest.raises(ValueError, match=message):
            ar(d, SINGLE_EDGE, -1.0)
        with pytest.raises(ValueError, match=message):
            rar(d, SINGLE_EDGE, -1.0, k=1)


class TestRar:
    def test_equals_ar_when_k_covers_support(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = random_ising(rng, n=4)
            w = rng.random(16)
            w /= w.sum()
            d = OutcomeDistribution(
                4, {format(i, "04b")[::-1]: float(w[i]) for i in range(16)}
            ).normalized()
            gmin = brute_force(m).global_min
            if gmin == 0.0:
                continue
            assert rar(d, m, gmin, k=16) == ar(d, m, gmin)

    def test_top_ground_state_k1(self):
        d = OutcomeDistribution(2, {"01": 0.6, "00": 0.4})
        assert rar(d, SINGLE_EDGE, -1.0, k=1) == 1.0

    def test_hand_example_k2(self):
        d = OutcomeDistribution(2, {"01": 0.4, "10": 0.3, "00": 0.2, "11": 0.1})
        assert rar(d, SINGLE_EDGE, -1.0, k=2) == 1.0

    def test_weight_ties_prefer_lower_energy(self):
        # "00" and "01" tie at 0.5; k=1 must keep the lower-energy "01"
        d = OutcomeDistribution(2, {"00": 0.5, "01": 0.5})
        assert rar(d, SINGLE_EDGE, -1.0, k=1) == 1.0

    def test_k_validated(self):
        d = OutcomeDistribution(2, {"01": 1.0})
        with pytest.raises(ValueError):
            rar(d, SINGLE_EDGE, -1.0, k=0)

    def test_at_most_one_for_negative_minimum(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m = random_ising(rng, n=4)
            rep = brute_force(m)
            if rep.global_min >= 0.0:
                continue
            w = rng.random(16)
            w /= w.sum()
            d = OutcomeDistribution(
                4, {format(i, "04b")[::-1]: float(w[i]) for i in range(16)}
            ).normalized()
            assert ar(d, m, rep.global_min) <= 1.0
            assert rar(d, m, rep.global_min, k=5) <= 1.0


def _reference_top_k(dist, model, global_min, k):
    """``rar`` as ranked by ``sorted((-w, e, bitstring))``, one evaluator call per outcome."""

    def energy(bits):
        x = bitstring_to_array(bits)
        if isinstance(model, IsingModel):
            return eval_ising(model, 2 * x.astype(np.int64) - 1)
        return eval_qubo(model, x)

    ranked = sorted(
        ((w, energy(b), b) for b, w in dist.weights.items()),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    num = 0.0
    den = 0.0
    for w, e, _ in ranked[:k]:
        num += w * e
        den += w
    return num / den / global_min


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_metrics_match_the_per_outcome_ranking_under_ties(seed):
    # +-1 couplings give few distinct energies, and counts of 0-3 few
    # distinct weights, so most ranks are decided by energy or bitstring
    rng = np.random.default_rng(seed)
    n = 8
    ising = generate("regular3", n, rng)
    for model in (ising, ising_to_qubo(ising)):
        picked = rng.choice(1 << n, size=int(rng.integers(1, 1 << n)), replace=False)
        counts = rng.integers(0, 4, picked.size).astype(float)
        counts[0] = 1.0
        keys = [format(int(k), f"0{n}b")[::-1] for k in picked]
        dist = OutcomeDistribution(n, dict(zip(keys, (counts / counts.sum()).tolist())))
        gmin = brute_force(model).global_min
        size = len(dist.weights)
        assert _bits(ar(dist, model, gmin)) == _bits(_reference_top_k(dist, model, gmin, size))
        for k in sorted({1, 2, 5, size // 2 or 1, size, size + 3}):
            expected = _reference_top_k(dist, model, gmin, k)
            assert _bits(rar(dist, model, gmin, k=k)) == _bits(expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_a_multi_block_table(monkeypatch):
    # the parent's table starts the pool; a child that reused it would
    # wait for ever on threads that did not survive the fork
    monkeypatch.setattr(oracle, "WORKERS", max(2, oracle.WORKERS))
    model = generate("sk", oracle.BLOCK_BITS + 4)
    expected = energy_table(model).tobytes()
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            code = 0 if energy_table(model).tobytes() == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its table within 30 s")
    assert os.waitstatus_to_exitcode(status[1]) == 0
