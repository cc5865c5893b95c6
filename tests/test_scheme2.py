"""Scheme II: roulette wheel, decoy embedding, permutation, round trips."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_ising
from isingcloak import (
    DecoyPlacement,
    IsingModel,
    KeyI,
    KeyII,
    OutcomeDistribution,
    QuboModel,
    RouletteWheel,
    apply_permutation,
    argmin_distribution,
    attack_complexity2,
    brute_force,
    build_roulette,
    decrypt2,
    embed_decoys,
    encrypt2,
    energy_table,
    eval_qubo,
    gen_permutation,
    generate,
    invert_permutation,
    ising_to_dict,
    ising_to_qubo,
    sample_weight,
)
from isingcloak.core import dumps
from isingcloak.scheme2 import key2_from_dict, key2_to_dict, permute_bits
from isingcloak.util import flip_positions

SKEWED = [1.0] * 90 + [2.0] * 10  # 90/10 split over two equal-width bins


class TestBuildRoulette:
    def test_degenerate_single_bin(self):
        for mode in ("preserve", "inverse"):
            wheel = build_roulette([1.0, 1.0, 1.0, 1.0], bins=2, mode=mode)
            nonzero = [w for w in wheel.sector_weights if w > 0.0]
            assert len(nonzero) == 1

    def test_preserve_matches_input_frequencies(self):
        rng = np.random.default_rng(30)
        wheel = build_roulette(SKEWED, bins=2, mode="preserve")
        draws = np.array([sample_weight(wheel, rng) for _ in range(10_000)])
        freqs, _ = np.histogram(draws, bins=np.array(wheel.bin_edges))
        freqs = freqs / draws.size
        assert abs(freqs[0] - 0.9) <= 0.02
        assert abs(freqs[1] - 0.1) <= 0.02

    def test_inverse_inverts_frequencies(self):
        rng = np.random.default_rng(31)
        wheel = build_roulette(SKEWED, bins=2, mode="inverse")
        draws = np.array([sample_weight(wheel, rng) for _ in range(10_000)])
        freqs, _ = np.histogram(draws, bins=np.array(wheel.bin_edges))
        freqs = freqs / draws.size
        assert abs(freqs[0] - 0.1) <= 0.02
        assert abs(freqs[1] - 0.9) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_roulette([], bins=2)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            build_roulette([1.0], mode="flat")

    @pytest.mark.parametrize("bins", [True, 2.5, "3", 0])
    def test_bins_must_be_a_positive_integer(self, bins):
        with pytest.raises(ValueError, match="bins must be (at least 1|an integer)"):
            build_roulette([1.0, 2.0, 3.0], bins=bins)

    def test_integral_float_bins_give_the_same_wheel(self):
        assert build_roulette([1.0, 2.0, 3.0], bins=2.0) == build_roulette([1.0, 2.0, 3.0], bins=2)

    @pytest.mark.parametrize(
        "coeffs", [[4e-06, 4.000000000000001e-06], [1e-12], [-3e6, 3e6 * (1 + 1e-15)]]
    )
    def test_equal_magnitudes_widen_in_proportion(self, coeffs):
        hi = max(abs(c) for c in coeffs)
        wheel = build_roulette(coeffs, bins=10)
        assert wheel.bin_edges[0] == 0.5 * hi and wheel.bin_edges[-1] == 1.5 * hi
        rng = np.random.default_rng(35)
        assert all(0.5 * hi <= sample_weight(wheel, rng) <= 1.5 * hi for _ in range(100))


class TestSampleWeight:
    def test_range_containment(self):
        wheel = build_roulette([1.0, 2.0], bins=1)
        rng = np.random.default_rng(32)
        for _ in range(100):
            assert 1.0 < sample_weight(wheel, rng) <= 2.0

    def test_reproducible(self):
        wheel = build_roulette([1.0, 2.0, 3.0], bins=3)
        a = sample_weight(wheel, np.random.default_rng(5))
        b = sample_weight(wheel, np.random.default_rng(5))
        assert a == b

    def test_always_positive(self):
        # magnitudes collapse to zero, so the padded range dips below 0
        wheel = build_roulette([0.0, 0.0], bins=4)
        rng = np.random.default_rng(33)
        assert all(sample_weight(wheel, rng) > 0.0 for _ in range(10_000))

    def test_matches_choice_then_uniform(self):
        # the cached CDF draws exactly what rng.choice(p=...) and
        # rng.uniform draw, and leaves the generator in the same state
        def reference(wheel, rng):
            weights = np.asarray(wheel.sector_weights)
            k = int(rng.choice(len(weights), p=weights / weights.sum()))
            lo, hi = wheel.bin_edges[k], wheel.bin_edges[k + 1]
            w = float(rng.uniform(lo, hi))
            return 0.5 * (hi - lo) if w <= 0.0 else w

        source = np.random.default_rng(36)
        wheels = [build_roulette([2.5, 2.5, -2.5], bins=3), build_roulette([0.0, 0.0], bins=4)]
        for bins in range(1, 15):
            for mode in ("preserve", "inverse"):
                scale = 10.0 ** source.integers(-6, 7)
                coeffs = source.normal(size=int(source.integers(1, 40))) * scale
                wheels.append(build_roulette(coeffs.tolist(), bins=bins, mode=mode))
        for seed, wheel in enumerate(wheels):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [sample_weight(wheel, rng).hex() for _ in range(200)]
            assert got == [reference(wheel, ref).hex() for _ in range(200)]
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_cdf_is_not_a_field(self):
        wheel = build_roulette([1.0, 2.0, 3.0], bins=3)
        before = repr(wheel)
        sample_weight(wheel, np.random.default_rng(0))
        assert repr(wheel) == before
        assert wheel == RouletteWheel(wheel.bin_edges, wheel.sector_weights, wheel.mode)


class TestEmbedDecoys:
    def test_minimal_counts(self):
        q = ising_to_qubo(IsingModel(2, (1.0, -1.0), {(0, 1): 2.0}))
        wheel = build_roulette(list(q.A.values()))
        aug, placement = embed_decoys(q, 1, wheel, np.random.default_rng(34))
        assert aug.n == 3
        assert len(placement.B_entries) == 1
        assert len(placement.C_entries) == 1
        from isingcloak import problem_graph

        assert problem_graph(aug).degrees[2] >= 1

    def test_original_block_unchanged(self):
        rng = np.random.default_rng(35)
        q = ising_to_qubo(random_ising(rng, n=5))
        wheel = build_roulette(list(q.A.values()))
        aug, _ = embed_decoys(q, 3, wheel, rng, kmax_out=2, kmax_in=2)
        for k, v in q.A.items():
            assert aug.A[k] == v
        assert all(max(k) >= q.n for k in set(aug.A) - set(q.A))

    def test_zero_decoys_reproduce_original_energies(self):
        rng = np.random.default_rng(36)
        q = ising_to_qubo(random_ising(rng, n=4))
        wheel = build_roulette(list(q.A.values()))
        aug, _ = embed_decoys(q, 2, wheel, rng)
        for k in range(16):
            x = [(k >> i) & 1 for i in range(4)]
            assert eval_qubo(aug, x + [0, 0]) == eval_qubo(q, x)

    def test_dominance_and_projection(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = random_ising(rng, n=int(rng.integers(2, 7)))
            q = ising_to_qubo(m)
            if not q.A:
                continue
            wheel = build_roulette(list(q.A.values()))
            mdec = int(rng.integers(1, 4))
            aug, _ = embed_decoys(q, mdec, wheel, rng, kmax_out=2, kmax_in=2)
            base = energy_table(q)
            full = energy_table(aug)
            mask = (1 << q.n) - 1
            idx = np.arange(full.size)
            assert np.all(full >= base[idx & mask])
            assert np.array_equal(full[: 1 << q.n], base)  # y = 0 block
            # every global minimizer of the augmented problem projects onto one
            gmin = full.min()
            assert np.isclose(gmin, base.min())
            proj = set((idx[full == gmin] & mask).tolist())
            truth = set(np.flatnonzero(base == base.min()).tolist())
            assert proj <= truth

    def test_kmax_out_exceeding_n_rejected(self):
        q = ising_to_qubo(IsingModel(2, (1.0, 0.0), {(0, 1): 1.0}))
        wheel = build_roulette(list(q.A.values()))
        with pytest.raises(ValueError, match="distinct primary rows"):
            embed_decoys(q, 1, wheel, np.random.default_rng(0), kmax_out=3)


class TestPermutation:
    def test_size_one_identity(self):
        assert gen_permutation(1, np.random.default_rng(0)) == (0,)

    def test_inverse_composition(self):
        rng = np.random.default_rng(38)
        for size in (2, 5, 9):
            perm = gen_permutation(size, rng)
            inv = invert_permutation(perm)
            assert tuple(perm[inv[i]] for i in range(size)) == tuple(range(size))

    def test_uniformity(self):
        rng = np.random.default_rng(39)
        counts = {}
        for _ in range(10_000):
            p = gen_permutation(3, rng)
            counts[p] = counts.get(p, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 6) <= 0.02

    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(40)
        q = ising_to_qubo(random_ising(rng, n=4))
        assert apply_permutation(q, (0, 1, 2, 3)) == q

    def test_permute_then_invert(self):
        rng = np.random.default_rng(41)
        q = ising_to_qubo(random_ising(rng, n=5))
        perm = gen_permutation(5, rng)
        assert apply_permutation(apply_permutation(q, perm), invert_permutation(perm)) == q

    def test_energy_relabeling(self):
        rng = np.random.default_rng(42)
        q = ising_to_qubo(random_ising(rng, n=5))
        perm = gen_permutation(5, rng)
        qp = apply_permutation(q, perm)
        for _ in range(30):
            x = rng.integers(0, 2, 5)
            xp = np.zeros(5, dtype=int)
            for i in range(5):
                xp[perm[i]] = x[i]
            assert eval_qubo(qp, xp) == pytest.approx(eval_qubo(q, x), rel=1e-12)

    def test_spectrum_multiset_preserved(self):
        rng = np.random.default_rng(43)
        for n in (4, 7, 10):
            q = ising_to_qubo(random_ising(rng, n=n))
            perm = gen_permutation(n, rng)
            a = np.sort(energy_table(q))
            b = np.sort(energy_table(apply_permutation(q, perm)))
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.abs(a).max())

    def test_bad_perm_rejected(self):
        q = QuboModel(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            apply_permutation(q, (0, 0))


class TestEncrypt2:
    def test_output_size(self):
        rng = np.random.default_rng(44)
        m = random_ising(rng, n=5)
        enc, key = encrypt2(m, 3, rng)
        assert enc.n == 8
        assert key.n == 5 and key.m == 3
        assert enc.offset == 0.0
        assert key.offset == m.offset

    def test_deterministic_json_bytes(self):
        m = generate("ba2", 6, 3)
        enc_a, key_a = encrypt2(m, 1, np.random.default_rng(77))
        enc_b, key_b = encrypt2(m, 1, np.random.default_rng(77))
        assert dumps(ising_to_dict(enc_a)) == dumps(ising_to_dict(enc_b))
        assert dumps(key2_to_dict(key_a)) == dumps(key2_to_dict(key_b))

    def test_round_trip_recovers_argmin(self):
        seeds = range(25)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            family = ("ba1", "ba2", "sk", "er", "regular3")[seed % 5]
            n = 6 if family in ("regular3", "er") else 5 + seed % 3
            m = generate(family, n, rng)
            enc, key = encrypt2(m, 1 + seed % 3, rng)
            decoded = decrypt2(argmin_distribution(brute_force(enc)), key)
            assert decoded.support == brute_force(m).argmin_set

    def test_empty_problem_rejected(self):
        flat = IsingModel(3, (0.0,) * 3, {})
        with pytest.raises(ValueError, match="empty"):
            encrypt2(flat, 1, np.random.default_rng(0))


class TestDecrypt2:
    @staticmethod
    def _manual_key(n, m, perm=None, targets=frozenset(), tau=1.0):
        size = n + m
        perm = tuple(range(size)) if perm is None else perm
        return KeyII(n=n, m=m, perm=perm, key1=KeyI(size, targets, tau))

    def test_truncation_only(self):
        key = self._manual_key(2, 1)
        d = OutcomeDistribution(3, {"010": 1.0})
        assert decrypt2(d, key).weights == {"01": 1.0}

    def test_weight_merging(self):
        key = self._manual_key(2, 1)
        d = OutcomeDistribution(3, {"010": 0.4, "011": 0.6})
        assert decrypt2(d, key).weights == {"01": 1.0}

    def test_forward_map_identity_on_primary_bits(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            size = n + m
            perm = gen_permutation(size, rng)
            key1 = KeyI(size, frozenset(int(i) for i in np.flatnonzero(rng.random(size) < 0.5)), 2.0)
            key = KeyII(n=n, m=m, perm=perm, key1=key1)
            full = "".join(rng.choice(["0", "1"], size))
            # what the server would measure for hidden assignment `full`
            disclosed = "".join(full[invert_permutation(perm)[pos]] for pos in range(size))
            measured = flip_positions(disclosed, key1.targets)
            decoded = decrypt2(OutcomeDistribution(size, {measured: 1.0}), key)
            assert decoded.weights == {full[:n]: 1.0}

    def test_mass_preserved(self):
        rng = np.random.default_rng(46)
        m = random_ising(rng, n=4)
        enc, key = encrypt2(m, 2, rng)
        w = rng.random(12)
        w /= w.sum()
        strings = [format(v, "06b")[::-1] for v in rng.choice(64, 12, replace=False)]
        d = OutcomeDistribution(6, dict(zip(strings, map(float, w))))
        assert abs(decrypt2(d, key).total - d.total) <= 1e-12

    def test_length_mismatch(self):
        key = self._manual_key(2, 1)
        with pytest.raises(ValueError):
            decrypt2(OutcomeDistribution(2, {"01": 1.0}), key)


class TestAttackComplexity2:
    def test_paper_formula_value(self):
        import math

        assert attack_complexity2(3, 1) == pytest.approx(math.log2(1536), abs=1e-9)

    def test_small_exact(self):
        assert attack_complexity2(1, 1) == 4.0

    def test_monotone(self):
        for n in range(1, 6):
            for m in range(1, 6):
                assert attack_complexity2(n + 1, m) > attack_complexity2(n, m)
                assert attack_complexity2(n, m + 1) > attack_complexity2(n, m)


class TestKeySerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(47)
        _, key = encrypt2(random_ising(rng, n=4), 2, rng)
        rec = key2_to_dict(key)
        assert rec["scheme"] == "II"
        assert key2_from_dict(json.loads(json.dumps(rec))) == key

    def test_permute_bits_round_trip(self):
        rng = np.random.default_rng(48)
        perm = gen_permutation(6, rng)
        s = "010011"
        assert permute_bits(permute_bits(s, perm), invert_permutation(perm)) == s


class TestStrictKeyParsing:
    @staticmethod
    def _record():
        return key2_to_dict(encrypt2(random_ising(np.random.default_rng(49), n=2), 1,
                                     np.random.default_rng(50))[1])

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("m", 1.5), ("perm", [0, 1.7, 2])])
    def test_non_integral_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            key2_from_dict({**self._record(), field: value})

    @pytest.mark.parametrize("shift,match", [(3, "n must be"), (-2, "m must be")])
    def test_bad_decoy_split_rejected(self, shift, match):
        # n + m is kept, so perm and key1 still cover every variable
        rec = self._record()
        rec = {**rec, "n": rec["n"] - shift, "m": rec["m"] + shift}
        with pytest.raises(ValueError, match=match):
            key2_from_dict(rec)

    @pytest.mark.parametrize(
        "field,value,match",
        [("n", "2", "integer"), ("m", 1.5, "integer"), ("perm", ("0", "1", "2"), "integer"),
         ("offset", "0.5", "finite real number"), ("d_star", 2.5, "integer"),
         ("d_star", True, "integer")],
    )
    def test_constructor_rejects_coercion(self, field, value, match):
        key = key2_from_dict(self._record())
        with pytest.raises(ValueError, match=match):
            replace(key, **{field: value})

    def test_unknown_fields_rejected(self):
        rec = self._record()
        # d_star belongs to scheme III's record; dropped, it would leave a scheme II key
        with pytest.raises(ValueError, match="malformed scheme II key: unknown field 'd_star'"):
            key2_from_dict({**rec, "d_star": 3})
        with pytest.raises(ValueError, match="malformed scheme I key: unknown field 'perm'"):
            key2_from_dict({**rec, "key1": {**rec["key1"], "perm": rec["perm"]}})

    @pytest.mark.parametrize("value", ["0.0", True, float("nan")])
    def test_non_real_offset_rejected(self, value):
        with pytest.raises(ValueError, match="finite real number"):
            key2_from_dict({**self._record(), "offset": value})


def test_all_zero_model_has_a_clear_encrypt2_error():
    flat = IsingModel(3, (0.0,) * 3, {})
    with pytest.raises(ValueError, match="nonzero coefficient"):
        encrypt2(flat, 1, np.random.default_rng(0))
    # a coupling-free model with one nonzero field still has weights to draw
    field_only = IsingModel(3, (0.0, 0.5, 0.0), {})
    enc, key = encrypt2(field_only, 1, np.random.default_rng(0))
    decoded = decrypt2(argmin_distribution(brute_force(enc)), key)
    assert decoded.support == brute_force(field_only).argmin_set


COERCED = ["1", True, float("nan"), float("inf")]


@pytest.mark.parametrize("value", COERCED)
def test_roulette_wheel_rejects_coercion(value):
    with pytest.raises(ValueError, match="finite real number"):
        RouletteWheel((0.0, value), (1.0,), "inverse")
    with pytest.raises(ValueError, match="finite real number"):
        RouletteWheel((0.0, 1.0), (value,), "inverse")


def test_roulette_wheel_rejects_an_overflowing_span():
    # every edge is finite, but a draw across them would be inf
    with pytest.raises(ValueError, match="finite range"):
        RouletteWheel((-1e308, 1e308), (1.0,), "inverse")


@pytest.mark.parametrize("value", COERCED)
def test_decoy_placement_rejects_coercion(value):
    with pytest.raises(ValueError, match="finite real number"):
        DecoyPlacement({(0, 0): value}, {})
    with pytest.raises(ValueError, match="finite real number"):
        DecoyPlacement({(0, 0): 1.0}, {(0, 0): value})


@pytest.mark.parametrize("perm", [["1", "0"], [1.9, 0.2], [True, 0]])
def test_apply_permutation_rejects_coercion(perm):
    q = QuboModel(2, {(0, 0): 1.0, (0, 1): -2.0})
    with pytest.raises(ValueError, match="integer"):
        apply_permutation(q, perm)
    assert apply_permutation(q, [1.0, 0.0]) == apply_permutation(q, (1, 0))


@pytest.mark.parametrize("record", [[1], "x", 3, None])
def test_non_object_key_record_rejected(record):
    with pytest.raises(ValueError, match="JSON object"):
        key2_from_dict(record)
    rec = key2_to_dict(encrypt2(random_ising(np.random.default_rng(51), n=2), 1,
                                np.random.default_rng(52))[1])
    with pytest.raises(ValueError, match="JSON object"):
        key2_from_dict({**rec, "key1": record})
