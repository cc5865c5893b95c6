"""Scheme I: sign flips, stretching, and outcome decryption."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_spin_configs, random_ising
from isingcloak import (
    IsingModel,
    KeyI,
    OutcomeDistribution,
    attack_complexity1,
    brute_force,
    decrypt1,
    encrypt1,
    eval_ising,
    flip_spins,
    gen_key1,
    recover_energy1,
)
from isingcloak.scheme1 import key1_from_dict, key1_to_dict
from isingcloak.util import flip_positions


class TestGenKey1:
    def test_reproducible(self):
        a = gen_key1(8, np.random.default_rng(7))
        b = gen_key1(8, np.random.default_rng(7))
        assert a == b
        assert a.tau >= 1.0

    def test_target_fraction_near_half(self):
        rng = np.random.default_rng(8)
        fractions = [len(gen_key1(16, rng).targets) / 16 for _ in range(10_000)]
        assert abs(np.mean(fractions) - 0.5) <= 0.02

    def test_tau_mostly_in_one_to_four(self):
        rng = np.random.default_rng(9)
        taus = np.array([gen_key1(2, rng).tau for _ in range(10_000)])
        assert np.all(taus >= 1.0)
        assert np.mean((taus >= 1.0) & (taus <= 4.0)) >= 0.95

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            gen_key1(0, np.random.default_rng(0))

    def test_key_validation(self):
        with pytest.raises(ValueError):
            KeyI(2, frozenset({5}), 1.5)
        with pytest.raises(ValueError):
            KeyI(2, frozenset(), 0.0)


class TestEncrypt1:
    def test_frozen_example(self):
        m = IsingModel(2, (1.0, -1.0), {(0, 1): 2.0})
        enc = encrypt1(m, KeyI(2, frozenset({0}), 2.0))
        assert enc.h == (-2.0, -2.0)
        assert enc.J == {(0, 1): -4.0}
        assert enc.offset == 0.0

    def test_identity_key_only_zeroes_offset(self):
        m = IsingModel(2, (1.0, -1.0), {(0, 1): 2.0}, offset=9.0)
        enc = encrypt1(m, KeyI(2, frozenset(), 1.0))
        assert enc.h == m.h
        assert enc.J == m.J
        assert enc.offset == 0.0

    def test_both_endpoints_flipped_preserves_sign(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 3.0})
        enc = encrypt1(m, KeyI(2, frozenset({0, 1}), 2.0))
        assert enc.J == {(0, 1): 6.0}

    def test_size_mismatch(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        with pytest.raises(ValueError):
            encrypt1(m, KeyI(3, frozenset(), 1.0))

    def test_sparsity_pattern_unchanged(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = random_ising(rng)
            key = gen_key1(m.n, rng)
            assert set(encrypt1(m, key).J) == set(m.J)


class TestSpectrumLaw:
    def test_pointwise_scaling(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            m = random_ising(rng, n=int(rng.integers(2, 8)))
            key = gen_key1(m.n, rng)
            enc = encrypt1(m, key)
            for z in all_spin_configs(m.n):
                lhs = eval_ising(enc, flip_spins(z, key.targets))
                rhs = key.tau * (eval_ising(m, z) - m.offset)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_argmin_bijection(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            m = random_ising(rng, n=6)
            key = gen_key1(m.n, rng)
            orig = brute_force(m).argmin_set
            enc = brute_force(encrypt1(m, key)).argmin_set
            assert {flip_positions(b, key.targets) for b in orig} == enc
            assert len(orig) == len(enc)

    def test_gap_never_shrinks(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            m = random_ising(rng, n=5)
            key = gen_key1(m.n, rng)
            assert brute_force(encrypt1(m, key)).gap >= brute_force(m).gap


class TestDecrypt1:
    def test_bit_toggle(self):
        key = KeyI(2, frozenset({0}), 1.0)
        d = OutcomeDistribution(2, {"01": 0.7, "10": 0.3})
        assert decrypt1(d, key).weights == {"11": 0.7, "00": 0.3}

    def test_identity(self):
        key = KeyI(2, frozenset(), 1.0)
        d = OutcomeDistribution(2, {"01": 0.7, "10": 0.3})
        assert decrypt1(d, key) == d

    def test_involution(self):
        rng = np.random.default_rng(23)
        key = gen_key1(6, rng)
        w = rng.random(10)
        strings = [format(v, "06b")[::-1] for v in rng.choice(64, 10, replace=False)]
        d = OutcomeDistribution(6, dict(zip(strings, map(float, w))))
        assert decrypt1(decrypt1(d, key), key) == d

    def test_weight_totals_preserved(self):
        key = KeyI(3, frozenset({1, 2}), 2.0)
        d = OutcomeDistribution(3, {"000": 0.2, "101": 0.5, "111": 0.3})
        assert decrypt1(d, key).total == d.total

    def test_length_mismatch(self):
        key = KeyI(3, frozenset({1}), 2.0)
        with pytest.raises(ValueError):
            decrypt1(OutcomeDistribution(2, {"01": 1.0}), key)


class TestRecoverEnergy:
    def test_inverse_affine(self):
        assert recover_energy1(-8.0, KeyI(2, frozenset(), 2.0), 3.0) == -1.0

    def test_zero(self):
        assert recover_energy1(0.0, KeyI(2, frozenset(), 7.0), 0.0) == 0.0

    def test_round_trip_over_all_configs(self):
        rng = np.random.default_rng(24)
        m = random_ising(rng, n=6)
        key = gen_key1(m.n, rng)
        enc = encrypt1(m, key)
        for z in all_spin_configs(m.n):
            server_side = eval_ising(enc, flip_spins(z, key.targets))
            assert recover_energy1(server_side, key, m.offset) == pytest.approx(
                eval_ising(m, z), rel=1e-9, abs=1e-9
            )


class TestAttackComplexity1:
    @pytest.mark.parametrize("n", [1, 3, 127])
    def test_equals_n(self, n):
        assert attack_complexity1(n) == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            attack_complexity1(0)


class TestKeySerialization:
    def test_round_trip(self):
        key = KeyI(4, frozenset({1, 3}), 2.25, offset=-1.5)
        rec = key1_to_dict(key)
        assert rec["scheme"] == "I"
        assert rec["targets"] == [1, 3]
        assert key1_from_dict(json.loads(json.dumps(rec))) == key

    def test_scheme_tag_checked(self):
        with pytest.raises(ValueError):
            key1_from_dict({"scheme": "II"})


class TestStrictKeyParsing:
    REC = {"scheme": "I", "n": 2, "targets": [0], "tau": 1.5, "offset": 0.0}

    @pytest.mark.parametrize(
        "field,value", [("n", 2.7), ("n", "2"), ("targets", [0.9]), ("targets", [True])]
    )
    def test_non_integral_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            key1_from_dict({**self.REC, field: value})

    @pytest.mark.parametrize("tau", [0.5, 0.0, float("inf"), float("nan")])
    def test_tau_must_be_finite_and_at_least_one(self, tau):
        with pytest.raises(ValueError, match="tau"):
            key1_from_dict({**self.REC, "tau": tau})
        with pytest.raises(ValueError, match="tau"):
            KeyI(2, frozenset({0}), tau)

    @pytest.mark.parametrize(
        "field,value", [("tau", "1.5"), ("tau", True), ("offset", "0.5"), ("offset", False),
                        ("offset", float("nan"))]
    )
    def test_non_real_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite real number"):
            key1_from_dict({**self.REC, field: value})

    @pytest.mark.parametrize(
        "field,value,match",
        [("n", True, "integer"), ("targets", {0.9}, "integer"), ("targets", {True}, "integer"),
         ("tau", "1.5", "finite real number"), ("tau", True, "finite real number"),
         ("offset", "0.5", "finite real number")],
    )
    def test_constructor_rejects_coercion(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            replace(KeyI(2, frozenset({0}), 1.5), **{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="malformed scheme I key: unknown field 'perm'"):
            key1_from_dict({**self.REC, "perm": [1, 0]})

    def test_integral_floats_accepted(self):
        key = key1_from_dict({**self.REC, "n": 2.0, "targets": [1.0], "tau": 1.0})
        assert key == KeyI(2, frozenset({1}), 1.0)
        assert type(key.n) is int


@pytest.mark.parametrize("record", [[1], "x", 3, None])
def test_non_object_key_record_rejected(record):
    with pytest.raises(ValueError, match="JSON object"):
        key1_from_dict(record)
