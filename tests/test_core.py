"""Core representations, energy evaluation and Ising/QUBO conversion."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_bit_configs, all_spin_configs, random_ising, spins_from_bits
from isingcloak import (
    IsingModel,
    OutcomeDistribution,
    QuboModel,
    eval_ising,
    eval_qubo,
    ising_from_dict,
    ising_to_dict,
    ising_to_qubo,
    problem_graph,
    qubo_from_dict,
    qubo_to_dict,
    qubo_to_ising,
)
from isingcloak.core import distribution_from_dict, distribution_to_dict, dumps


class TestEvalIsing:
    def test_single_edge_antiparallel(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        assert eval_ising(m, [1, -1]) == -1.0

    def test_direct_substitution(self):
        m = IsingModel(2, (1.0, -1.0), {(0, 1): 2.0}, offset=3.0)
        assert eval_ising(m, [1, 1]) == 5.0

    def test_all_up_is_total_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_ising(rng)
            expected = sum(m.h) + sum(m.J.values()) + m.offset
            assert eval_ising(m, [1] * m.n) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        with pytest.raises(ValueError, match="length"):
            eval_ising(m, [1, 1, 1])

    def test_bad_alphabet(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        with pytest.raises(ValueError, match="spin"):
            eval_ising(m, [1, 0])

    def test_levels_compared_by_value(self):
        m = IsingModel(2, (0.5, 0.0), {(0, 1): 1.0})
        assert eval_ising(m, np.array([1.0, -1.0])) == eval_ising(m, [1, -1])
        with pytest.raises(ValueError, match="binary"):
            eval_qubo(ising_to_qubo(m), [0.5, 1])


class TestStackedEvaluation:
    def test_one_configuration_gives_a_float(self):
        m = IsingModel(2, (1.0, -1.0), {(0, 1): 2.0}, offset=3.0)
        assert type(eval_ising(m, [1, 1])) is float
        assert type(eval_qubo(ising_to_qubo(m), np.array([1, 0]))) is float

    def test_stack_gives_the_stack_shape(self):
        m = IsingModel(2, (1.0, -1.0), {(0, 1): 2.0}, offset=3.0)
        z = np.array([[[1, 1], [1, -1], [-1, 1]], [[-1, -1], [1, 1], [1, 1]]])
        e = eval_ising(m, z)
        assert e.shape == (2, 3)
        assert e.tolist() == [[eval_ising(m, row) for row in block] for block in z]

    def test_model_without_terms_gives_the_stack_shape(self):
        e = eval_qubo(QuboModel(3, {}, offset=1.5), np.zeros((4, 3)))
        assert e.shape == (4,) and e.tolist() == [1.5] * 4
        assert eval_ising(IsingModel(3, (0.0,) * 3, {}), [1, -1, 1]) == 0.0

    def test_wrong_last_axis_rejected(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        for z in (np.ones((4, 3)), np.ones((2, 1)), np.ones((2, 0)), 1):
            with pytest.raises(ValueError, match="length"):
                eval_ising(m, z)
        with pytest.raises(ValueError, match="length"):
            eval_qubo(ising_to_qubo(m), np.zeros((3, 1)))

    def test_bad_level_in_one_row_rejected(self):
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        z = np.ones((5, 2))
        z[3, 1] = 0.0
        with pytest.raises(ValueError, match="spin"):
            eval_ising(m, z)
        x = np.zeros((5, 2))
        x[4, 0] = -1.0
        with pytest.raises(ValueError, match="binary"):
            eval_qubo(ising_to_qubo(m), x)


class TestEvalQubo:
    def test_direct(self):
        m = QuboModel(2, {(0, 0): 2.0, (0, 1): -3.0, (1, 1): 1.0})
        assert eval_qubo(m, [1, 1]) == 0.0

    def test_zero_vector_gives_offset(self):
        m = QuboModel(2, {(0, 0): 2.0, (0, 1): -3.0}, offset=7.5)
        assert eval_qubo(m, [0, 0]) == 7.5

    def test_inactive_quadratic_term(self):
        m = QuboModel(2, {(0, 1): 4.0})
        assert eval_qubo(m, [1, 0]) == 0.0

    def test_errors(self):
        m = QuboModel(2, {(0, 1): 4.0})
        with pytest.raises(ValueError):
            eval_qubo(m, [1])
        with pytest.raises(ValueError, match="binary"):
            eval_qubo(m, [1, -1])


ISING = IsingModel(2, (0.5, 0.0), {(0, 1): 1.0})
QUBO = QuboModel(2, {(0, 1): 4.0})
DIST = OutcomeDistribution(1, {"0": 0.5})


class TestValidation:
    def test_unsorted_pair_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(2, (0.0, 0.0), {(1, 0): 1.0})

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            IsingModel(2, (0.0, 0.0), {(0, 0): 1.0})

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            IsingModel(2, (0.0, 0.0), {(0, 1): 0.0})

    def test_h_length_checked(self):
        with pytest.raises(ValueError):
            IsingModel(3, (0.0, 0.0), {})

    def test_qubo_lower_triangle_rejected(self):
        with pytest.raises(ValueError):
            QuboModel(2, {(1, 0): 1.0})

    @pytest.mark.parametrize(
        "record,field,value,match",
        [
            (ISING, "n", True, "integer"),
            (ISING, "h", ("1.5", 0.0), "finite real number"),
            (ISING, "h", (True, 0.0), "finite real number"),
            (ISING, "J", {(0, 1): "2"}, "finite real number"),
            (ISING, "J", {(0.5, 1): 1.0}, "integer"),
            (QUBO, "A", {(0, 1): True}, "finite real number"),
            (QUBO, "A", {("0", 1): 4.0}, "integer"),
            (DIST, "n", True, "integer"),
            (DIST, "weights", {"0": "0.5"}, "finite real number"),
            (DIST, "weights", {"0": True}, "finite real number"),
        ],
    )
    def test_constructors_reject_coercion(self, record, field, value, match):
        with pytest.raises(ValueError, match=match):
            replace(record, **{field: value})

    def test_integral_float_n_accepted(self):
        for record in (ISING, QUBO, DIST):
            assert replace(record, n=float(record.n)) == record
            assert type(replace(record, n=float(record.n)).n) is int

    def test_n_positive(self):
        with pytest.raises(ValueError):
            IsingModel(0, (), {})


class TestIsingToQubo:
    def test_single_edge_frozen_values(self):
        # expanding (2x0-1)(2x1-1) by hand gives 4 x0 x1 - 2 x0 - 2 x1 + 1
        m = IsingModel(2, (0.0, 0.0), {(0, 1): 1.0})
        q = ising_to_qubo(m)
        assert q.A == {(0, 0): -2.0, (1, 1): -2.0, (0, 1): 4.0}
        assert q.offset == 1.0

    def test_single_field(self):
        q = ising_to_qubo(IsingModel(1, (1.0,), {}))
        assert q.A == {(0, 0): 2.0}
        assert q.offset == -1.0

    def test_empty_model(self):
        q = ising_to_qubo(IsingModel(1, (0.0,), {}))
        assert q.A == {}
        assert q.offset == 0.0

    def test_energy_equality_exhaustive(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = random_ising(rng, n=int(rng.integers(2, 7)))
            q = ising_to_qubo(m)
            for z in all_spin_configs(m.n):
                x = [(s + 1) // 2 for s in z]
                ez = eval_ising(m, z)
                ex = eval_qubo(q, x)
                assert ex == pytest.approx(ez, rel=1e-12, abs=1e-12)


class TestQuboToIsing:
    def test_round_trip_is_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_ising(rng)
            back = qubo_to_ising(ising_to_qubo(m))
            assert back.n == m.n
            assert set(back.J) == set(m.J)
            for k in m.J:
                assert back.J[k] == m.J[k]  # multiply/divide by 4 is exact
            for a, b in zip(back.h, m.h):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            assert back.offset == pytest.approx(m.offset, rel=1e-12, abs=1e-12)

    def test_single_diagonal(self):
        m = qubo_to_ising(QuboModel(1, {(0, 0): 2.0}, offset=-1.0))
        assert m.h == (1.0,)
        assert m.J == {}
        assert m.offset == 0.0

    def test_pure_quadratic_brute_force_oracle(self):
        # 4 x0 x1 + 1 under x = (z+1)/2 expands to z0 z1 + z0 + z1 + 2
        q = QuboModel(2, {(0, 1): 4.0}, offset=1.0)
        m = qubo_to_ising(q)
        assert m.h == (1.0, 1.0)
        assert m.J == {(0, 1): 1.0}
        assert m.offset == 2.0
        for x in all_bit_configs(2):
            assert eval_ising(m, spins_from_bits(x)) == pytest.approx(
                eval_qubo(q, x), rel=1e-12
            )

    def test_exhaustive_equality_n12(self):
        rng = np.random.default_rng(3)
        m = random_ising(rng, n=12, density=0.3)
        q = ising_to_qubo(m)
        from isingcloak import energy_table

        ei = energy_table(m)
        eq = energy_table(q)
        tol = 1e-12 * max(1.0, float(np.abs(ei).max()))
        assert np.max(np.abs(ei - eq)) <= tol


class TestTerms:
    def test_qubo_lists_diagonal_before_offdiagonal(self):
        q = QuboModel(3, {(0, 1): 1.0, (1, 1): 2.0, (0, 0): 3.0})
        assert list(q.terms()) == [(0, 0, 3.0), (1, 1, 2.0), (0, 1, 1.0)]
        assert q.levels == (0.0, 1.0)

    def test_ising_skips_zero_fields(self):
        m = IsingModel(3, (0.0, 2.0, 0.0), {(0, 2): -1.5, (0, 1): 0.5})
        assert list(m.terms()) == [(1, 1, 2.0), (0, 1, 0.5), (0, 2, -1.5)]
        assert m.levels == (-1.0, 1.0)


class TestProblemGraph:
    def test_support(self):
        m = IsingModel(3, (0.0,) * 3, {(0, 1): 1.0, (1, 2): -1.0})
        g = problem_graph(m)
        assert g.edges == ((0, 1), (1, 2))
        assert g.degrees == (1, 2, 1)

    def test_complete_graph(self):
        m = IsingModel(4, (0.0,) * 4, {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)})
        g = problem_graph(m)
        assert len(g.edges) == 6
        assert g.degrees == (3, 3, 3, 3)

    def test_empty(self):
        g = problem_graph(IsingModel(3, (0.0,) * 3, {}))
        assert g.edges == ()
        assert g.degrees == (0, 0, 0)

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = problem_graph(random_ising(rng))
            assert sum(g.degrees) == 2 * len(g.edges)

    def test_qubo_offdiagonal_support(self):
        q = QuboModel(3, {(0, 0): 1.0, (0, 2): 2.0})
        g = problem_graph(q)
        assert g.edges == ((0, 2),)
        assert g.degrees == (1, 0, 1)


class TestOutcomeDistribution:
    def test_normalized_flag(self):
        d = OutcomeDistribution(2, {"01": 0.5, "10": 0.5})
        assert d.is_normalized
        assert not OutcomeDistribution(2, {"01": 0.5}).is_normalized

    def test_rejects_mismatched_length(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {"011": 1.0})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(2, {"01": -0.1})

    def test_rejects_non_string_key(self):
        with pytest.raises(ValueError, match="string"):
            OutcomeDistribution(1, {1: 1.0})
        with pytest.raises(ValueError, match="string"):
            distribution_from_dict({"n": 1, "counts": {1: 1.0}})

    def test_normalize(self):
        d = OutcomeDistribution(1, {"0": 1.0, "1": 3.0}).normalized()
        assert d.weights == {"0": 0.25, "1": 0.75}


class TestSerialization:
    def test_ising_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_ising(rng)
            again = ising_from_dict(json.loads(dumps(ising_to_dict(m))))
            assert again == m

    def test_pairs_sorted(self):
        m = IsingModel(3, (0.0,) * 3, {(1, 2): 1.0, (0, 1): 2.0})
        rec = ising_to_dict(m)
        assert rec["J"] == [[0, 1, 2.0], [1, 2, 1.0]]
        assert list(rec) == ["n", "h", "J", "offset"]

    def test_qubo_round_trip(self):
        q = QuboModel(2, {(0, 0): -2.0, (0, 1): 4.0, (1, 1): -2.0}, offset=1.0)
        assert qubo_from_dict(json.loads(dumps(qubo_to_dict(q)))) == q

    def test_distribution_round_trip(self):
        d = OutcomeDistribution(2, {"01": 0.7, "10": 0.3})
        assert distribution_from_dict(json.loads(dumps(distribution_to_dict(d)))) == d

    def test_malformed_record(self):
        with pytest.raises(ValueError):
            ising_from_dict({"n": 2, "h": [0.0, 0.0]})

    @pytest.mark.parametrize("parse,record,field", [
        (ising_from_dict, {"n": 1, "h": [0.5], "J": [], "offset": 0.0}, "A"),
        (qubo_from_dict, {"n": 1, "A": [[0, 0, 1.0]], "offset": 0.0}, "h"),
        (distribution_from_dict, {"n": 1, "counts": {"1": 1.0}}, "shots"),
    ], ids=["ising", "qubo", "distribution"])
    def test_unknown_field_rejected(self, parse, record, field):
        # a field that the parser does not read is an error, not dropped
        parse(record)
        with pytest.raises(ValueError, match=f"unknown field '{field}'"):
            parse({**record, field: 1})

    def test_duplicate_ising_pair_rejected(self):
        rec = {"n": 2, "h": [0.0, 0.0], "J": [[0, 1, 1.0], [0, 1, -1.0]], "offset": 0.0}
        with pytest.raises(ValueError, match="more than once"):
            ising_from_dict(rec)

    def test_duplicate_qubo_key_rejected(self):
        rec = {"n": 2, "A": [[1, 1, 2.0], [0, 1, 4.0], [1, 1, -2.0]], "offset": 0.0}
        with pytest.raises(ValueError, match="more than once"):
            qubo_from_dict(rec)

    @pytest.mark.parametrize("n", [2.7, "2", True, None])
    def test_non_integral_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            ising_from_dict({"n": n, "h": [0.0, 0.0], "J": [], "offset": 0.0})
        with pytest.raises(ValueError, match="integer"):
            qubo_from_dict({"n": n, "A": [], "offset": 0.0})

    def test_non_integral_pair_index_rejected(self):
        rec = {"n": 2, "h": [0.0, 0.0], "J": [[0.5, 1, 1.0]], "offset": 0.0}
        with pytest.raises(ValueError, match="integer"):
            ising_from_dict(rec)

    def test_integral_float_n_accepted(self):
        m = ising_from_dict({"n": 2.0, "h": [0.0, 1.0], "J": [[0, 1, 1.0]], "offset": 0.0})
        assert m.n == 2 and type(m.n) is int

    @pytest.mark.parametrize("n", [2.9, "2", True])
    def test_distribution_non_integral_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            distribution_from_dict({"n": n, "counts": {"01": 1.0}})

    @pytest.mark.parametrize(
        "field,value",
        [("h", ["1.5", 0.0]), ("h", [True, 0.0]), ("J", [[0, 1, "2"]]), ("J", [[0, 1, False]]),
         ("offset", "3"), ("offset", True), ("offset", float("nan")), ("offset", float("inf")),
         ("offset", 10**400)],
    )
    def test_non_real_ising_fields_rejected(self, field, value):
        rec = {"n": 2, "h": [0.5, 0.0], "J": [[0, 1, 1.0]], "offset": 0.0, field: value}
        with pytest.raises(ValueError, match="finite real number"):
            ising_from_dict(rec)

    @pytest.mark.parametrize("field,value", [("A", [[0, 1, "4"]]), ("offset", float("nan"))])
    def test_non_real_qubo_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite real number"):
            qubo_from_dict({"n": 2, "A": [[0, 1, 4.0]], "offset": 0.0, field: value})

    @pytest.mark.parametrize("weight", ["0.5", True])
    def test_non_real_distribution_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="finite real number"):
            distribution_from_dict({"n": 2, "counts": {"01": 0.5, "10": weight}})

    def test_integer_and_numpy_reals_accepted(self):
        m = ising_from_dict({"n": 2, "h": [1, np.float32(0.5)], "J": [[0, 1, np.int64(-2)]],
                             "offset": 3})
        assert m == IsingModel(2, (1.0, 0.5), {(0, 1): -2.0}, 3.0)
        assert distribution_from_dict({"n": 1, "counts": {"0": 3, "1": 1.5}}).weights == {
            "0": 3.0, "1": 1.5}

    @pytest.mark.parametrize("offset", [float("nan"), float("inf")])
    def test_non_finite_model_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="offset"):
            IsingModel(1, (1.0,), {}, offset)
        with pytest.raises(ValueError, match="offset"):
            QuboModel(1, {(0, 0): 1.0}, offset)
