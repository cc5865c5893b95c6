"""Scheme III: regularization conditions, decoy-edge placement, round trips."""

import json
import sys

import numpy as np
import pytest

from conftest import random_ising
from isingcloak import (
    IsingModel,
    argmin_distribution,
    attack_complexity2,
    attack_complexity3,
    brute_force,
    check_conditions,
    decrypt3,
    encrypt2,
    encrypt3,
    generate,
    minimal_decoy_count,
    problem_graph,
    regular_edge_set,
)
from isingcloak import scheme3
from isingcloak.scheme2 import KeyII, invert_permutation, key2_from_dict, key2_to_dict
from isingcloak.scheme3 import key3_from_dict, key3_to_dict

P3 = IsingModel(3, (0.0,) * 3, {(0, 1): 1.0, (1, 2): -1.0})
STAR = IsingModel(4, (0.0,) * 4, {(0, 1): 1.0, (0, 2): -1.0, (0, 3): 1.0})


class TestCheckConditions:
    def test_path_hand_case(self):
        # P3: degrees (1, 2, 1), d* = 2 -> s = 2, max_e = 1
        assert not check_conditions(3, 0, 2, 2, 1)
        assert check_conditions(3, 1, 2, 2, 1)

    def test_star_hand_case(self):
        # K1,3: degrees (3, 1, 1, 1), d* = 3 -> s = 6, max_e = 2
        assert not check_conditions(4, 1, 3, 6, 2)
        assert check_conditions(4, 2, 3, 6, 2)

    def test_already_regular(self):
        assert check_conditions(8, 0, 3, 0, 0)  # 8*3 even
        assert not check_conditions(5, 0, 3, 0, 0)  # 5*3 odd


class TestMinimalDecoyCount:
    def test_path(self):
        assert minimal_decoy_count((1, 2, 1), 2) == 1

    def test_star(self):
        assert minimal_decoy_count((3, 1, 1, 1), 3) == 2

    def test_regular_graph_needs_none(self):
        assert minimal_decoy_count((3,) * 8, 3) == 0

    def test_d_star_below_max_degree(self):
        with pytest.raises(ValueError):
            minimal_decoy_count((1, 2, 1), 1)

    def test_minimality_property(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            degs = problem_graph(random_ising(rng, n=int(rng.integers(3, 8)))).degrees
            d_star = max(degs) + int(rng.integers(0, 2))
            m = minimal_decoy_count(degs, d_star)
            if m > 0:
                n = len(degs)
                s = sum(d_star - d for d in degs)
                max_e = max(d_star - d for d in degs)
                assert not check_conditions(n, m - 1, d_star, s, max_e)


class TestRegularEdgeSet:
    def test_path_becomes_cycle(self):
        plan = regular_edge_set((1, 2, 1), 2, 1)
        assert plan.decoy_edges == ((0, 3), (2, 3))
        assert plan.deficiencies == (1, 0, 1)
        assert plan.total_deficiency == 2

    def test_star_with_two_decoys(self):
        plan = regular_edge_set((3, 1, 1, 1), 3, 2)
        degrees = [3, 1, 1, 1, 0, 0]
        for u, v in plan.decoy_edges:
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == [3] * 6

    def test_no_primary_primary_edges(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            degs = problem_graph(random_ising(rng, n=int(rng.integers(3, 8)))).degrees
            d_star = max(degs)
            m = minimal_decoy_count(degs, d_star)
            plan = regular_edge_set(degs, d_star, m)
            n = len(degs)
            assert all(max(u, v) >= n for u, v in plan.decoy_edges)
            assert len(set(plan.decoy_edges)) == len(plan.decoy_edges)

    def test_zero_decoys_empty_plan(self):
        plan = regular_edge_set((3,) * 8, 3, 0)
        assert plan.decoy_edges == ()

    def test_infeasible_m_rejected(self):
        with pytest.raises(ValueError):
            regular_edge_set((1, 2, 1), 2, 0)


def _reference_edge_set(degrees, d_star, m):
    """The two-phase greedy as first written: a per-primary sort and an adjacency test."""
    deficiencies = [d_star - d for d in degrees]
    n, s = len(degrees), sum(deficiencies)
    if not check_conditions(n, m, d_star, s, max(deficiencies)):
        raise ValueError(f"m={m} fails the regularization conditions for d_star={d_star}")
    decoy_need = [d_star] * m
    edges = set()
    for pi in sorted(range(n), key=lambda i: (-deficiencies[i], i)):
        need = deficiencies[pi]
        if need == 0:
            continue
        ranked = sorted(
            (dj for dj in range(m) if decoy_need[dj] > 0),
            key=lambda dj: (-decoy_need[dj], dj),
        )
        assert len(ranked) >= need
        for dj in ranked[:need]:
            edges.add((pi, n + dj))
            decoy_need[dj] -= 1
    while any(e > 0 for e in decoy_need):
        u = max((dj for dj in range(m) if decoy_need[dj] > 0), key=lambda dj: (decoy_need[dj], -dj))
        partners = sorted(
            (
                v
                for v in range(m)
                if v != u and decoy_need[v] > 0 and (n + min(u, v), n + max(u, v)) not in edges
            ),
            key=lambda v: (-decoy_need[v], v),
        )
        assert len(partners) >= decoy_need[u]
        for v in partners[: decoy_need[u]]:
            edges.add((n + min(u, v), n + max(u, v)))
            decoy_need[v] -= 1
        decoy_need[u] = 0
    return tuple(sorted(edges))


class TestRegularEdgeSetMatchesReference:
    def _assert_same(self, degrees, d_star, m):
        try:
            expected = _reference_edge_set(degrees, d_star, m)
        except ValueError:
            with pytest.raises(ValueError, match="fails the regularization conditions"):
                regular_edge_set(degrees, d_star, m)
            return False
        assert regular_edge_set(degrees, d_star, m).decoy_edges == expected
        return True

    def test_random_graphs_every_d_star_and_count(self):
        rng = np.random.default_rng(59)
        placed = 0
        for _ in range(120):
            n = int(rng.integers(1, 13))
            adjacency = np.triu(rng.random((n, n)) < rng.random(), 1)
            degrees = (adjacency.sum(0) + adjacency.sum(1)).tolist()
            for d_star in range(max(degrees), max(degrees) + 7):
                minimal = minimal_decoy_count(degrees, d_star)
                for m in range(minimal, minimal + 4):
                    placed += self._assert_same(degrees, d_star, m)
        assert placed > 1000

    @pytest.mark.parametrize("d_star", [50, 100])
    def test_path_at_large_d_star(self, d_star):
        assert self._assert_same((1, 2, 1), d_star, minimal_decoy_count((1, 2, 1), d_star))


class TestEncrypt3:
    def test_output_graph_is_regular(self):
        rng = np.random.default_rng(52)
        for seed in range(15):
            family = ("ba1", "ba2", "sk", "er", "regular3")[seed % 5]
            n = 6 if family in ("regular3", "er") else 5
            model = generate(family, n, np.random.default_rng(seed))
            enc, key = encrypt3(model, rng)
            degrees = problem_graph(enc).degrees
            assert set(degrees) == {key.d_star}

    def test_primary_graph_embedded(self):
        rng = np.random.default_rng(53)
        model = generate("ba2", 6, rng)
        enc, key = encrypt3(model, rng)
        inv = invert_permutation(key.perm)
        unpermuted = {tuple(sorted((inv[u], inv[v]))) for u, v in problem_graph(enc).edges}
        primary = {e for e in unpermuted if max(e) < model.n}
        assert primary == set(problem_graph(model).edges)

    def test_round_trip_recovers_argmin(self):
        for seed in range(20):
            family = ("ba1", "ba2", "sk", "er", "regular3")[seed % 5]
            n = 6 if family in ("regular3", "er") else 4 + seed % 3
            model = generate(family, n, np.random.default_rng(seed))
            enc, key = encrypt3(model, np.random.default_rng(1000 + seed))
            assert model.n + key.m <= 14
            decoded = decrypt3(argmin_distribution(brute_force(enc)), key)
            assert decoded.support == brute_force(model).argmin_set

    def test_decoy_count_stays_below_n_on_ba(self):
        for seed in range(10):
            for n in (4, 6, 8):
                model = generate("ba1", n, np.random.default_rng(seed))
                _, key = encrypt3(model, np.random.default_rng(seed))
                assert key.m <= n

    def test_d_star_override_and_validation(self):
        rng = np.random.default_rng(54)
        enc, key = encrypt3(P3, rng, d_star=3)
        assert key.d_star == 3
        assert set(problem_graph(enc).degrees) == {3}
        with pytest.raises(ValueError):
            encrypt3(STAR, rng, d_star=2)

    def test_already_regular_needs_no_decoys(self):
        rng = np.random.default_rng(55)
        model = generate("sk", 5, rng)
        enc, key = encrypt3(model, rng)
        assert key.m == 0
        assert enc.n == 5
        decoded = decrypt3(argmin_distribution(brute_force(enc)), key)
        assert decoded.support == brute_force(model).argmin_set

    def test_all_zero_model_needing_decoys_has_a_clear_error(self):
        flat = IsingModel(3, (0.0,) * 3, {})
        with pytest.raises(ValueError, match="nonzero coefficient"):
            encrypt3(flat, np.random.default_rng(0), d_star=1)


    @pytest.mark.parametrize("options, message", [
        ({"bins": 0}, "bins must be at least 1"),
        ({"bins": -5}, "bins must be at least 1"),
        ({"mode": "bogus"}, "unknown roulette mode 'bogus'"),
    ], ids=["bins-0", "bins-negative", "mode-bogus"])
    def test_roulette_options_checked_without_decoys(self, options, message):
        model = generate("regular3", 8, np.random.default_rng(1))
        assert encrypt3(model, np.random.default_rng(2))[1].m == 0
        with pytest.raises(ValueError, match=message):
            encrypt3(model, np.random.default_rng(2), **options)
        with pytest.raises(ValueError, match=message):  # scheme II's message
            encrypt2(model, 1, np.random.default_rng(2), **options)
        # an all-zero model needs no decoys, so it still encrypts
        assert encrypt3(IsingModel(3, (0.0,) * 3, {}), np.random.default_rng(2))[1].m == 0


class TestAttackComplexity3:
    def test_delegates_to_scheme2(self):
        for n in range(1, 6):
            for m in range(1, 4):
                assert attack_complexity3(n, m) == attack_complexity2(n, m)

    def test_monotone_in_m(self):
        assert attack_complexity3(4, 3) > attack_complexity3(4, 2)


class TestKeySerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(56)
        _, key = encrypt3(generate("ba1", 5, rng), rng)
        rec = key3_to_dict(key)
        assert rec["scheme"] == "III"
        assert key3_from_dict(json.loads(json.dumps(rec))) == key

    def test_negative_d_star_rejected(self):
        rng = np.random.default_rng(57)
        _, key = encrypt3(generate("ba1", 5, rng), rng)
        with pytest.raises(ValueError, match="d_star must be nonnegative"):
            key3_from_dict({**key3_to_dict(key), "d_star": -4})

    def test_one_key_type_and_record_for_both_decoy_schemes(self):
        rng = np.random.default_rng(58)
        model = generate("ba1", 5, rng)
        _, key3 = encrypt3(model, rng)
        _, key2 = encrypt2(model, 2, rng)
        assert type(key3) is type(key2) is KeyII
        assert key2.d_star is None
        rec2, rec3 = key2_to_dict(key2), key3_to_dict(key3)
        assert list(rec3) == list(rec2) + ["d_star"]
        assert rec3["scheme"] == "III" and rec2["scheme"] == "II"
        assert key2_from_dict(rec3) == key3 and key3_from_dict(rec2) == key2

    def test_unknown_field_rejected(self):
        rng = np.random.default_rng(57)
        _, key = encrypt3(generate("ba1", 5, rng), rng)
        rec = key3_to_dict(key)
        with pytest.raises(ValueError, match="malformed scheme III key: unknown field 'kmax_in'"):
            key3_from_dict({**rec, "kmax_in": 1})
        assert key3_from_dict({**rec, "d_star": 0}).d_star == 0

    def test_non_integral_d_star_rejected(self):
        rng = np.random.default_rng(57)
        _, key = encrypt3(generate("ba1", 5, rng), rng)
        with pytest.raises(ValueError, match="integer"):
            key3_from_dict({**key3_to_dict(key), "d_star": 2.5})


class TestDegreeInputs:
    @pytest.mark.parametrize("degrees", [(1.5, 2), ("1", 2), (True, 2), (-1, 2)])
    def test_minimal_decoy_count_rejects_non_degrees(self, degrees):
        with pytest.raises(ValueError, match="degree must be"):
            minimal_decoy_count(degrees, 2)

    @pytest.mark.parametrize("degrees", [("1", "2", "1"), (1, 2.5, 1), (1, 2, float("nan"))])
    def test_regular_edge_set_rejects_non_degrees(self, degrees):
        with pytest.raises(ValueError, match="degree must be"):
            regular_edge_set(degrees, 2, 1)

    @pytest.mark.parametrize("m", [True, "1", 1.5])
    def test_regular_edge_set_rejects_non_integral_m(self, m):
        with pytest.raises(ValueError, match="m must be"):
            regular_edge_set((1, 2, 1), 2, m)

    def test_integral_floats_accepted(self):
        assert minimal_decoy_count((1.0, 2.0, 1.0), 2.0) == 1
        assert regular_edge_set((1.0, 2.0, 1.0), 2.0, 1.0) == regular_edge_set((1, 2, 1), 2, 1)

    def test_d_star_below_max_degree_message(self):
        for call in (lambda: minimal_decoy_count((1, 2, 1), 1),
                     lambda: regular_edge_set((1, 2, 1), 1, 1),
                     lambda: encrypt3(P3, np.random.default_rng(0), d_star=1)):
            with pytest.raises(ValueError, match="d_star=1 is below the maximum primary degree 2"):
                call()

    @pytest.mark.parametrize("degrees", [(2, 1, 2), (2, 1, 0)])
    def test_odd_degree_sum_rejected(self, degrees):
        # not a graph's degrees: the greedy placement used to stall on them
        with pytest.raises(ValueError, match="even sum"):
            minimal_decoy_count(degrees, 3)
        with pytest.raises(ValueError, match="even sum"):
            regular_edge_set(degrees, 3, 3)


def test_decoy_search_starts_at_the_largest_deficiency(monkeypatch):
    # every m below max(e_i) = 999 fails the conditions, so none is tried
    calls = []
    check = scheme3.check_conditions
    monkeypatch.setattr(scheme3, "check_conditions",
                        lambda *args: calls.append(args) or check(*args))
    assert minimal_decoy_count((1, 2, 1), 1000) == 999
    assert len(calls) == 1


def test_regular_edge_set_rejects_a_count_beyond_list_lengths():
    with pytest.raises(ValueError, match="at most"):
        regular_edge_set((1, 2, 1), 2, 10**400)


def _resorting_edge_set(degrees, d_star, m):
    """``regular_edge_set`` with a phase 2 that re-sorts the live decoys in full once per decoy."""
    degrees, d_star, deficiencies, s, max_e = scheme3._deficiencies(degrees, d_star)
    m = scheme3._integral(m, "m", least=0)
    if m > sys.maxsize:
        raise ValueError(f"m must be at most {sys.maxsize}, the largest list length")
    n = len(degrees)
    if not check_conditions(n, m, d_star, s, max_e):
        raise ValueError(f"m={m} fails the regularization conditions for d_star={d_star}")

    decoy_need = [d_star] * m
    edges = []
    dj = 0
    for pi in sorted(range(n), key=lambda i: (-deficiencies[i], i)):
        for _ in range(deficiencies[pi]):
            edges.append((pi, n + dj))
            decoy_need[dj] -= 1
            dj = (dj + 1) % m

    def rank(decoys):
        return sorted((dj for dj in decoys if decoy_need[dj] > 0), key=lambda dj: (-decoy_need[dj], dj))

    live = rank(range(m))
    while live:
        u, rest = live[0], live[1:]
        partners = rest[: decoy_need[u]]
        if len(partners) < decoy_need[u]:
            raise RuntimeError("decoy placement stalled with unmet decoy deficiencies")
        for v in partners:
            edges.append((n + min(u, v), n + max(u, v)))
            decoy_need[v] -= 1
        decoy_need[u] = 0
        live = rank(rest)

    final = list(degrees) + [0] * m
    for u, v in edges:
        final[u] += 1
        final[v] += 1
    if any(d != d_star for d in final):
        raise RuntimeError("regularization produced a non-regular graph")
    return scheme3.RegularizationPlan(
        d_star=d_star,
        m=m,
        deficiencies=tuple(deficiencies),
        total_deficiency=s,
        decoy_edges=tuple(sorted(edges)),
    )


def _random_placements(count):
    """Seeded feasible ``(degrees, d_star, m)`` on random graphs of at most 30 nodes.

    d* runs from the maximum degree to 10 above it and m from the
    minimal count to 40 above it, so both phases place edges.
    """
    rng = np.random.default_rng(61)
    cases = [((0, 0, 0), 0, 0), ((0, 0), 0, 3), ((2, 2, 2), 2, 0)]  # d* = 0 or m = 0
    while len(cases) < count:
        n = int(rng.integers(1, 31))
        adjacency = np.triu(rng.random((n, n)) < rng.random(), 1)
        degrees = tuple((adjacency.sum(0) + adjacency.sum(1)).tolist())
        d_star = max(degrees) + int(rng.integers(0, 11))
        m = minimal_decoy_count(degrees, d_star) + int(rng.integers(0, 41))
        deficiencies = [d_star - d for d in degrees]
        if check_conditions(n, m, d_star, sum(deficiencies), max(deficiencies)):
            cases.append((degrees, d_star, m))
    return cases


# m far above d*, where phase 2 links most of the decoys among themselves,
# then random graphs
@pytest.mark.parametrize("degrees, d_star, m", [
    ((1, 2, 1), 2, 1000),
    ((1, 2, 1), 2, 4000),
    ((2, 2, 2, 1, 1), 2, 2501),
    ((3, 1, 1, 1, 2, 2), 5, 1500),
] + _random_placements(40))
def test_merged_placement_matches_the_resorting_one_at_large_m(degrees, d_star, m):
    assert regular_edge_set(degrees, d_star, m) == _resorting_edge_set(degrees, d_star, m)
