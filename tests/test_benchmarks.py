"""Benchmark instance generators."""

import numpy as np
import pytest

from conftest import subcommands
from isingcloak import FAMILIES, generate, problem_graph


def connected(graph):
    if graph.n == 0:
        return True
    adj = {i: set() for i in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = adj[frontier.pop()] - seen
        seen |= nxt
        frontier.extend(nxt)
    return len(seen) == graph.n


class TestFamilies:
    def test_sk_complete(self):
        g = problem_graph(generate("sk", 4, np.random.default_rng(0)))
        assert len(g.edges) == 6
        assert g.degrees == (3, 3, 3, 3)

    def test_regular3(self):
        g = problem_graph(generate("regular3", 6, np.random.default_rng(1)))
        assert set(g.degrees) == {3}
        assert len(g.edges) == 9

    def test_regular3_odd_rejected(self):
        with pytest.raises(ValueError):
            generate("regular3", 5, np.random.default_rng(0))

    def test_ba1_is_tree(self):
        g = problem_graph(generate("ba1", 8, np.random.default_rng(2)))
        assert len(g.edges) == 7
        assert connected(g)

    def test_ba2_edge_count(self):
        g = problem_graph(generate("ba2", 8, np.random.default_rng(3)))
        assert len(g.edges) == 2 * 8 - 3
        assert connected(g)

    def test_er_edge_probability(self):
        rng = np.random.default_rng(4)
        counts = [len(problem_graph(generate("er", 10, rng)).edges) for _ in range(200)]
        # binomial(45, 0.6): mean 27, sigma of the 200-draw mean ~0.2325
        assert abs(np.mean(counts) - 27.0) <= 3 * np.sqrt(45 * 0.6 * 0.4 / 200)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            generate("grid", 4, np.random.default_rng(0))

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            generate("sk", 1, np.random.default_rng(0))


class TestCoefficients:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_fields_and_unit_couplings(self, family):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 8 if family == "regular3" else 7
            m = generate(family, n, rng)
            assert all(v == 0.0 for v in m.h)
            assert all(v in (-1.0, 1.0) for v in m.J.values())
            assert m.offset == 0.0

    def test_deterministic_per_seed(self):
        for family in FAMILIES:
            n = 6
            a = generate(family, n, np.random.default_rng(9))
            b = generate(family, n, np.random.default_rng(9))
            assert a == b


def test_families_are_the_choices_of_gen():
    family = next(a for a in subcommands()["gen"]._actions if a.dest == "family")
    assert family.choices == FAMILIES == ("regular3", "sk", "er", "ba1", "ba2")
