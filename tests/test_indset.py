import numpy as np
import pytest

from mapfkit import EXACT_THRESHOLD, IntersectionGraph, independent_set, mis_exact, mis_greedy

from oracles import max_independent_set_size, min_degree_greedy, round_choice


def component(nodes, edges):
    """The ``(nodes, adj)`` pair that ``mis_exact`` and ``mis_greedy`` read."""
    return nodes, IntersectionGraph(tuple(nodes), frozenset(edges)).adjacency()


def is_independent(nodes, edges, chosen):
    return not any(a in chosen and b in chosen for a, b in edges)


def is_maximal(nodes, edges, chosen):
    adj = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return all(n in chosen or adj[n] & chosen for n in nodes)


def random_graph(rng, n, p=0.4):
    nodes = tuple(range(n))
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    }
    return nodes, edges


class TestExact:
    def test_triangle_tie_break(self):
        g = component([0, 1, 2], {(0, 1), (1, 2), (0, 2)})
        assert mis_exact(*g) == {0}

    def test_path_graph(self):
        g = component([0, 1, 2], {(0, 1), (1, 2)})
        assert mis_exact(*g) == {0, 2}

    def test_too_large_rejected(self):
        nodes = list(range(EXACT_THRESHOLD + 1))
        g = component(nodes, set())
        with pytest.raises(ValueError):
            mis_exact(*g)

    def test_lexicographic_among_maximum(self):
        # two maximum sets {0, 3} and {1, 2}: the smaller tuple wins
        g = component([0, 1, 2, 3], {(0, 1), (0, 2), (1, 3), (2, 3)})
        assert mis_exact(*g) == {0, 3}

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(1, 10))
            nodes, edges = random_graph(rng, n, p=float(rng.uniform(0.1, 0.7)))
            g = component(nodes, edges)
            result = mis_exact(*g)
            assert is_independent(nodes, edges, result)
            assert len(result) == max_independent_set_size(nodes, edges)


class TestGreedy:
    def test_edgeless_takes_all(self):
        g = component([4, 7, 9], set())
        assert mis_greedy(*g) == {4, 7, 9}

    def test_star_takes_leaves(self):
        g = component([0, 1, 2, 3, 4, 5], {(0, i) for i in range(1, 6)})
        assert mis_greedy(*g) == {1, 2, 3, 4, 5}

    def test_always_independent_and_maximal(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            nodes, edges = random_graph(rng, n, p=float(rng.uniform(0.05, 0.6)))
            g = component(nodes, edges)
            result = mis_greedy(*g)
            assert is_independent(nodes, edges, result)
            assert is_maximal(nodes, edges, result)

    @pytest.mark.parametrize(
        "nodes, edges, expected",
        [
            # a 6-cycle: every degree ties at first, so 0 goes, then 2, then 4
            (range(6), {(i, (i + 1) % 6) for i in range(6)}, {0, 2, 4}),
            # a path 0-1-2-3: the ends tie at degree 1, and after 0 goes,
            # 2 and 3 tie again
            (range(4), {(0, 1), (1, 2), (2, 3)}, {0, 2}),
            # two triangles joined by the edge 12-13: 10 goes and takes 12
            # with it, so 13 falls to degree 2 and ties with 14 and 15
            ([10, 11, 12, 13, 14, 15], {(10, 11), (11, 12), (10, 12), (12, 13),
                                        (13, 14), (14, 15), (13, 15)}, {10, 13}),
            # 3 goes first, at degree 1; then 5 falls to degree 1 and goes
            # before 0 and 1, which tie once 2 is gone
            (range(6), {(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (2, 5)}, {0, 3, 5}),
        ],
    )
    def test_degree_ties_go_to_the_smallest_id(self, nodes, edges, expected):
        g = component(list(nodes), edges)
        assert min_degree_greedy(*g) == expected
        assert mis_greedy(*g) == expected

    def test_matches_the_full_scan(self):
        # the heap pops the node a full scan would pick, every time
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            nodes, edges = random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)))
            labels = [int(x) for x in rng.choice(1000, size=n, replace=False)]
            nodes = tuple(labels[i] for i in nodes)
            edges = {(labels[a], labels[b]) for a, b in edges}
            g = component(nodes, edges)
            assert mis_greedy(*g) == min_degree_greedy(*g)


class TestIndependentSet:
    @pytest.mark.parametrize(
        "nodes, edges", [((0,), {(0, 5)}), ((0,), {(5, 0)}), ((0, 1), {(1, 1)})]
    )
    def test_graph_refuses_edges_that_do_not_fit(self, nodes, edges):
        with pytest.raises(ValueError, match=r"is a self-loop or names an absent node"):
            IntersectionGraph(nodes, frozenset(edges))

    def test_two_crossing_pairs(self):
        g = IntersectionGraph((0, 1, 2, 3), frozenset({(0, 1), (2, 3)}))
        chosen = independent_set(g, ())
        assert len(chosen) == 2
        assert chosen == {0, 2}  # deterministic tie-break

    def test_edgeless_fixes_everyone(self):
        g = IntersectionGraph(tuple(range(6)), frozenset())
        assert independent_set(g, ()) == set(range(6))

    def test_two_disjoint_triangles(self):
        edges = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
        g = IntersectionGraph(tuple(range(6)), frozenset(edges))
        chosen = independent_set(g, ())
        assert len(chosen) == 2
        assert is_independent(g.nodes, edges, chosen)

    def test_large_components_fall_back_to_greedy(self):
        rng = np.random.default_rng(31)
        nodes, edges = random_graph(rng, 25, p=0.3)
        g = IntersectionGraph(nodes, frozenset(edges))
        chosen = independent_set(g, ())
        assert chosen
        assert is_independent(nodes, edges, chosen)
        assert is_maximal(nodes, edges, chosen)

    def test_nonempty_on_any_nonempty_graph(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            nodes, edges = random_graph(rng, n, p=0.8)
            g = IntersectionGraph(nodes, frozenset(edges))
            assert independent_set(g, ())

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        nodes, edges = random_graph(rng, 14, p=0.35)
        g = IntersectionGraph(nodes, frozenset(edges))
        assert independent_set(g, ()) == independent_set(g, ())

    def test_first_nodes_taken_first(self):
        # the nodes of ``first`` are taken in order while independent of
        # those taken; ids not in the graph and repeats are skipped
        g = IntersectionGraph((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3)}))
        assert independent_set(g, ()) == {0, 2}
        assert independent_set(g, (9, 1, 2, 1)) == {1, 3}
        assert independent_set(g, (3, 2, 0)) == {0, 3}

    def test_matches_round_choice_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(1, 31))
            ids = sorted(int(v) for v in rng.choice(40, size=n, replace=False))
            _, edges = random_graph(rng, n, p=float(rng.uniform(0.02, 0.4)))
            nodes = tuple(ids)
            edges = {(ids[a], ids[b]) for a, b in edges}
            # absent ids, both ends of an edge, and repeats
            first = [int(v) for v in rng.integers(0, 45, size=int(rng.integers(0, 8)))]
            for a, b in sorted(edges)[: int(rng.integers(0, 3))]:
                k = int(rng.integers(len(first) + 1))
                first[k:k] = [a, b]
            if first:
                first.append(first[int(rng.integers(len(first)))])
            g = IntersectionGraph(nodes, frozenset(edges))
            chosen = independent_set(g, first)
            assert chosen == round_choice(nodes, edges, first, EXACT_THRESHOLD)
            assert is_independent(nodes, edges, chosen)
            assert is_maximal(nodes, edges, chosen)
            listed = [v for v in first if v in nodes]
            if listed:
                assert listed[0] in chosen
