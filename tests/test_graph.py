"""Graph construction, generators, and edge-list persistence."""
from __future__ import annotations

import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from conftest import rng_for
from diffusim import graph
from diffusim.graph import (ArcError, EdgeListError, Graph, GraphSpec,
                            barabasi_albert, build_graph, complete_graph,
                            directed_cycle, load_edge_list, save_edge_list,
                            watts_strogatz)

import graph_reference


def arc_set(g: Graph) -> set:
    return {(int(v), int(u)) for v, u in g.arcs}


def local_clustering(g: Graph, u: int) -> float:
    """Independent triangle-count oracle over the underlying undirected
    neighborhood (every arc here comes in opposed pairs)."""
    neigh = [int(v) for v in g.out_neighbors(u)]
    if len(neigh) < 2:
        return 0.0
    arcs = arc_set(g)
    links = sum(1 for i, a in enumerate(neigh) for b in neigh[i + 1:]
                if (a, b) in arcs)
    return 2.0 * links / (len(neigh) * (len(neigh) - 1))


class TestGraphCore:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_rejection_names_first_offending_arc_and_its_position(self):
        arcs = [(0, 1), (1, 2), (2, 2), (1, 2), (0, 1), (0, 0), (2, 7)]
        cases = [(arcs, "out of range", (2, 7), 6),
                 (arcs[:-1], "self-loop", (2, 2), 2),
                 (arcs[:2] + arcs[3:5], "duplicate", (1, 2), 2)]
        for given, rule, arc, index in cases:
            with pytest.raises(ArcError) as info:
                Graph(3, np.array(given))
            error = info.value
            assert (error.rule, error.arc, error.index) == (rule, arc, index)
            assert str(arc) in str(info.value)

    def test_duplicate_named_at_its_second_occurrence_in_any_order(self):
        rng = np.random.default_rng(8)
        n = 50
        codes = rng.choice(n * n, size=600, replace=False)
        arcs = np.stack(np.divmod(codes, n), axis=1)
        arcs = arcs[arcs[:, 0] != arcs[:, 1]]
        for trial in range(20):
            picks = rng.choice(len(arcs), size=30, replace=False)
            given = np.concatenate([arcs, arcs[picks]])[rng.permutation(len(arcs) + 30)]
            seen, second = set(), None
            for i, arc in enumerate(map(tuple, given.tolist())):
                if arc in seen:
                    second = i
                    break
                seen.add(arc)
            with pytest.raises(ArcError, match="duplicate") as info:
                Graph(n, given)
            assert info.value.index == second

    def test_rejects_node_ids_that_are_not_integers(self):
        cases = [(np.array([[0.9, 2.2]]), (0.9, 2.2), 0),
                 (np.array([[0.0, 1.0]]), (0.0, 1.0), 0),
                 ([(0, 1), (1, 2.5)], (1, 2.5), 1),
                 ([("0", "2")], ("0", "2"), 0),
                 (np.array([[True, False]]), (True, False), 0),
                 ([(0, 1), (1, None)], (1, None), 1),
                 ([(True, 2)], (True, 2), 0)]
        for given, arc, index in cases:
            with pytest.raises(ArcError) as info:
                Graph(3, given)
            error = info.value
            assert (error.rule, error.arc, error.index) == \
                ("not an integer", arc, index)
            assert str(arc) in str(error)
        for n in (3.7, 3.0, "3", True):
            with pytest.raises(ValueError, match="node count: expected an integer"):
                Graph(n, [(0, 1)])

    def test_integer_ids_of_any_width_are_accepted(self):
        for arcs in (np.array([[0, 2]], dtype=np.uint8),
                     np.array([[0, 2]], dtype=np.int32),
                     np.array([[0, 2]], dtype=object), [(0, 2)]):
            g = Graph(np.int64(3), arcs)
            assert arc_set(g) == {(0, 2)} and g.arcs.dtype == np.int64
        assert Graph(4, np.zeros((0, 2))).arc_count == 0

    def test_ids_beyond_int64_are_out_of_range(self):
        for big in (2 ** 63, 2 ** 70, -2 ** 70):
            with pytest.raises(ArcError, match="out of range") as info:
                Graph(3, [(0, 1), (1, big)])
            assert info.value.arc == (1, big) and info.value.index == 1

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            Graph(0, [])

    def test_rejects_arcs_that_are_not_pairs(self):
        for arcs in ([[0, 1, 2]], [0, 1], np.zeros((2, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match=r"^arcs must be \(v, u\) pairs$"):
                Graph(3, arcs)

    def test_node_count_is_capped_where_arc_codes_fit_int64(self):
        limit = graph.MAX_NODES
        assert limit ** 2 < 2 ** 63 <= (limit + 1) ** 2
        for n in (limit + 1, 10 ** 12):
            with pytest.raises(ValueError, match=f"node count must be <= {limit}"):
                Graph(n, [])

    def test_arc_order_and_dtype_do_not_change_the_graph(self):
        rng = np.random.default_rng(5)
        n = 40
        codes = rng.choice(n * n, size=300, replace=False)
        arcs = np.stack(np.divmod(codes, n), axis=1)
        arcs = arcs[arcs[:, 0] != arcs[:, 1]]
        by_src = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
        by_dst = arcs[np.lexsort((arcs[:, 0], arcs[:, 1]))]
        for given in (arcs, by_src, by_src[::-1], by_src.astype(np.int32),
                      [tuple(a) for a in arcs.tolist()]):
            g = Graph(n, given)
            assert np.array_equal(g.arcs, by_src)
            assert np.array_equal(g.in_degrees, np.bincount(by_dst[:, 1], minlength=n))
            assert all(np.array_equal(g.out_neighbors(v), by_src[by_src[:, 0] == v, 1])
                       for v in range(n))

    def test_arcless_graph_is_fine(self):
        g = Graph(4, [])
        assert g.n == 4 and g.arc_count == 0
        assert g.in_degrees[2] == 0 and g.out_neighbors(2).size == 0

    def test_degree_sums_match_arc_count(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 1), (4, 0), (2, 4)])
        assert g.in_degrees.sum() == g.arc_count == g.out_degrees.sum()

    def test_adjacency_transpose_consistency(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 1), (4, 0), (2, 4), (5, 2)])
        assert g.in_degrees.tolist() == [1, 2, 2, 0, 1, 0]
        rebuilt_out = {(int(v), int(u))
                       for v in range(g.n) for u in g.out_neighbors(v)}
        assert rebuilt_out == arc_set(g)

    def test_neighbor_queries_reject_bad_node(self):
        g = directed_cycle(4)
        with pytest.raises(ValueError, match="out of range"):
            g.out_neighbors(4)
        with pytest.raises(ValueError, match="out of range"):
            g.out_neighbors(-1)

    def test_neighbors_sorted_ascending(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        assert g.out_neighbors(2).tolist() == [0, 1, 3, 4]

    def test_fingerprint_stable_and_discriminating(self):
        a = directed_cycle(5)
        b = directed_cycle(5)
        c = directed_cycle(6)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a == b and a != c

    def test_compares_only_with_graphs_and_names_its_size(self):
        g = directed_cycle(3)
        assert g.__eq__(3) is NotImplemented
        assert g != 3 and g != "Graph(n=3, arcs=3)"
        assert repr(g) == "Graph(n=3, arcs=3)"


class TestWattsStrogatz:
    def test_lattice_no_rewiring(self):
        g = watts_strogatz(20, 4, 0.0, rng_for(1))
        assert g.arc_count == 80
        assert np.all(g.in_degrees == 4)
        assert np.all(g.out_degrees == 4)
        expected = set()
        for i in range(20):
            for j in (1, 2):
                expected.add((i, (i + j) % 20))
                expected.add(((i + j) % 20, i))
        assert arc_set(g) == expected

    def test_lattice_clustering_coefficient(self):
        # analytic lattice value 3(k-2)/(4(k-1)) = 0.5 for k=4, checked
        # against a direct triangle count
        g = watts_strogatz(20, 4, 0.0, rng_for(2))
        for u in range(20):
            assert local_clustering(g, u) == pytest.approx(0.5)

    def test_arc_count_invariant_for_all_beta(self):
        for beta in (0.0, 0.1, 0.5, 1.0):
            g = watts_strogatz(30, 6, beta, rng_for(3))
            assert g.arc_count == 180
            # opposed arc pairs: the arc set equals its own transpose
            arcs = arc_set(g)
            assert {(u, v) for v, u in arcs} == arcs

    def test_determinism_at_scale(self):
        seq = np.random.SeedSequence(4242)
        a = watts_strogatz(1000, 10, 0.05, np.random.default_rng(seq))
        b = watts_strogatz(1000, 10, 0.05, np.random.default_rng(np.random.SeedSequence(4242)))
        assert a.arc_count == 10000
        assert arc_set(a) == arc_set(b)

    def test_build_holds_under_48_bytes_per_lattice_edge(self):
        # rewiring keeps its raw words as uint64 and Graph keeps one int64 per
        # arc: 38 bytes an edge here, where Python-int words and a per-arc
        # source array took 86
        watts_strogatz(200, 10, 0.1, rng_for(7))  # warm up
        tracemalloc.start()
        try:
            g = watts_strogatz(20_000, 10, 0.1, rng_for(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * g.arc_count // 2

    def test_rewiring_changes_lattice(self):
        g = watts_strogatz(40, 4, 1.0, rng_for(4))
        lattice = watts_strogatz(40, 4, 0.0, rng_for(5))
        assert arc_set(g) != arc_set(lattice)
        assert g.arc_count == lattice.arc_count == 160

    def test_parameter_validation(self):
        rng = rng_for(6)
        with pytest.raises(ValueError, match="even"):
            watts_strogatz(10, 3, 0.1, rng)
        with pytest.raises(ValueError, match="k"):
            watts_strogatz(10, 10, 0.1, rng)
        with pytest.raises(ValueError, match="beta"):
            watts_strogatz(10, 4, 1.5, rng)


class TestBarabasiAlbert:
    def test_edge_count_with_seed_clique(self):
        # 3-node seed clique contributes 3 edges; 7 growth nodes add 1 each
        g = barabasi_albert(10, 1, rng_for(7), m0=3)
        assert g.arc_count == 2 * (3 + 7 * 1)

    def test_forced_attachment_to_full_seed(self):
        g = barabasi_albert(3, 2, rng_for(8), m0=2)
        assert (0, 2) in arc_set(g) and (1, 2) in arc_set(g)
        assert g.arc_count == 2 * (1 + 2)

    def test_determinism(self):
        a = barabasi_albert(200, 2, np.random.default_rng(11))
        b = barabasi_albert(200, 2, np.random.default_rng(11))
        assert arc_set(a) == arc_set(b)
        assert a.arc_count == 2 * (1 + 198 * 2)  # m0=2 clique has 1 edge

    def test_attachment_is_degree_biased(self):
        # with m_attach=1 the highest-degree node should collect far more
        # than a uniform share; crude but seed-stable
        g = barabasi_albert(400, 1, np.random.default_rng(13))
        assert int(g.in_degrees.max()) >= 5 * int(np.median(g.in_degrees))

    @pytest.mark.parametrize("n,m_attach,m0", [
        (2, 1, 1), (50, 1, 1),  # the first pick falls back on an empty pool
        (30, 2, None), (60, 3, None), (80, 3, 6), (25, 4, 4), (200, 2, 7),
        (12, 5, 11)])
    def test_matches_list_based_reference(self, n, m_attach, m0):
        for seed in range(8):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            if seed % 2:  # enter with the cached 32-bit half set
                assert fast.integers(7) == slow.integers(7)
            assert barabasi_albert(n, m_attach, fast, m0) == \
                graph_reference.barabasi_albert(n, m_attach, slow, m0)
            assert fast.bit_generator.state == slow.bit_generator.state
            assert fast.integers(2 ** 32) == slow.integers(2 ** 32)

    def test_parameter_validation(self):
        rng = rng_for(9)
        with pytest.raises(ValueError):
            barabasi_albert(10, 0, rng)
        with pytest.raises(ValueError, match="m0"):
            barabasi_albert(10, 3, rng, m0=2)
        with pytest.raises(ValueError, match="n"):
            barabasi_albert(3, 1, rng, m0=3)


class TestSmallGenerators:
    def test_complete_counts(self):
        assert complete_graph(3).arc_count == 6
        assert arc_set(complete_graph(2)) == {(0, 1), (1, 0)}
        assert np.all(complete_graph(13).in_degrees == 12)

    def test_cycle_shape(self):
        assert arc_set(directed_cycle(3)) == {(0, 1), (1, 2), (2, 0)}
        g = directed_cycle(5)
        assert g.arc_count == 5 and np.all(g.in_degrees == 1)
        assert arc_set(directed_cycle(2)) == {(0, 1), (1, 0)}

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            complete_graph(1)
        with pytest.raises(ValueError):
            directed_cycle(1)

    def test_in_neighbor_examples(self):
        assert [v for v, u in arc_set(directed_cycle(3)) if u == 1] == [0]
        assert {v for v, u in arc_set(complete_graph(3)) if u == 0} == {1, 2}

    def test_focal_fixture_has_five_in_neighbors(self, focal_fixture):
        g, _ = focal_fixture
        assert {v for v, u in arc_set(g) if u == 0} == {1, 2, 3, 4, 5}


class TestGeneratedGraphsSkipValidation:
    """Generators hand their arc codes to Graph without its checks; each graph
    must be the one validation builds from the same arcs."""

    @staticmethod
    def assert_as_validated(g: Graph) -> None:
        again = Graph(g.n, g.arcs)
        assert g == again and g.arc_count == again.arc_count
        for name in ("_arc_dst", "_out_indptr", "_in_degrees"):  # all Graph keeps
            ours, theirs = getattr(g, name), getattr(again, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert not ours.flags.writeable
        assert g.arcs.dtype == again.arcs.dtype and np.array_equal(g.arcs, again.arcs)

    @pytest.mark.parametrize("n,k,beta", [
        (40, 4, 0.0), (40, 4, 0.02), (300, 10, 0.02), (40, 6, 1.0),
        (5, 4, 1.0), (9, 8, 1.0)])  # the last two: every attempt collides
    def test_watts_strogatz(self, n, k, beta):
        for seed in range(6):
            g = watts_strogatz(n, k, beta, rng_for(seed))
            self.assert_as_validated(g)
            if k == n - 1:  # the lattice is complete, so nothing can move
                assert g == complete_graph(n)

    @pytest.mark.parametrize("n,m_attach,m0", [
        (2, 1, 1), (60, 1, 1), (300, 3, None), (40, 2, 6)])
    def test_barabasi_albert(self, n, m_attach, m0):
        for seed in range(6):
            self.assert_as_validated(barabasi_albert(n, m_attach, rng_for(seed), m0))

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_complete_graph_and_directed_cycle(self, n):
        self.assert_as_validated(complete_graph(n))
        self.assert_as_validated(directed_cycle(n))

    def test_sources_derived_from_the_csr_match_an_explicit_arc_list(self):
        # Graph keeps no per-arc source: arcs, fingerprint(), == and the saved
        # text derive it from the out-CSR, and must be what a sorted list of
        # (v, u) pairs gives, taken through Graph's sort and checks
        graphs = [watts_strogatz(60, 6, 0.3, rng_for(15)), barabasi_albert(50, 2, rng_for(16)),
                  complete_graph(5), directed_cycle(7), Graph(6, [(4, 1), (0, 5), (4, 0)]),
                  Graph(3, [])]
        for g in graphs:
            pairs = [(v, int(u)) for v in range(g.n) for u in g.out_neighbors(v)]
            shuffled = [pairs[i] for i in rng_for(17).permutation(len(pairs))]
            again = Graph(g.n, shuffled)
            expected = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            digest = hashlib.sha256(f"{g.n}\n".encode() + expected[:, 0].tobytes()
                                    + expected[:, 1].tobytes()).hexdigest()[:16]
            text = "".join([f"{g.n}\n"] + [f"{v} {u}\n" for v, u in pairs])
            for h in (g, again):
                assert h.arcs.dtype == np.int64 and np.array_equal(h.arcs, expected)
                assert h.fingerprint() == digest
                buf = io.StringIO()
                save_edge_list(h, buf)
                assert buf.getvalue() == text
            assert g == again and again == g


class TestEdgeList:
    def test_cycle_text_form(self):
        buf = io.StringIO()
        save_edge_list(directed_cycle(3), buf)
        assert buf.getvalue() == "3\n0 1\n1 2\n2 0\n"

    def test_round_trip_file(self, tmp_path):
        g = watts_strogatz(25, 4, 0.3, rng_for(10))
        path = tmp_path / "g.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(g, handle)
        h = load_edge_list(path)
        assert h.n == g.n and arc_set(h) == arc_set(g)

    def test_round_trip_stream(self):
        g = barabasi_albert(12, 2, rng_for(11))
        buf = io.StringIO()
        save_edge_list(g, buf)
        h = load_edge_list(io.StringIO(buf.getvalue()))
        assert h == g

    def test_header_only_is_arcless(self):
        g = load_edge_list(io.StringIO("4\n"))
        assert g.n == 4 and g.arc_count == 0

    def test_malformed_line_names_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            load_edge_list(io.StringIO("3\n0 x\n"))

    def test_wrong_column_count(self):
        with pytest.raises(EdgeListError, match="line 3"):
            load_edge_list(io.StringIO("3\n0 1\n0 1 2\n"))

    def test_endpoint_inconsistent_with_header(self):
        with pytest.raises(EdgeListError, match="header"):
            load_edge_list(io.StringIO("3\n0 3\n"))

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            load_edge_list(io.StringIO("3\n1 1\n"))
        with pytest.raises(EdgeListError, match="duplicate"):
            load_edge_list(io.StringIO("3\n0 1\n0 1\n"))

    def test_arc_errors_name_file_lines_after_syntax_errors(self):
        cases = [("\n3\n\n0 1\n\n1 1\n", "line 6: arc \\(1, 1\\): self-loop"),
                 ("3\n0 1\n\n0 1\n", "line 4: arc \\(0, 1\\): duplicate"),
                 ("3\n0 1\n0 1\n2 2\n0 5\n", "line 5: .* header n=3"),
                 ("3\n0 99999999999999999999\n", "line 2: .* header n=3"),
                 ("3\n1 1\n0 x\n", "line 3: non-integer")]
        for text, message in cases:
            with pytest.raises(EdgeListError, match=message):
                load_edge_list(io.StringIO(text))

    def test_empty_input(self):
        with pytest.raises(EdgeListError, match="empty"):
            load_edge_list(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(EdgeListError, match="header"):
            load_edge_list(io.StringIO("zero\n"))
        with pytest.raises(EdgeListError, match="header"):
            load_edge_list(io.StringIO("0\n"))

    def test_blank_lines_ignored(self):
        g = load_edge_list(io.StringIO("\n3\n\n0 1\n\n1 2\n"))
        assert arc_set(g) == {(0, 1), (1, 2)}


def _no_line_parser(text):
    raise AssertionError("reached the line parser")


def _outcome(source):
    """The arc set ``load_edge_list`` reads from ``source``, or its EdgeListError's message."""
    try:
        return arc_set(load_edge_list(source))
    except EdgeListError as exc:
        return str(exc)


# Texts the block reader takes whole, without the line parser
PLAIN_TEXTS = [
    "3\n0\t1\n1 2\n", "3\n0  1 \t\n\t1\t 2  \n", "3\n0 1\n \t\n\n1 2\n",
    "3\n0 1\n1 2", "4\n", "4", "4\n\n\n", "4\n \t\n", "8\n007 0003\n0 4\n",
    "0003\n2 0\n0 1\n",
]
# n = 10 with each arc but the loops once, ascending, on lines 2 to 91
DENSE = "10\n" + "".join(f"{v} {u}\n" for v in range(10) for u in range(10) if v != u)
LONG_PLAIN_TEXTS = {
    "dense": DENSE,
    "no final LF": DENSE[:-1],
    "unsorted": "10\n" + "".join(reversed(DENSE.splitlines(keepends=True)[1:])),
    "blank lines": DENSE.replace("\n", "\n\n\n \t\n", 3) + "\n" * 100 + "\t \n" * 30,
}
# Texts the line parser takes, and what it gives: their arcs or their message
DECLINED_TEXTS = [
    ("3\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),
    ("3\r0 1\n", "line 1: header is not an integer: '3\\r0 1'"),
    ("3\n0 1\r1 2\n", "line 2: expected 'v u', got '0 1\\r1 2'"),
    ("3\n+1 2\n", [(1, 2)]),
    ("+3\n0 1\n", [(0, 1)]),
    ("3\n-1 2\n", "line 2: arc (-1, 2): out of range for header n=3"),
    ("-3\n", "line 1: header node count must be >= 1"),
    ("20\n1_0 2\n", "line 2: non-integer endpoint in '1_0 2'"),
    ("1_0\n0 9\n", "line 1: header is not an integer: '1_0'"),
    ("1_1\n0 1\n", "line 1: header is not an integer: '1_1'"),
    ("11\n0 1_0\n", "line 2: non-integer endpoint in '0 1_0'"),
    ("3\n+-1 2\n", "line 2: non-integer endpoint in '+-1 2'"),
    ("\u0663\n0 1\n", "line 1: header is not an integer: '\u0663'"),
    ("\u00b3\n0 1\n", "line 1: header is not an integer: '\u00b3'"),
    ("3\n\u0662 1\n", "line 2: non-integer endpoint in '\u0662 1'"),
    ("3\n0 \uff11\n", "line 2: non-integer endpoint in '0 \uff11'"),
    ("3\n\u00b2 1\n", "line 2: non-integer endpoint in '\u00b2 1'"),
    ("3\n0 9223372036854775808\n",
     "line 2: arc (0, 9223372036854775808): out of range for header n=3"),
    ("3\n0 1\n1 18446744073709551616\n",
     "line 3: arc (1, 18446744073709551616): out of range for header n=3"),
    ("3\n0\n", "line 2: expected 'v u', got '0'"),
    ("3\n0 1\n1\n", "line 3: expected 'v u', got '1'"),
    ("3\n0 1 2\n", "line 2: expected 'v u', got '0 1 2'"),
    ("3\n0 1\n1 2 0\n", "line 3: expected 'v u', got '1 2 0'"),
    ("3\n0 1 2\n1 2 0\n", "line 2: expected 'v u', got '0 1 2'"),
    ("\n3\n0 1\n", [(0, 1)]),
    (" 3\n0 1\n", [(0, 1)]),
    ("00000000003\n0 1\n", [(0, 1)]),
    ("3\n0 1\x0b\n", [(0, 1)]),
    ("3\n1 1\n", "line 2: arc (1, 1): self-loop"),
    ("3\n0 1\n\n0 1\n", "line 4: arc (0, 1): duplicate"),
    ("3\n0 1\n0 1\n2 2\n0 5\n", "line 5: arc (0, 5): out of range for header n=3"),
    ("3\n1 1\n0 x\n", "line 3: non-integer endpoint in '0 x'"),
    ("3037000500\n", "line 1: header node count must be <= 3037000499"),
    ("1000000000000\n0 1\n", "line 1: header node count must be <= 3037000499"),
    ("9" * 5000 + "\n", "line 1: header is not an integer: '" + "9" * 5000 + "'"),
]
LONG_DECLINED_TEXTS = {
    "duplicate": (DENSE + "3 4\n", "line 92: arc (3, 4): duplicate"),
    "out of range": (DENSE + "0 10\n", "line 92: arc (0, 10): out of range for header n=10"),
    "three columns": (DENSE + "1 2 3\n", "line 92: expected 'v u', got '1 2 3'"),
    "unsorted duplicate": (DENSE[:-4] + "5 0\n2 9\n",
                           "line 91: arc (5, 0): duplicate"),
}


@pytest.fixture(params=[1, 7, 64, None])
def load_block(request, monkeypatch):
    """Characters per block of the edge-list reader: a few, or the default."""
    if request.param:
        monkeypatch.setattr(graph, "_LOAD_BLOCK", request.param)
    return graph._LOAD_BLOCK


class TestEdgeListReaders:
    """numpy reads plain edge lists, in blocks of whole lines; the line parser
    takes every other text, so what is accepted, each message and each line
    number stay the same."""

    @pytest.mark.parametrize("text", PLAIN_TEXTS + [
        pytest.param(text, id=name) for name, text in LONG_PLAIN_TEXTS.items()])
    def test_plain_texts_read_as_the_line_parser_reads_them(self, monkeypatch, text):
        expected = graph._load_lines(text)
        monkeypatch.setattr(graph, "_load_lines", _no_line_parser)
        assert load_edge_list(io.StringIO(text)) == expected

    @pytest.mark.parametrize("text, outcome", DECLINED_TEXTS + [
        pytest.param(*case, id=name) for name, case in LONG_DECLINED_TEXTS.items()])
    def test_declined_texts_behave_as_the_line_parser_says(self, text, outcome):
        assert _outcome(io.StringIO(text)) == (outcome if isinstance(outcome, str)
                                               else set(outcome))

    def test_every_case_reads_alike_in_small_blocks(self, load_block, monkeypatch):
        for text, outcome in DECLINED_TEXTS + list(LONG_DECLINED_TEXTS.values()):
            self.test_declined_texts_behave_as_the_line_parser_says(text, outcome)
        plain = PLAIN_TEXTS + list(LONG_PLAIN_TEXTS.values())
        expected = [graph._load_lines(text) for text in plain]
        monkeypatch.setattr(graph, "_load_lines", _no_line_parser)
        for text, g in zip(plain, expected):
            assert load_edge_list(io.StringIO(text)) == g, (load_block, text)

    def test_a_path_reads_cr_and_crlf_as_lf(self, load_block, tmp_path, monkeypatch):
        path = tmp_path / "g.edges"
        expected = graph._load_lines(LONG_PLAIN_TEXTS["blank lines"])
        monkeypatch.setattr(graph, "_load_lines", _no_line_parser)
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes(LONG_PLAIN_TEXTS["blank lines"].replace("\n", end).encode())
            assert load_edge_list(path) == expected, (load_block, end)

    def test_a_byte_that_is_not_utf8_is_named_as_read_text_names_it(self, load_block,
                                                                      tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(DENSE.encode() + b"\xff1 2\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as info:
            load_edge_list(path)
        assert str(info.value) == str(whole.value)
        assert f"byte 0xff in position {len(DENSE)}:" in str(info.value)

    def test_crlf_through_a_path_and_a_stream(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"3\r\n0 1\r\n1 2\r\n")
        for source in (path, io.StringIO("3\r\n0 1\r\n1 2\r\n")):
            assert load_edge_list(source) == Graph(3, [(0, 1), (1, 2)])

    def test_saved_files_never_reach_the_line_parser(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "_load_lines", _no_line_parser)
        for g in (watts_strogatz(300, 6, 0.2, rng_for(13)), directed_cycle(2), Graph(4, [])):
            path = tmp_path / "g.edges"
            with path.open("w", encoding="utf-8") as handle:
                save_edge_list(g, handle)
            assert load_edge_list(path) == g

    def test_loading_a_saved_file_holds_its_codes_and_one_block(self, tmp_path):
        g = watts_strogatz(8_000, 6, 0.1, rng_for(14))
        path = tmp_path / "g.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(g, handle)
        tracemalloc.start()
        try:
            h = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == g and h.arc_count == 48_000
        # the arc codes, which become the destinations, the graph's two arrays
        # of about n integers, and one block of text with its parsed lines
        assert peak <= 8 * h.arc_count + 16 * h.n + 16 * graph._LOAD_BLOCK

    def test_saving_in_blocks_writes_the_same_bytes(self, tmp_path, monkeypatch):
        g = watts_strogatz(25, 4, 0.3, rng_for(10))
        lines = [str(g.n)] + [f"{v} {u}" for v, u in g.arcs.tolist()]
        expected = "\n".join(lines) + "\n"
        for block in (1, 7, 50, 100, 101):
            monkeypatch.setattr(graph, "_SAVE_BLOCK", block)
            buf = io.StringIO()
            save_edge_list(g, buf)
            assert buf.getvalue() == expected
            with (tmp_path / "g.edges").open("w", encoding="utf-8") as handle:
                save_edge_list(g, handle)
            assert (tmp_path / "g.edges").read_bytes() == expected.encode()


class TestGraphSpec:
    def test_build_each_generator(self):
        rng = rng_for(12)
        assert build_graph(GraphSpec("complete", n=4)).arc_count == 12
        assert build_graph(GraphSpec("directed_cycle", n=4)).arc_count == 4
        ws = build_graph(GraphSpec("watts_strogatz", n=12, k=4, beta=0.2), rng)
        assert ws.arc_count == 48
        ba = build_graph(GraphSpec("barabasi_albert", n=12, m_attach=2), rng)
        assert ba.n == 12

    def test_build_from_file(self, tmp_path):
        path = tmp_path / "g.edges"
        with path.open("w", encoding="utf-8") as handle:
            save_edge_list(directed_cycle(7), handle)
        g = build_graph(GraphSpec("file", path=str(path)))
        assert g == directed_cycle(7)

    def test_file_builder_looks_up_the_loader_on_each_call(self, tmp_path,
                                                           monkeypatch):
        """A wrapper set on ``graph.load_edge_list`` after import, as the
        bench tracer sets one, sees the load."""
        path = tmp_path / "g.edges"
        path.write_text("3\n0 1\n", encoding="utf-8")
        calls = []
        load = graph.load_edge_list

        def counting_load(source):
            calls.append(source)
            return load(source)

        monkeypatch.setattr(graph, "load_edge_list", counting_load)
        assert build_graph(GraphSpec("file", path=str(path))) == Graph(3, [(0, 1)])
        assert calls == [str(path)]

    def test_random_generator_needs_stream(self):
        with pytest.raises(ValueError, match="random stream"):
            build_graph(GraphSpec("watts_strogatz", n=12, k=4, beta=0.2))

    def test_spec_field_applicability(self):
        with pytest.raises(ValueError, match="beta"):
            GraphSpec("complete", n=4, beta=0.1)
        with pytest.raises(ValueError, match="k"):
            GraphSpec("watts_strogatz", n=4, beta=0.1)
        with pytest.raises(ValueError, match="path"):
            GraphSpec("file")

    def test_spec_constraints(self):
        with pytest.raises(ValueError, match="k"):
            GraphSpec("watts_strogatz", n=10, k=3, beta=0.1)
        with pytest.raises(ValueError, match="n"):
            GraphSpec("barabasi_albert", n=2, m_attach=2)
        with pytest.raises(ValueError, match="generator"):
            GraphSpec("mystery", n=5)
        for gen, args in [("directed_cycle", {}), ("complete", {}),
                          ("watts_strogatz", {"k": 4, "beta": 0.1}),
                          ("barabasi_albert", {"m_attach": 2})]:
            with pytest.raises(ValueError, match="^n: must be <= 3037000499$"):
                GraphSpec(gen, n=graph.MAX_NODES + 1, **args)
