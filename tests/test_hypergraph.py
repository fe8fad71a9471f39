import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbethe import (
    Hypergraph,
    HypergraphError,
    Partition,
    load_hyperedge_list,
    load_partition,
    save_hyperedge_list,
    save_partition,
)

from conftest import edge_tuples, random_hypergraph


def reference_edges(n, hyperedges):
    """Per-edge canonical form: sorted distinct node tuples, with the constructor's errors."""
    edges = []
    for e in hyperedges:
        canon = tuple(sorted(set(int(v) for v in e)))
        if len(canon) < 2:
            raise HypergraphError(f"hyperedge {tuple(e)} has fewer than 2 distinct nodes")
        if canon[0] < 0 or canon[-1] >= n:
            raise HypergraphError(f"hyperedge {canon} has node index outside [0, {n})")
        edges.append(canon)
    return edges


def reference_load(path):
    """Per-line hyperedge-list reader: (edges, names, dropped line count)."""
    index, names, edges, dropped = {}, [], [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            distinct = list(dict.fromkeys(tokens))
            if len(distinct) < 2:
                dropped += 1
                continue
            edge = []
            for tok in distinct:
                if tok not in index:
                    index[tok] = len(names)
                    names.append(tok)
                edge.append(index[tok])
            edges.append(tuple(sorted(edge)))
    return edges, names, dropped


def reference_save(edges, path, names):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in edges:
            fh.write(" ".join(names[i] for i in e) + "\n")


def check_against_reference_load(path):
    """The loader gives the per-line reader's hyperedges, names and warning, or both find none."""
    edges, names, dropped = reference_load(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if not edges:
            with pytest.raises(HypergraphError, match="no hyperedges"):
                load_hyperedge_list(path)
        else:
            h, got_names = load_hyperedge_list(path)
            assert got_names == names
            assert h.n == len(names)
            assert edge_tuples(h) == tuple(edges)
    expected = [f"dropped {dropped} line(s) with fewer than 2 distinct nodes"] if dropped else []
    assert [str(w.message) for w in caught] == expected


class TestConstruction:
    def test_canonical_form(self):
        h = Hypergraph(4, [(2, 0, 1), (3, 1)])
        assert edge_tuples(h) == ((0, 1, 2), (1, 3))
        assert h.orders == (2, 3)

    def test_rejects_singletons(self):
        with pytest.raises(HypergraphError):
            Hypergraph(3, [(1,)])
        with pytest.raises(HypergraphError):
            Hypergraph(3, [(1, 1)])  # dedups to a single node

    def test_rejects_out_of_range(self):
        with pytest.raises(HypergraphError):
            Hypergraph(3, [(0, 3)])

    def test_multiplicity_kept(self):
        h = Hypergraph(3, [(0, 1, 2), (0, 1, 2)])
        assert h.m == 2
        assert h.projection(3)[0, 1] == 2
        assert list(h.degrees_by_order(3)) == [2, 2, 2]

    def test_duplicate_hyperedges_are_multiplicity(self):
        h = Hypergraph(4, [(2, 1, 0), (0, 1), (0, 1, 2), (1, 0)])
        assert h.m == 4
        assert h.edge_array(3).tolist() == [[0, 1, 2], [0, 1, 2]]
        assert h.edge_array(2).tolist() == [[0, 1], [0, 1]]
        edge_ids, nodes = h.incidence_pairs()
        assert edge_ids.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]
        assert nodes.tolist() == [0, 1, 2, 0, 1, 0, 1, 2, 0, 1]
        assert h.node_degrees().tolist() == [4, 4, 2, 0]

    def test_repeated_node_lowers_the_order(self):
        h = Hypergraph(3, [(1, 1, 2)])
        assert h.orders == (2,)
        assert h.edge_array(2).tolist() == [[1, 2]]
        assert edge_tuples(h) == ((1, 2),)

    def test_error_messages(self):
        with pytest.raises(HypergraphError, match=r"^node count must be nonnegative$"):
            Hypergraph(-1, [])
        with pytest.raises(HypergraphError, match=r"^hyperedge \(1, 1\) has fewer than 2 distinct nodes$"):
            Hypergraph(3, [(0, 1), (1, 1)])
        with pytest.raises(HypergraphError, match=r"^hyperedge \(1,\) has fewer than 2 distinct nodes$"):
            Hypergraph(3, [(1,)])
        with pytest.raises(HypergraphError, match=r"^hyperedge \(0, 3\) has node index outside \[0, 3\)$"):
            Hypergraph(3, [(0, 1), (3, 0, 3)])
        with pytest.raises(HypergraphError, match=r"^hyperedge \(-1, 2\) has node index outside"):
            Hypergraph(3, [(2, -1)])
        # the first bad hyperedge in input order is reported
        with pytest.raises(HypergraphError, match="outside"):
            Hypergraph(3, [(0, 5), (1,)])
        with pytest.raises(HypergraphError, match="fewer than 2"):
            Hypergraph(3, [(), (0, 5)])

    def test_interleaved_orders_keep_input_order(self):
        edges = [(2, 1, 0), (4, 3), (1, 2, 3, 4), (0, 4), (2, 3, 4), (1, 0)]
        h = Hypergraph(5, edges)
        assert h.orders == (2, 3, 4)
        assert {k: v.tolist() for k, v in h.edges_by_order.items()} == {3: [0, 4], 2: [1, 3, 5], 4: [2]}
        edge_ids, nodes = h.incidence_pairs()
        assert edge_ids.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5]
        assert nodes.tolist() == list(itertools.chain.from_iterable(sorted(e) for e in edges))
        assert edge_tuples(h) == tuple(tuple(sorted(e)) for e in edges)

    def test_edge_array_is_stored_read_only(self):
        h = Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)])
        arr = h.edge_array(2)
        assert arr is h.edge_array(2)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 3
        with pytest.raises(HypergraphError):
            h.edge_array(4)

    def test_concatenated_input(self):
        edges = [(2, 1, 0), (4, 3), (3, 3, 1)]
        h = Hypergraph(5, [2, 1, 0, 4, 3, 3, 3, 1], lengths=[3, 2, 3])
        assert edge_tuples(h) == edge_tuples(Hypergraph(5, edges))
        with pytest.raises(HypergraphError, match="lengths"):
            Hypergraph(5, [0, 1, 2], lengths=[2, 2])

    def test_empty(self):
        h = Hypergraph(3, [])
        assert (h.m, h.orders, edge_tuples(h)) == (0, (), ())
        assert [a.size for a in h.incidence_pairs()] == [0, 0]
        assert h.node_degrees().tolist() == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 8),
        st.lists(st.lists(st.integers(-1, 8), max_size=6), max_size=12),
    )
    def test_matches_per_edge_reference(self, n, hyperedges):
        try:
            edges = reference_edges(n, hyperedges)
        except HypergraphError as exc:
            with pytest.raises(HypergraphError) as got:
                Hypergraph(n, hyperedges)
            assert str(got.value) == str(exc)
            return
        h = Hypergraph(n, hyperedges)
        assert h.m == len(edges)
        assert edge_tuples(h) == tuple(edges)
        assert h.orders == tuple(sorted({len(e) for e in edges}))
        for k in h.orders:
            ids = [i for i, e in enumerate(edges) if len(e) == k]
            assert h.edges_by_order[k].tolist() == ids
            assert h.edge_array(k).tolist() == [list(edges[i]) for i in ids]
            dense = np.zeros((n, n), dtype=np.int64)
            for i in ids:
                for a, b in itertools.permutations(edges[i], 2):
                    dense[a, b] += 1
            proj = h.projection(k)
            assert proj.dtype == np.float64 and np.array_equal(proj.toarray(), dense)
        edge_ids, nodes = h.incidence_pairs()
        assert edge_ids.tolist() == [i for i, e in enumerate(edges) for _ in e]
        assert nodes.tolist() == list(itertools.chain.from_iterable(edges))
        assert h.node_degrees().tolist() == np.bincount(nodes, minlength=n).tolist()


class TestDegrees:
    def test_single_3_edge(self):
        stats = Hypergraph(3, [(0, 1, 2)]).degree_stats()
        assert list(stats.node_degrees) == [1, 1, 1]
        assert stats.per_order == {3: 1.0}
        assert stats.mean == 1.0
        assert stats.mean_order == 3.0

    def test_two_2_edges(self):
        stats = Hypergraph(3, [(0, 1), (1, 2)]).degree_stats()
        assert stats.mean == pytest.approx(4.0 / 3.0)
        assert stats.mean_order == 2.0

    def test_mixed_orders_mean_order(self):
        # one 2-edge and one 3-edge: mean order = (2 + 3) / 2
        stats = Hypergraph(3, [(0, 1), (0, 1, 2)]).degree_stats()
        assert stats.mean_order == pytest.approx(2.5)

    def test_degree_sum_identity(self, rng):
        # sum_i d_i = sum_e |e| = sum_k k * m^(k)
        h = random_hypergraph(rng, 20, orders=(2, 3, 4))
        total = int(h.node_degrees().sum())
        assert total == sum(len(e) for e in edge_tuples(h))
        assert total == sum(k * m for k, m in h.order_counts().items())


class TestProjections:
    def test_single_2_edge(self):
        h = Hypergraph(2, [(0, 1)])
        assert h.projection(2).toarray().tolist() == [[0, 1], [1, 0]]
        assert list(h.degrees_by_order(2)) == [1, 1]

    def test_single_3_edge(self):
        proj = Hypergraph(3, [(0, 1, 2)]).projection(3)
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(proj.toarray(), expected)

    def test_missing_order_errors(self):
        with pytest.raises(HypergraphError):
            Hypergraph(2, [(0, 1)]).projection(3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_row_sum_law(self, seed):
        # row sums of the order-k projection equal (k-1) * per-order degree
        rng = np.random.default_rng(seed)
        h = random_hypergraph(rng, 12, orders=(2, 3, 4))
        for k in h.orders:
            rows = np.asarray(h.projection(k).sum(axis=1)).ravel()
            assert np.array_equal(rows, (k - 1) * h.degrees_by_order(k))


class TestFileIO:
    def test_parse_basic(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\na b c\n")
        h, names = load_hyperedge_list(path)
        assert (h.n, h.m) == (3, 2)
        assert h.orders == (2, 3)
        assert names == ["a", "b", "c"]

    def test_dedup_within_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a a b\n")
        h, names = load_hyperedge_list(path)
        assert edge_tuples(h) == ((0, 1),)

    def test_short_lines_dropped_with_warning(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a\na b\nc c\n")
        with pytest.warns(UserWarning, match="2"):
            h, _ = load_hyperedge_list(path)
        assert h.m == 1

    def test_comments_and_crlf(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_bytes(b"# header\r\na b # trailing\r\nb c\r\n")
        h, names = load_hyperedge_list(path)
        assert h.m == 2 and names == ["a", "b", "c"]

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing\n")
        with pytest.raises(HypergraphError):
            load_hyperedge_list(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(OSError):
            load_hyperedge_list(tmp_path / "nope.txt")

    @pytest.mark.parametrize(
        "content",
        [
            b"a b\r\nb c d\r\n",
            b"a b\rb c\rc d\r",
            b"# only a comment\n   # indented comment\na b # trailing\nc d#\n#\nd e#f\n",
            b"a\tb\t\tc\n\td\te \n",
            "\u03b1 \u03b2\n\u03b2 \u03b3 \u03b4\n\u65e5\u672c \u8a9e\n".encode(),
            "a\u00a0b\nb\u2028c d\nc\x85e\x0cf\x1cg\n".encode(),
            b"x x\na b\nx y\n",  # x is first seen on a dropped line and takes no id there
            b"a b a c b\nc c a\n",
            b"a b\nb c",
            b"a\x00 b\nb a\x00 c\n",
            b"\n\n  \na b\n\n",
            b"c a b\na b\nb a c\nd a\na b\nb d\nd c b a\na d\nb c a d\n",  # mixed orders, repeats kept
        ],
    )
    def test_matches_per_line_reader(self, tmp_path, content):
        path = tmp_path / "edges.txt"
        path.write_bytes(content)
        check_against_reference_load(path)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "\u00e9", "x\x00", " ", "\t", "\n", "\r", "\r\n", "#", "\u00a0", "\u2028"]),
            max_size=40,
        ),
    )
    def test_random_text_matches_per_line_reader(self, tmp_path_factory, pieces):
        path = tmp_path_factory.mktemp("load") / "edges.txt"
        path.write_bytes("".join(pieces).encode("utf-8"))
        check_against_reference_load(path)

    def test_save_matches_per_edge_writer(self, tmp_path, rng):
        h = random_hypergraph(rng, 15, orders=(3, 2, 4))
        names = [f"n{i}\u00e9" for i in range(h.n)]
        for args in ((), (names,)):
            save_hyperedge_list(h, tmp_path / "got.txt", *args)
            reference_save(edge_tuples(h), tmp_path / "ref.txt", *args or ([str(i) for i in range(h.n)],))
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        save_hyperedge_list(Hypergraph(2, []), tmp_path / "empty.txt")
        assert (tmp_path / "empty.txt").read_bytes() == b""

    def test_non_ascii_names_match_per_edge_writer(self, tmp_path):
        h = Hypergraph(5, [(0, 1, 2), (3, 4), (1, 4)])
        names = ["\u00e9t\u00e9", "\u8282\u70b9", "x\x00y", "\U0001f642", "\u03a9"]
        save_hyperedge_list(h, tmp_path / "got.txt", names)
        reference_save(edge_tuples(h), tmp_path / "ref.txt", names)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
        back, got_names = load_hyperedge_list(tmp_path / "got.txt")
        assert got_names == names and edge_tuples(back) == edge_tuples(h)
        labels = [0, 1, 0, 1, 2]
        save_partition(Partition(labels, 3), tmp_path / "part.txt", names)
        expected = "".join(f"{name} {lab}\n" for name, lab in zip(names, labels))
        assert (tmp_path / "part.txt").read_bytes() == expected.encode("utf-8")
        assert load_partition(tmp_path / "part.txt", names).labels.tolist() == labels

    @pytest.mark.parametrize(
        "names, match",
        [
            (["a", "b"], "2 names for 3 nodes"),
            (["a", "b", "c", "d"], "4 names for 3 nodes"),
            (["a", "", "c"], re.escape(repr(""))),
            (["a b", "c", "d"], re.escape(repr("a b"))),
            (["a", " b", "c"], re.escape(repr(" b"))),
            (["a", "b\n", "c"], re.escape(repr("b\n"))),
            (["a", "b\u00a0c", "d"], re.escape(repr("b\u00a0c"))),
            (["a", "c#", "d"], re.escape(repr("c#"))),
            (["a", "b", "a"], "repeat"),
        ],
    )
    def test_names_that_do_not_round_trip_fail(self, tmp_path, names, match):
        h = Hypergraph(3, [(0, 1), (1, 2)])
        with pytest.raises(HypergraphError, match=match):
            save_hyperedge_list(h, tmp_path / "edges.txt", names)
        with pytest.raises(HypergraphError, match=match):
            save_partition(Partition([0, 1, 0], 2), tmp_path / "part.txt", names)
        assert not (tmp_path / "edges.txt").exists() and not (tmp_path / "part.txt").exists()

    def test_split_and_comment_names_fail(self, tmp_path):
        # written unchecked, these would load as one 3-node hyperedge over ['a', 'b', 'c']
        with pytest.raises(HypergraphError):
            save_hyperedge_list(Hypergraph(3, [(0, 1), (1, 2)]), tmp_path / "edges.txt", ["a b", "c#", "d"])

    def test_roundtrip_identity(self, tmp_path, rng):
        h = random_hypergraph(rng, 15, orders=(2, 3))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_hyperedge_list(h, p1)
        h2, names = load_hyperedge_list(p1)
        save_hyperedge_list(h2, p2, names)
        h3, _ = load_hyperedge_list(p2)
        assert sorted(edge_tuples(h2)) == sorted(edge_tuples(h3))
        assert h2.n == h3.n


class TestPartitionIO:
    def test_roundtrip(self, tmp_path):
        part = Partition([0, 1, 0], 2)
        names = ["x", "y", "z"]
        path = tmp_path / "part.txt"
        save_partition(part, path, names)
        back = load_partition(path, names)
        assert np.array_equal(back.labels, part.labels)
        assert back.q == part.q

    @pytest.mark.parametrize(
        "text, labels, q",
        [
            ("x 1\ny 2\nz 1\n", [0, 1, 0], 2),
            ("x 0\ny 0\nz 1000000\n", [0, 0, 1], 2),
            ("x 7\ny 3\nz 5\n", [2, 0, 1], 3),
        ],
    )
    def test_labels_renumbered_in_ascending_order(self, tmp_path, text, labels, q):
        path = tmp_path / "part.txt"
        path.write_text(text)
        part = load_partition(path, ["x", "y", "z"])
        assert part.labels.tolist() == labels and part.q == q

    def test_unknown_token_errors(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("x 0\nw 1\n")
        with pytest.raises(HypergraphError, match="unknown"):
            load_partition(path, ["x", "y"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a 0\nb 1\na 1\n", "'a' labeled again on line 3"),
            ("a 0\nb x1\n", "'x1' of node 'b' on line 2 is not an integer"),
            ("a 0\nb -1\n", "negative label '-1' of node 'b' on line 2"),
        ],
    )
    def test_each_node_labeled_once_with_a_nonnegative_integer(self, tmp_path, text, message):
        path = tmp_path / "part.txt"
        path.write_text(text)
        with pytest.raises(HypergraphError, match=re.escape(message)):
            load_partition(path, ["a", "b"])

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("")
        with pytest.raises(HypergraphError):
            load_partition(path, ["x"])

    def test_partition_validation(self):
        with pytest.raises(HypergraphError):
            Partition(np.array([0, 2]), 2)
        with pytest.raises(HypergraphError):
            Partition(np.array([0]), 0)
