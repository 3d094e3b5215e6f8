"""Property tests on arbitrary inputs: the block loaders of socrec.data
against the line-at-a-time loaders of oracles.py, and exact save/load
round trips of models."""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import socrec.data as data_module
from socrec import (
    DataFileError,
    FactorModel,
    IdMap,
    SparseRatings,
    TrustGraph,
    load_model,
    load_ratings,
    load_trust,
    save_model,
)

from oracles import (
    OracleDataError,
    line_load_ratings,
    line_load_trust,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


_IDS = st.sampled_from(["a", "b", "c", "1", "0", "é", "用户", "x#y"])
_GOOD_VALUES = st.sampled_from(["1", "4", "5", "2.5", "1e0", "0_1", "4.", "3.75", "1_0e-1"])
_VALUES = st.one_of(
    _GOOD_VALUES, _GOOD_VALUES,
    st.sampled_from(["nan", "inf", "6", "0", "-3", "four", "\u0663", "1__0", ""]),
)
# every str.isspace character separates fields: a sample of them, none of
# which ends a line of a text file read with universal newlines
_SEP = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x1c", "\x85", "\xa0", "\u2028",
                        "\u3000", "\t\u3000"])
_PAD = st.sampled_from(["", " ", "\t", "\xa0", "\u2028"])
_SKIPPED = st.sampled_from(["", "   ", "\t", "# x", "  # x", "#", "#a b c", "\t#1 2 3"])
_GARBAGE = st.one_of(
    st.lists(_IDS, max_size=5).map(" ".join),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


def _line(fields):
    return st.tuples(_PAD, st.tuples(*fields), _SEP, _PAD).map(
        lambda p: p[0] + p[2].join(p[1]) + p[3])


_NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
_BOM = st.sampled_from(["", "\ufeff"])


def _join(lines, newline, bom, last_newline):
    return bom + newline.join(lines) + (newline if last_newline else "")


def _file(good_line, any_line):
    """Files of data, comment and blank lines, with faults in about half of
    them, joined by LF, CRLF or CR, some with a leading byte-order mark."""
    good = st.lists(st.one_of(*[good_line] * 4, _SKIPPED), max_size=20)
    faulty = st.lists(st.one_of(*[any_line] * 6, _SKIPPED, _GARBAGE), max_size=20)
    return st.tuples(st.one_of(good, faulty), _NEWLINES, _BOM, st.booleans()).map(
        lambda p: _join(*p))


# code points the loaders read per block (before topping up to a line end)
_BLOCK_SIZES = [1, 2, 3, 7, data_module.TEXT_BLOCK]
_PER_BLOCK = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def _outcome(call):
    try:
        return call()
    except (DataFileError, OracleDataError) as exc:
        return ("error", str(exc))


class TestBlockLoadersMatchLineLoaders:
    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @_PER_BLOCK
    @given(text=_file(_line([_IDS, _IDS, _GOOD_VALUES]), _line([_IDS, _IDS, _VALUES])))
    def test_ratings(self, tmp_path, monkeypatch, block, text):
        monkeypatch.setattr(data_module, "TEXT_BLOCK", block)
        path = tmp_path / "r.tsv"
        path.write_bytes(text.encode("utf-8"))

        def blocks():
            ratings, ids = load_ratings(path)
            return [*ids.users], [*ids.items], list(ratings.triples())

        assert _outcome(blocks) == _outcome(lambda: line_load_ratings(path))

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @_PER_BLOCK
    @given(text=_file(_line([_IDS, _IDS]), _line([_IDS, _IDS])))
    def test_trust(self, tmp_path, monkeypatch, block, text):
        monkeypatch.setattr(data_module, "TEXT_BLOCK", block)
        rpath = write(tmp_path, "r.tsv", "b x 4\nz y 3\n")
        tpath = tmp_path / "t.tsv"
        tpath.write_bytes(text.encode("utf-8"))
        _, ids = load_ratings(rpath)
        users = {"b": 0, "z": 1}

        def blocks():
            graph = load_trust(tpath, ids)
            assert graph.num_users == len(ids.users)
            return list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))

        assert _outcome(blocks) == _outcome(lambda: line_load_trust(tpath, users))
        assert [*ids.users] == list(users)

    @given(edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_from_edges(self, edges):
        graph = TrustGraph.from_edges(6, edges)
        expected = sorted({(s, t) for s, t in edges if s != t})
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == expected
        assert graph.out_degrees().tolist() == [sum(s == u for s, _ in expected)
                                                for u in range(6)]


# one fault or none put into otherwise valid store input
_RATING_FAULTS = [None, "nan", "inf", "-inf", "below 1", "above 5", "negative index",
                  "index too large", "repeated pair"]
_EDGE_FAULTS = [None, "negative index", "index too large", "repeated pair", "self-loop"]


def _with_fault(draw, faults, rows, span):
    """``rows`` ([major, minor, ...] lists, in any order) with one drawn
    fault, and its name: an index outside ``[0, span)``, a repeated (major,
    minor) pair, a self-loop, or a rating that is not in [1, 5]."""
    fault = draw(st.sampled_from(faults)) if rows else None
    if fault is None:
        return rows, None
    at = draw(st.integers(0, len(rows) - 1))
    row = list(rows[at])
    column = draw(st.integers(0, 1))
    if fault == "negative index":
        row[column] = -1 - draw(st.integers(0, 3))
    elif fault == "index too large":
        row[column] = span[column] + draw(st.integers(0, 3))
    elif fault == "repeated pair":
        rows.insert(draw(st.integers(0, len(rows))), row)
        return rows, fault
    elif fault == "self-loop":
        row[1 - column] = row[column]
    else:
        row[2] = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
                  "below 1": np.nextafter(1.0, 0.0), "above 5": np.nextafter(5.0, 6.0)}[fault]
    rows[at] = row
    return rows, fault


@st.composite
def _rating_input(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                          unique=True, max_size=12))
    rows = [[u, i, draw(st.floats(1.0, 5.0))] for u, i in pairs]
    return (m, n, *_with_fault(draw, _RATING_FAULTS, rows, (m, n)))


@st.composite
def _edge_input(draw):
    m = draw(st.integers(2, 6))
    edges = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                          .filter(lambda e: e[0] != e[1]), unique=True, max_size=12))
    return (m, *_with_fault(draw, _EDGE_FAULTS, [list(e) for e in edges], (m, m)))


def _columns(rows, width):
    return list(np.array(rows, dtype=np.float64).reshape(-1, width).T)


def _assert_bitwise_equal(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestStoresHoldTheirInvariants:
    """Each constructor returns a store holding every invariant of its
    class, or raises ValueError when its input breaks one; input in any
    order is accepted."""

    @given(case=_rating_input())
    def test_ratings(self, case):
        m, n, rows, fault = case
        if fault is not None:
            with pytest.raises(ValueError):
                SparseRatings(m, n, *_columns(rows, 3))
            return
        store = SparseRatings(m, n, *_columns(rows, 3))
        assert list(store.triples()) == sorted(map(tuple, rows))
        users, items = store.users.tolist(), store.items.tolist()
        assert all(a < b for a, b in zip(zip(users, items), zip(users[1:], items[1:])))
        assert all(0 <= u < m for u in users) and all(0 <= i < n for i in items)
        assert np.isfinite(store.values).all()
        assert ((store.values >= 1.0) & (store.values <= 5.0)).all()
        assert store.user_ptr.tolist() == [sum(u < v for u in users) for v in range(m + 1)]

    @given(case=_edge_input())
    def test_graph(self, case):
        m, rows, fault = case
        if fault is not None:
            with pytest.raises(ValueError):
                TrustGraph(m, *_columns(rows, 2))
            return
        graph = TrustGraph(m, *_columns(rows, 2))
        edges = list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
        assert edges == sorted(map(tuple, rows))
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert all(s != t and 0 <= s < m and 0 <= t < m for s, t in edges)
        assert graph.out_ptr.tolist() == [sum(s < v for s, _ in edges) for v in range(m + 1)]

    @given(data=st.data(), minor_span=st.sampled_from([1, 2, 5, 2**20, 2**40]))
    def test_any_order_builds_the_sorted_store(self, data, minor_span):
        """A permutation of valid input builds a store bitwise equal to the
        one built from the same pairs in canonical order."""
        m = data.draw(st.integers(1, 6))
        pairs = sorted(data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, minor_span - 1)),
            unique=True, max_size=20)))
        order = data.draw(st.permutations(range(len(pairs))))
        values = data.draw(st.lists(st.floats(1.0, 5.0), min_size=len(pairs),
                                    max_size=len(pairs)))

        def ratings(rows):
            rows = [[*pairs[r], values[r]] for r in rows]
            return SparseRatings(m, minor_span, *_columns(rows, 3))

        _assert_bitwise_equal(ratings(order), ratings(range(len(pairs))),
                              ("users", "items", "values", "user_ptr"))
        edges = sorted(data.draw(st.lists(
            st.tuples(st.integers(0, m), st.integers(0, m)).filter(lambda e: e[0] != e[1]),
            unique=True, max_size=20)))
        order = data.draw(st.permutations(range(len(edges))))

        def graph(rows):
            return TrustGraph(m + 1, *np.array([edges[r] for r in rows]).reshape(-1, 2).T)

        _assert_bitwise_equal(graph(order), graph(range(len(edges))),
                              ("edge_src", "edge_dst", "out_ptr"))

    @given(user_shape=st.lists(st.integers(0, 3), min_size=1, max_size=3),
           item_shape=st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_model(self, user_shape, item_shape):
        user_f, item_f = np.ones(user_shape), np.zeros(item_shape)
        if (len(user_shape) == len(item_shape) == 2 and user_shape[1] == item_shape[1]
                and 0 not in user_shape + item_shape):
            model = FactorModel(user_f, item_f)
            assert [model.num_users, model.k] == user_shape
            assert [model.num_items, model.k] == item_shape
        else:
            with pytest.raises(ValueError):
                FactorModel(user_f, item_f)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# finite float64 values, with signed zeros, subnormals and the extremes
# drawn more often than uniform sampling would draw them
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308,
                                -1.7976931348623157e308])
_FINITE = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_ROUND_TRIP = settings(max_examples=100, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


# an id as the loaders can produce one: non-empty, without whitespace
_MODEL_ID = st.text(st.characters(exclude_categories=("Cs",)), min_size=1,
                    max_size=4).filter(lambda text: text.split() == [text])


def _unique_ids(count):
    return st.lists(_MODEL_ID, min_size=count, max_size=count, unique=True)


@st.composite
def _models(draw):
    """A model, with external ids or without (saved as dense indices)."""
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    ids = None
    if draw(st.booleans()):
        ids = IdMap()
        ids.users.add(draw(_unique_ids(m)))
        ids.items.add(draw(_unique_ids(n)))
    return FactorModel(draw(arrays(np.float64, (m, k), elements=_FINITE)),
                       draw(arrays(np.float64, (n, k), elements=_FINITE)),
                       draw(_FINITE), ids)


def _id_lists(model):
    if model.ids is None:
        return [str(u) for u in range(model.num_users)], [str(i) for i in range(model.num_items)]
    return [*model.ids.users], [*model.ids.items]


class TestRoundTrips:
    @_ROUND_TRIP
    @given(model=_models())
    def test_model(self, tmp_path, model):
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.k, loaded.num_users, loaded.num_items) == (
            model.k, model.num_users, model.num_items)
        assert _bits(loaded.user_factors) == _bits(model.user_factors)
        assert _bits(loaded.item_factors) == _bits(model.item_factors)
        assert _bits(loaded.global_mean) == _bits(model.global_mean)
        assert _id_lists(loaded) == _id_lists(model)
