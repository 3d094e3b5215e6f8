"""Property tests on arbitrary inputs: the block loaders of socrec.data
and the similarity-cache loader against the line-at-a-time loaders of
oracles.py, and exact save/load round trips of models and similarity
caches."""

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
    SimilarityTable,
    TrustGraph,
    load_model,
    load_ratings,
    load_similarity_table,
    load_trust,
    save_model,
)

from oracles import (
    OracleDataError,
    line_load_ratings,
    line_load_similarity,
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


_ENDPOINTS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "01", "+2", "1_0", "\uff12",
                              "99999999999999999999", "x", "1.0"])
_UNIT_TEXT = st.sampled_from(["0.5", "1", "0", "-0", "1e-3", "0.25", "1.0000", "5e-324"])
_SIM_TEXT = st.one_of(_UNIT_TEXT, st.sampled_from(["nan", "1.5", "-0.1", "x", "inf", ""]))


@st.composite
def _cache_cases(draw):
    """(sorted edges of a 4-user graph, similarity-cache text): the graph's
    edges in any order, some repeated, with blank and comment lines, and in
    about half of the files arbitrary lines besides."""
    pairs = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p[0] != p[1])
    edges = sorted(set(draw(st.lists(pairs, max_size=8))))
    listed = list(edges)
    if edges:
        listed += draw(st.lists(st.sampled_from(edges), max_size=3))
    rows = [draw(_line([st.just(str(s)), st.just(str(t)), _UNIT_TEXT])) for s, t in listed]
    rows += draw(st.lists(_SKIPPED, max_size=3))
    if draw(st.booleans()):
        rows += draw(st.lists(st.one_of(_line([_ENDPOINTS, _ENDPOINTS, _SIM_TEXT]), _GARBAGE),
                              max_size=4))
    rows = draw(st.permutations(rows))
    return edges, _join(rows, draw(_NEWLINES), draw(_BOM), draw(st.booleans()))


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
            return ([ids.user_id(u) for u in range(ids.num_users)],
                    [ids.item_id(i) for i in range(ids.num_items)],
                    list(ratings.triples()))

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
            assert graph.num_users == ids.num_users
            return list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))

        assert _outcome(blocks) == _outcome(lambda: line_load_trust(tpath, users))
        assert [ids.user_id(u) for u in range(ids.num_users)] == list(users)

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @_PER_BLOCK
    @given(case=_cache_cases())
    def test_similarity_cache(self, tmp_path, monkeypatch, block, case):
        monkeypatch.setattr(data_module, "TEXT_BLOCK", block)
        edges, text = case
        path = tmp_path / "sim.txt"
        path.write_bytes(text.encode("utf-8"))
        graph = TrustGraph.from_edges(4, edges)
        assert (_outcome(lambda: _bits(load_similarity_table(path, graph).values))
                == _outcome(lambda: _bits(line_load_similarity(path, edges))))

    @given(edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
    def test_from_edges(self, edges):
        graph = TrustGraph.from_edges(6, edges)
        expected = sorted({(s, t) for s, t in edges if s != t})
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == expected
        assert graph.out_degrees().tolist() == [sum(s == u for s, _ in expected)
                                                for u in range(6)]


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# finite float64 values, with signed zeros, subnormals and the extremes
# drawn more often than uniform sampling would draw them
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308,
                                -1.7976931348623157e308])
_FINITE = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0 - 2 ** -53]),
                  st.floats(0.0, 1.0))
_ROUND_TRIP = settings(max_examples=100, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _models(draw):
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    return FactorModel(draw(arrays(np.float64, (m, k), elements=_FINITE)),
                       draw(arrays(np.float64, (n, k), elements=_FINITE)),
                       k, draw(_FINITE))


@st.composite
def _similarity_tables(draw):
    num_users = draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_users - 1))
    graph = TrustGraph.from_edges(num_users, draw(st.lists(pairs, max_size=20)))
    return SimilarityTable(graph, draw(arrays(np.float64, graph.num_edges, elements=_UNIT)))


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

    @_ROUND_TRIP
    @given(table=_similarity_tables())
    def test_similarity_table(self, tmp_path, table):
        path = tmp_path / "sim.txt"
        table.save(path)
        loaded = load_similarity_table(path, table.graph)
        assert loaded.graph is table.graph
        assert _bits(loaded.values) == _bits(table.values)
