import pytest
from hypothesis import given, settings

from macposet import box, wedge
from macposet.serialize import (FormatError, build_report, fibermap_from_text,
                                order_lists_from_text, poset_to_text,
                                report_to_bytes)

from conftest import read_poset_text, small_ranked_posets


class TestPosetRoundTrip:
    def test_box_identical_ids(self):
        p = box(3, 4)
        q = read_poset_text(poset_to_text(p))
        assert q.provenance is None
        assert q.n == p.n and q.rank == p.rank and q.up == p.up
        assert q.labels == p.labels and q.var_names == p.var_names
        assert q.name == p.name

    def test_operation_result_keeps_provenance(self):
        res = wedge([box(2, 2), box(2, 3)])
        text = poset_to_text(res)
        q = read_poset_text(text)
        assert q.provenance is not None
        assert q.provenance.operation == res.provenance.operation
        assert q.provenance.sources == res.provenance.sources
        assert q.up == res.up

    def test_unlabeled(self):
        from macposet import path
        p = path(3)
        q = read_poset_text(poset_to_text(p))
        assert q.labels is None and q.up == p.up

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(small_ranked_posets())
    def test_round_trip_property(self, p):
        text = poset_to_text(p)
        q = read_poset_text(text)
        assert q.provenance is None
        assert q.rank == p.rank and q.up == p.up
        assert poset_to_text(q) == text


class TestOrderLists:
    def test_round_trip(self):
        text = "macorder 1\nlevel 0: 0\nlevel 1: 2 1\nlevel 2: 3\n"
        assert order_lists_from_text(text) == [[0], [2, 1], [3]]

    def test_bad_header(self):
        with pytest.raises(FormatError):
            order_lists_from_text("orders?\n")

    def test_out_of_order_levels(self):
        with pytest.raises(FormatError, match="out of order"):
            order_lists_from_text("macorder 1\nlevel 1: 0\n")


class TestFiberMap:
    def test_parse(self):
        text = "macposet-fibermap 1\n2\n0 0 0\n1 1 2\n"
        assert fibermap_from_text(text) == [(0, 0, 0), (1, 1, 2)]

    def test_base_ids_must_be_dense(self):
        with pytest.raises(FormatError):
            fibermap_from_text("macposet-fibermap 1\n2\n1 0 0\n0 1 2\n")

    def test_header_alone_is_a_format_error(self):
        # the missing count line used to raise IndexError
        with pytest.raises(FormatError, match="line 2"):
            fibermap_from_text("macposet-fibermap 1\n")


class TestReports:
    def test_bytes_are_deterministic(self):
        rep = build_report("check", "box(2,2)", verdict="ok",
                           timings={"search_nodes": 3, "subsets_enumerated": 14})
        assert report_to_bytes(rep) == report_to_bytes(dict(reversed(rep.items())))
        assert report_to_bytes(rep).endswith(b"\n")

    def test_integers_only(self):
        rep = build_report("x", "y", timings={"search_nodes": 1})
        import json
        doc = json.loads(report_to_bytes(rep))
        def walk(v):
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            elif isinstance(v, list):
                for x in v:
                    walk(x)
            else:
                assert not isinstance(v, float)
        walk(doc)
