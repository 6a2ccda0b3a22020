import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from hashlib import sha256

import pytest

from kstab import cli
from kstab.cones import _mu_rows
from kstab.curves import (
    _checked_rows,
    _Tables,
    _tables,
    disjoint_sets,
    fiber_classes,
    minus_one_curves,
    negative_curves,
)
from kstab.errors import DomainError, InvariantError
from kstab.lattice import (
    SurfaceModel,
    anticanonical,
    basis_exceptional,
    basis_line,
    canonical,
    div,
    intersect,
    square,
)

EXPECTED_COUNTS = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


def test_counts_by_degree():
    for d, n in EXPECTED_COUNTS.items():
        assert len(minus_one_curves(SurfaceModel(d))) == n


def test_degree7_exact_set():
    s = SurfaceModel(7)
    assert minus_one_curves(s) == [
        div(0, [1, 0]),
        div(0, [0, 1]),
        div(1, [-1, -1]),
    ]


def test_degree8_exact_set():
    s = SurfaceModel(8)
    assert minus_one_curves(s) == [div(0, [1])]


def test_every_curve_satisfies_defining_equations():
    for d in range(1, 9):
        s = SurfaceModel(d)
        k = canonical(s)
        for c in minus_one_curves(s):
            assert c.is_integral()
            assert square(c, s) == -1
            assert intersect(k, c, s) == -1


def test_enumeration_deterministic():
    s = SurfaceModel(4)
    assert minus_one_curves(s) == minus_one_curves(s)
    assert fiber_classes(s) == fiber_classes(s)


def test_cubic_type_decomposition():
    # 6 exceptional, 15 lines through two points, 6 conics through five
    s = SurfaceModel(3)
    by_h = {}
    for c in minus_one_curves(s):
        by_h[c.h] = by_h.get(c.h, 0) + 1
    assert by_h == {0: 6, 1: 15, 2: 6}


def test_fiber_classes_small_degrees():
    assert fiber_classes(SurfaceModel(8)) == [div(1, [-1])]
    assert fiber_classes(SurfaceModel(7)) == [div(1, [-1, 0]), div(1, [0, -1])]


def test_fiber_classes_cubic_count_and_properties():
    s = SurfaceModel(3)
    fibers = fiber_classes(s)
    assert len(fibers) == 27
    k = canonical(s)
    lines = minus_one_curves(s)
    for c in fibers:
        assert c.is_integral()
        assert square(c, s) == 0
        assert intersect(k, c, s) == -2
        assert all(intersect(c, g, s) >= 0 for g in lines)


def test_fiber_classes_are_anticanonical_minus_line_on_cubic():
    s = SurfaceModel(3)
    mk = -canonical(s)
    expected = sorted(
        (mk - g for g in minus_one_curves(s)), key=lambda c: c.sort_key()
    )
    assert fiber_classes(s) == expected


def test_disjoint_sets_basis():
    s = SurfaceModel(3)
    curves = minus_one_curves(s)
    sixes = disjoint_sets(curves, 6, s)
    basis = tuple(basis_exceptional(s, i) for i in range(1, 7))
    assert basis in sixes
    assert sixes[0] == basis
    for sub in sixes:
        for i in range(6):
            for j in range(i + 1, 6):
                assert intersect(sub[i], sub[j], s) == 0


def test_disjoint_pairs_degree7():
    s = SurfaceModel(7)
    curves = minus_one_curves(s)
    pairs = disjoint_sets(curves, 2, s)
    e1, e2 = basis_exceptional(s, 1), basis_exceptional(s, 2)
    assert pairs == [(e1, e2)]
    # E1 meets H-E1-E2, so that pair is excluded
    assert intersect(e1, div(1, [-1, -1]), s) == 1


def test_disjoint_sets_k_zero():
    s = SurfaceModel(7)
    assert disjoint_sets(minus_one_curves(s), 0, s) == [()]


def test_disjoint_sets_k_is_a_count():
    # k is an int that is not a bool; a float used to recurse without end
    s = SurfaceModel(5)
    for k in (0.5, 2.0, True, "2", None, -1):
        with pytest.raises(DomainError, match="k must be an integer"):
            disjoint_sets(minus_one_curves(s), k, s)


def test_disjoint_sets_rejects_duplicates():
    s = SurfaceModel(7)
    e1 = basis_exceptional(s, 1)
    with pytest.raises(DomainError):
        disjoint_sets([e1, e1], 1, s)


def test_full_enumeration_under_five_seconds():
    _tables.cache_clear()
    start = time.perf_counter()
    for d in range(1, 9):
        minus_one_curves(SurfaceModel(d))
    assert time.perf_counter() - start < 5.0


# sha256 of _tables_text(degree), recorded from the tables as they were
# built before the pairing-row tables were removed; those tables in turn
# matched the ones built through Fraction arithmetic
TABLE_DIGESTS = {
    1: "bcb795c6e3639e5a927fdd1c7c30e50f1885a7e879d8097bc8cdb0ea03a2feba",
    2: "455b367658c7cabdb62abfbe046682de3f4cc32b83fbce8ee4dbb841fabf4d3a",
    3: "4695293fe1b91eb030c9f1d5073ba631729fe6c1dcedc9384eade2e48ced0f5a",
    4: "e0d2c9bf6cbc9b287cfba8a0fdb34533935019f0f0c2e789f79511779d1aa480",
    5: "141001e5a895ecc656aafe9811e5857cc532efc9bcc7f65b4d88e4730a2ae6f8",
    6: "da0da10bdf98151bf4f36ae145711becc0b2abbcb22cc489fc53229cc511d941",
    7: "67ae333eb79834e30b33227c4b2fecc883354a290c4352d3e06c920b706d3f3e",
    8: "d9860470866355b0c9e286f2f5f18cca829913cc0bf06094c9f43e9175674ffe",
}


def _tables_text(degree):
    """Every per-degree table in order; the indexes by keys, then values."""
    s, tables = SurfaceModel(degree), _tables(degree)
    sections = {
        "lines": minus_one_curves(s),
        "fibers": fiber_classes(s),
        "line_index": tables.rows,
        "fiber_index": tables.fibers,
        "line_index_values": tables.lines,
        "fiber_index_values": tables.fibers.values(),
        "mu_rows": _mu_rows(degree),
    }
    return "\n".join(
        f"{name}: "
        + " ".join(
            "(" + ",".join(map(str, x)) + ")" if isinstance(x, tuple) else str(x)
            for x in items
        )
        for name, items in sections.items()
    )


@pytest.mark.parametrize("degree", range(1, 9))
def test_tables_are_pinned(degree):
    assert sha256(_tables_text(degree).encode()).hexdigest() == TABLE_DIGESTS[degree]
    s = SurfaceModel(degree)
    for c in minus_one_curves(s) + fiber_classes(s):
        assert all(type(x) is Fraction for x in (c.h, *c.e))


def _check_documents(degrees):
    """kstab check documents in each degree: -K, a class near a line and a
    class near a fiber (plane and conic faces in degrees 4-7), and in
    degree 3 a six-line cubic."""
    for d in degrees:
        s = SurfaceModel(d)
        k, e1 = anticanonical(s), basis_exceptional(s, 1)
        fiber = basis_line(s) - basis_exceptional(s, s.r)
        near_line = Fraction(5, 3) * (k + Fraction(1, 4) * e1)
        near_fiber = Fraction(2, 7) * (k + Fraction(1, 2) * fiber)
        for l in (k, near_line, near_fiber):
            yield json.dumps({"degree": d, "L": cli._class_to_json(l)})
        if d == 3:
            yield json.dumps({"degree": 3, "family": "six-line", "x": "1/10"})


def _check(doc):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--json", "--L", doc]) == 0


def test_a_check_sweep_builds_one_record_per_degree(monkeypatch):
    built = []
    build = _Tables.__init__

    def counted(self, degree):
        built.append(degree)
        build(self, degree)

    monkeypatch.setattr(_Tables, "__init__", counted)
    _tables.cache_clear()
    for _ in range(2):
        for doc in _check_documents(range(1, 9)):
            _check(doc)
    assert sorted(built) == list(range(1, 9))


def test_fibers_and_masks_are_built_on_first_read():
    # checks in degrees 1-3 and 8 read neither, so the cold degree-1 fiber
    # build stays off them; a degree 4-7 face reads both
    _tables.cache_clear()
    for doc in _check_documents((1, 2, 3, 8)):
        _check(doc)
    lazy = {"fibers", "masks"}
    for d in (1, 2, 3, 8):
        assert lazy.isdisjoint(vars(_tables(d))), d
    for doc in _check_documents((5,)):
        _check(doc)
    assert lazy <= set(vars(_tables(5)))


@pytest.mark.parametrize("degree", range(1, 9))
def test_disjoint_masks_match_fraction_intersections(degree):
    s = SurfaceModel(degree)
    lines = minus_one_curves(s)
    expected = tuple(
        sum(1 << j for j, d in enumerate(lines) if intersect(c, d, s) == 0) for c in lines
    )
    assert _tables(degree).masks == expected


def test_table_rows_are_checked_over_ints():
    s = SurfaceModel(7)
    lines = [(0, 1, 0), (1, -1, -1), (0, 0, 1)]
    assert _checked_rows(lines, s, -1, 1, "(-1)-curve") == ((0, 1, 0), (0, 0, 1), (1, -1, -1))
    for bad in ((1, -1, 0), (0, -1, 0), (2, -1, -1)):
        # square 0 and degree 2; square -1 and degree -1; square 2
        with pytest.raises(InvariantError, match="is not a"):
            _checked_rows(lines + [bad], s, -1, 1, "(-1)-curve")
    with pytest.raises(InvariantError, match="is not a fiber class"):
        _checked_rows([(1, -1, -1)], s, 0, 2, "fiber")


def test_negative_curves_premises():
    # the support argument in negative_curves rests on these two facts
    for d in range(1, 8):
        s = SurfaceModel(d)
        lines = minus_one_curves(s)
        for i, c in enumerate(lines):
            assert all(intersect(c, e, s) >= 0 for e in lines[i + 1 :])
        if d >= 2:
            for fib in fiber_classes(s):
                assert all(intersect(fib, c, s) >= 0 for c in lines)


def test_negative_curves_are_the_positive_support():
    s = SurfaceModel(4)
    e1, e2, e3, e5 = (basis_exceptional(s, i) for i in (1, 2, 3, 5))
    w = Fraction(1, 3) * e1 + Fraction(1, 4) * e2 + 0 * e3
    assert negative_curves(w, s) == [e1, e2]
    fiber = div(1, [0, 0, 0, 0, -1])
    w = Fraction(1, 2) * fiber + Fraction(1, 5) * e1
    assert negative_curves(w, s) == [e1]
    assert negative_curves(w - w, s) == []
    # a curve carried with coefficient zero pairs to zero with w
    assert intersect(w, e3, s) == 0
    assert intersect(w, e5, s) > 0
