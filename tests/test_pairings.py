"""The integer pairing kernel against the Fraction loops it replaced.

Every sign test against the curve lists runs over integers after clearing
denominators.  The oracles below are the per-curve ``Fraction`` loops the
library used before; each kernel caller must agree with its oracle on
random rational classes in every degree, including classes with large and
mixed denominators and classes on which some pairings are exactly zero.
The packed product over a per-degree table must agree with the per-row
loop of ``pairings`` on both sides of its 2^63 slot bound.
"""

import random
import re
from fractions import Fraction
from math import lcm

import pytest

from kstab import curves
from kstab.alphabound import _divided
from kstab.cones import (
    KIND_CONIC_F1,
    KIND_CONIC_P1P1,
    _face_data,
    ample_violation,
    is_nef,
    mori_generators,
)
from kstab.curves import (
    _candidate_rows,
    _disjoint_index_sets,
    _Tables,
    _table_pairings,
    _tables,
    disjoint_sets,
    fiber_classes,
    minus_one_curves,
    negative_curves,
    pairings,
)
from kstab.errors import DomainError, InvariantError
from kstab.lattice import (
    DivClass,
    SurfaceModel,
    _anticanonical_row,
    _from_row,
    _row_dot,
    _row_less,
    _row_sum,
    anticanonical,
    div,
    intersect,
    zero_class,
)

F = Fraction


def _is_nef_oracle(dv, s):
    return all(intersect(dv, g, s) >= 0 for g in mori_generators(s))


def _ample_violation_oracle(dv, s):
    if intersect(dv, dv, s) <= 0:
        return f"self-intersection of {dv} is not positive"
    for g in mori_generators(s):
        if intersect(dv, g, s) <= 0:
            return f"pairing of {dv} with the curve class {g} is not positive"
    return None


def _negative_curves_oracle(w, s):
    return [c for c in minus_one_curves(s) if intersect(w, c, s) < 0]


def _disjoint_sets_oracle(curves, k, s):
    curves = list(curves)
    out = []

    def rec(start, chosen):
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for i in range(start, len(curves)):
            c = curves[i]
            if all(intersect(c, d, s) == 0 for d in chosen):
                rec(i + 1, chosen + [c])

    rec(0, [])
    return out


def _section_curve_scan(rows, fib, degree):
    """The integer row of the first (-1)-curve v with v.fib = 1 missing every
    one of rows, or None: the line-table scan that the division of
    M = -K + sum(E_i) replaced, kept as its reference."""
    for line in _tables(degree).rows:
        if _row_dot(fib, line) == 1 and not any(_row_dot(x, line) for x in rows):
            return line
    return None


def _section_curve_oracle(subset, fib, s):
    for v in minus_one_curves(s):
        if intersect(v, fib, s) == 1 and all(intersect(v, c, s) == 0 for c in subset):
            return v
    return None


# The multiset search and its permutations that _candidate_rows replaced,
# kept as the reference for the one bounded search.


def _nonincreasing_tuples(length, lo, hi, total, sq_total):
    """Nonincreasing integer tuples with fixed sum and fixed sum of squares."""
    out = []

    def rec(prefix, remaining, cap, t, q):
        if remaining == 0:
            if t == 0 and q == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(cap, t - lo * (remaining - 1)), lo - 1, -1):
            # bounds: later entries are <= v and >= lo
            rt = t - v
            rq = q - v * v
            if rq < 0:
                continue
            if rt > v * (remaining - 1) or rt < lo * (remaining - 1):
                continue
            # Cauchy-Schwarz: remaining sum of squares >= rt^2 / (remaining-1)
            if remaining > 1 and rt * rt > rq * (remaining - 1):
                continue
            if remaining > 1 and rq > (remaining - 1) * max(v * v, lo * lo):
                continue
            rec(prefix + [v], remaining - 1, v, rt, rq)

    rec([], length, hi, total, sq_total)
    return out


def _distinct_permutations(values):
    """All distinct orderings of a multiset, in lexicographic order."""
    values = sorted(values)
    n = len(values)
    out = []

    def rec(prefix, pool):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        last = None
        for i, v in enumerate(pool):
            if v == last:
                continue
            last = v
            rec(prefix + [v], pool[:i] + pool[i + 1 :])

    rec([], values)
    return out


def _fiber_classes_oracle(degree):
    s = SurfaceModel(degree)
    lines = minus_one_curves(s)
    found = []
    for h in range(1, (11 if s.r == 8 else 5) + 1):
        total, sq = 3 * h - 2, h * h
        if total * total > s.r * sq:
            continue
        for multiset in _nonincreasing_tuples(s.r, 0, h, total, sq):
            for perm in _distinct_permutations(multiset):
                cand = div(h, [-b for b in perm])
                if all(intersect(cand, line, s) >= 0 for line in lines):
                    found.append(cand)
    return sorted(found, key=DivClass.sort_key)


_DENOMINATORS = (1, 2, 3, 6, 7, 12, 97, 10**9 + 7, 2**61 - 1, 3**40)


def _coordinate(rng):
    return F(rng.randint(-40, 40), rng.choice(_DENOMINATORS))


def _random_classes(rng, s, count):
    """Rational classes of four shapes: free coordinates with mixed
    denominators, small perturbations of -K (mostly ample), the same made
    orthogonal to one or two (-1)-curves (pairings exactly 0 there), and
    curve-list members and fibers at rational scales."""
    lines = minus_one_curves(s)
    fibers = fiber_classes(s) if s.degree >= 2 else []
    out = [zero_class(s), anticanonical(s)]
    for n in range(count):
        shape = n % 4
        if shape == 0:
            w = div(_coordinate(rng), [_coordinate(rng) for _ in range(s.r)])
        else:
            w = anticanonical(s) + div(
                0, [F(rng.randint(-3, 3), 16 * rng.choice(_DENOMINATORS)) for _ in range(s.r)]
            )
        if shape == 2:
            for c in rng.sample(lines, min(2, len(lines))):
                # c.c = -1, so adding (w.c) c makes w orthogonal to c
                w = w + intersect(w, c, s) * c
        if shape == 3:
            w = rng.choice(lines + fibers + [anticanonical(s)])
        out.append(F(rng.randint(1, 10**6), rng.choice(_DENOMINATORS)) * w)
    return out


def test_pairings_are_scaled_fraction_pairings():
    # over integral rows the kernel returns D * (w.c) with D the least
    # common denominator of w
    rng = random.Random(1)
    for d in range(1, 9):
        s = SurfaceModel(d)
        lines = minus_one_curves(s)
        table = [c.row for c in lines]
        for w in _random_classes(rng, s, 12):
            den = lcm(*(x.denominator for x in (w.h, *w.e)))
            assert w.den == den and w.row == tuple(x * den for x in (w.h, *w.e))
            assert pairings(w, table, s) == [intersect(w, c, s) * den for c in lines]


@pytest.mark.parametrize("degree", range(1, 9))
def test_sign_tests_match_fraction_oracles(degree):
    s = SurfaceModel(degree)
    rng = random.Random(100 + degree)
    seen = {"nef": 0, "not nef": 0, "ample": 0, "zero pairing": 0, "negative": 0}
    for w in _random_classes(rng, s, 160):
        nef = is_nef(w, s)
        assert nef == _is_nef_oracle(w, s)
        violation = ample_violation(w, s)
        assert violation == _ample_violation_oracle(w, s)
        negatives = negative_curves(w, s)
        assert negatives == _negative_curves_oracle(w, s)
        seen["nef" if nef else "not nef"] += 1
        seen["ample"] += violation is None
        seen["zero pairing"] += any(intersect(w, g, s) == 0 for g in mori_generators(s))
        seen["negative"] += bool(negatives)
    # every branch of every test is exercised, on and off the boundary
    assert all(count >= 5 for count in seen.values()), seen


def test_sign_tests_reject_rank_mismatch():
    s = SurfaceModel(4)
    wrong = anticanonical(SurfaceModel(5))
    with pytest.raises(DomainError):
        is_nef(wrong, s)
    with pytest.raises(DomainError):
        ample_violation(wrong, s)
    with pytest.raises(DomainError):
        negative_curves(wrong, s)
    with pytest.raises(DomainError):
        disjoint_sets(minus_one_curves(s)[:3] + [wrong], 2, s)
    with pytest.raises(DomainError):
        pairings(wrong, [c.row for c in minus_one_curves(s)], s)


_SLOT_MAX = 2**63 - 1


def _wide_classes(rng, s, rows, count):
    """Classes of the surface whose rows reach across the packed product's
    slot bound: random rows with coordinates of 1 to 70 bits and both
    signs, coordinates of +-(2^63 - 1), and for each coordinate k the rows
    +-floor((2^63 - 1) / m_k) e_k and +-ceil(2^63 / m_k) e_k, m_k the
    largest |row[k]| of the table (or 1 where the column is 0), which put
    pairings just inside and just outside the signed 64-bit slots."""
    r = s.r
    out = []
    for _ in range(count):
        row = tuple(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 70)) for _ in range(r + 1))
        if rng.random() < 0.25:
            row = tuple(rng.choice((x, _SLOT_MAX, -_SLOT_MAX)) for x in row)
        out.append(_from_row(rng.choice((1, 1, 7, 2**61 - 1)), row))
    for k in range(r + 1):
        m = max(abs(row[k]) for row in rows) or 1
        for x in (_SLOT_MAX // m, -(-(2**63) // m), _SLOT_MAX):
            for sign in (1, -1):
                out.append(_from_row(1, tuple(sign * x * (j == k) for j in range(r + 1))))
    return out


@pytest.mark.parametrize("degree", range(1, 9))
def test_packed_product_matches_the_row_loop(degree, monkeypatch):
    # the line table and the curve-cone table, on classes on both sides of
    # the slot bound: the packed product must equal the loop, and a class
    # past the bound must take the loop
    s = SurfaceModel(degree)
    rng = random.Random(1800 + degree)
    loop = curves.pairings
    calls = []
    monkeypatch.setattr(curves, "pairings", lambda *args: calls.append(1) or loop(*args))
    record = _tables(degree)
    cone_rows = [g.row for g in record.cone]
    tables = ((record.rows, record.line_table), (cone_rows, record.cone_table))
    branches = {"packed": 0, "loop": 0}
    extremes = set()
    for rows, table in tables:
        reach = [max(abs(row[k]) for row in rows) for k in range(s.r + 1)]
        for w in _wide_classes(rng, s, rows, 60):
            before = len(calls)
            got = _table_pairings(w, table, s)
            want = loop(w, rows, s)
            assert list(got) == want
            packed = len(calls) == before
            assert packed == (sum(abs(x) * m for x, m in zip(w.row, reach)) < 2**63)
            branches["packed" if packed else "loop"] += 1
            if packed:
                extremes.update(p for p in want if abs(p) == _SLOT_MAX)
            assert is_nef(w, s) == (min(loop(w, cone_rows, s)) >= 0)
            lines = record.lines
            assert negative_curves(w, s) == [c for c in lines if _row_dot(w.row, c.row) < 0]
    assert all(n >= 20 for n in branches.values()), branches
    if degree >= 3:  # some column of every table has largest entry 1 there
        assert extremes == {_SLOT_MAX, -_SLOT_MAX}


@pytest.mark.parametrize("degree", range(1, 9))
def test_disjoint_masks_match_the_row_loop(degree):
    # the cold build of the line disjointness table, against the loop
    s = SurfaceModel(degree)
    rows = _tables(degree).rows
    classes = minus_one_curves(s)
    masks = tuple(
        sum(1 << j for j, p in enumerate(pairings(c, rows, s)) if p == 0) for c in classes
    )
    assert _Tables(degree).masks == masks == _tables(degree).masks


def test_packed_product_rejects_rank_mismatch():
    # on both sides of the slot bound, with the message of pairings; the
    # square test of ample_violation and _face_data keeps the message of
    # intersect, and _face_data makes it before it reads its signs
    s = SurfaceModel(4)
    for degree in (3, 5):
        r = 9 - degree
        for x in (1, 2**70):
            wrong = _from_row(1, (x,) * (r + 1))
            message = re.escape(f"class rank does not match surface: {r} vs r=5")
            for table in (_tables(4).line_table, _tables(4).cone_table):
                with pytest.raises(DomainError, match=message):
                    _table_pairings(wrong, table, s)
            message = re.escape(f"class rank does not match surface: {r}, {r} vs r=5")
            with pytest.raises(DomainError, match=message):
                ample_violation(wrong, s)
            with pytest.raises(DomainError, match=message):
                _face_data(wrong, s, ())
            with pytest.raises(DomainError):
                is_nef(wrong, s)
            with pytest.raises(DomainError):
                negative_curves(wrong, s)


@pytest.mark.parametrize("degree", range(1, 9))
def test_disjoint_sets_match_fraction_oracle(degree):
    s = SurfaceModel(degree)
    rng = random.Random(200 + degree)
    lines = minus_one_curves(s)
    fibers = fiber_classes(s) if degree >= 2 else []
    lists = [lines if len(lines) <= 27 else rng.sample(lines, 24)]
    for _ in range(4):
        # shuffled, rescaled and mixed lists, including classes that are not
        # (-1)-curves: fibers, -K and free rational classes
        pool = rng.sample(lines, min(len(lines), 14))
        pool += rng.sample(fibers, min(len(fibers), 5))
        pool += [anticanonical(s)] + _random_classes(rng, s, 4)[2:]
        # a free class made orthogonal to a line in the list
        x, c = _random_classes(rng, s, 1)[-1], pool[0]
        pool.append(x + intersect(x, c, s) * c)
        scaled = [F(rng.randint(1, 99), rng.choice(_DENOMINATORS)) * c for c in pool]
        lists.append(list(dict.fromkeys(scaled)))
    found = 0
    for curves in lists:
        for k in range(5):
            got = disjoint_sets(curves, k, s)
            assert got == _disjoint_sets_oracle(curves, k, s)
            found += len(got) if k >= 2 else 0
    assert found > 0


def test_disjoint_sets_on_full_cubic_list_keep_oracle_order():
    s = SurfaceModel(3)
    lines = minus_one_curves(s)
    shuffled = random.Random(3).sample(lines, len(lines))
    for curves in (lines, shuffled):
        assert disjoint_sets(curves, 6, s) == _disjoint_sets_oracle(curves, 6, s)


@pytest.mark.parametrize("degree", range(1, 8))
def test_conic_kind_and_section_match_the_line_scan(degree):
    # every conic face, a fiber C with a disjoint (r-1)-set of lines missing
    # it, in degrees 2-7, and 25 fibers with 80 sets each in degree 1: the
    # face is over F1 exactly when M = -K + sum(E_i) has an odd entry, and
    # then (M - 3C) / 2 is the section the scan finds
    s = SurfaceModel(degree)
    rng = random.Random(700 + degree)
    tables = _tables(degree)
    rows, lines, masks = tables.rows, minus_one_curves(s), tables.masks
    fibers = list(tables.fibers.items())
    if degree == 1:
        fibers = rng.sample(fibers, 25)
    faces = []
    for fib, fib_class in fibers:
        allowed = sum(1 << i for i, row in enumerate(rows) if _row_dot(fib, row) == 0)
        sets = list(_disjoint_index_sets(allowed, masks, s.r - 1))
        if degree == 1:
            sets = rng.sample(sets, 80)
        faces += ((fib, fib_class, chosen) for chosen in sets)
    rng.shuffle(faces)
    kinds = set()
    for n, (fib, fib_class, chosen) in enumerate(faces):
        curves = [rows[i] for i in chosen]
        scan = _section_curve_scan(curves, fib, degree)
        m = _row_sum(_anticanonical_row(s), *curves)
        odd = any(x % 2 for x in m)
        assert odd == (scan is not None)
        kinds.add(odd)
        if odd:
            assert _divided(_row_less(m, fib, fib, fib), 2, "section curve") == scan
        else:
            with pytest.raises(InvariantError, match="section curve is not integral"):
                _divided(_row_less(m, fib, fib, fib), 2, "section curve")
        if n >= 60:
            continue
        # a seeded subset against the Fraction scan, and against the kind
        # _face_data gives w = C/2 + sum(a_i E_i), distinct a_i in (0, 1/2)
        oracle = _section_curve_oracle([lines[i] for i in chosen], fib_class, s)
        assert (None if oracle is None else oracle.row) == scan
        terms = [tuple(s.r * x for x in fib)]
        terms += (tuple((i + 1) * x for x in row) for i, row in enumerate(curves))
        w = _from_row(2 * s.r, _row_sum(*terms))
        data = _face_data(w, s, _table_pairings(w, tables.line_table, s))
        found = {tables.index[e.row] for e in data.curveE}
        assert (data.curveC.row, found) == (fib, set(chosen))
        assert data.kind == (KIND_CONIC_F1 if odd else KIND_CONIC_P1P1)
    assert kinds == {True, False}


@pytest.mark.parametrize("degree", range(2, 9))
def test_fiber_classes_match_fraction_oracle(degree):
    assert fiber_classes(SurfaceModel(degree)) == _fiber_classes_oracle(degree)


def _candidate_rows_oracle(r, heights, lo, square, anti_degree):
    for h in heights:
        total = 3 * h - anti_degree
        sq = h * h - square
        if total * total > r * sq:
            continue
        for multiset in _nonincreasing_tuples(r, lo, h, total, sq):
            for perm in _distinct_permutations(multiset):
                yield (h, *(-b for b in perm))


@pytest.mark.parametrize("r", range(1, 9))
def test_candidate_rows_match_multiset_search(r):
    # (heights, lo, square, degree against -K): the line and fiber searches,
    # the roots and the classes of square 1 and degree 3
    cases = [
        (range(7), -1, -1, 1),
        (range(1, (11 if r == 8 else 5) + 1), 0, 0, 2),
        (range(4), -2, -2, 0),
        (range(5), -1, 1, 3),
    ]
    for case in cases:
        rows = list(_candidate_rows(r, *case))
        assert len(set(rows)) == len(rows)
        assert set(rows) == set(_candidate_rows_oracle(r, *case))


def test_degree1_fiber_classes():
    s = SurfaceModel(1)
    fibers = fiber_classes(s)
    assert len(fibers) == 2160
    lines = [(int(c.h), *map(int, c.e)) for c in minus_one_curves(s)]
    for fib in fibers:
        h, *e = (int(x) for x in (fib.h, *fib.e))
        for lh, *le in lines:
            assert h * lh - sum(x * y for x, y in zip(e, le)) >= 0
