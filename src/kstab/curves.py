"""Enumeration of the extremal curve data on each surface model.

Everything here is a bounded exhaustive search over integral classes, with
the bounds derived from the defining Diophantine identities, so the output
is self-verifying rather than a transcribed table.

The (-1)-curves and the fiber classes are searched as integer rows
(h, e_1, ..., e_r).  Each row's defining identities are checked over ints,
and a failure raises InvariantError.  The rows are sorted as their classes
sort, and only then is each turned into a DivClass over denominator 1.  A
fiber candidate that is the sum of two (-1)-curves meeting once is nef
without a scan of the curve table.  Each degree's tables are one record,
_Tables, built once by _tables(degree), and every module reads its fields;
pairings signs a class's own integer row against any list of rows.

The sign tests against a whole per-degree table run on one packed integer
product.  Column k of the table, negated for k >= 1 as pairings pairs it,
is packed once per degree into one int with row j's entry in the signed
64-bit slot j.  For a class row w the int N = sum(w_k * column_k) then
holds D * (w.c_j) in slot j, so r + 1 big-int products pair w with every
row.  Adding B, bit 63 of every slot, leaves each slot in [0, 2^64) with
no carry between slots, and XOR with B turns it back into the entry's
64-bit two's complement, read as an array('q').  This is exact when
sum(|w_k| * max_j |row_j[k]|) < 2^63, which each call checks; a class past
that bound takes the per-row loop of pairings, which also serves any other
list of rows.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property, lru_cache
from operator import mul, neg

from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    SurfaceModel,
    _anticanonical_row,
    _from_row,
    _is_int,
    _rank,
    _row_dot,
    _row_sum,
)


def _row_sort_key(row):
    """DivClass.sort_key of the class of an integer row, over ints."""
    return (row[0], tuple(-abs(x) for x in row[1:]), tuple(-x for x in row[1:]))


def _candidate_rows(r, heights, lo, square, anti_degree):
    """Rows (h, -b_1, ..., -b_r) with h in heights, each b_i in [lo, h],
    sum(b_i) = 3h - anti_degree and sum(b_i^2) = h^2 - square: the
    integral classes of that square and that degree against -K.  The
    suffixes are memoized for one height at a time."""
    for h in heights:

        @lru_cache(maxsize=None)
        def suffixes(n, total, sq):
            """The tuples (-b_1, ..., -b_n) with each b_i in [lo, h], sum
            total and square sum sq; a b_i is kept only when the rest can
            still meet Cauchy-Schwarz, (total - b)^2 <= (n - 1)(sq - b^2)."""
            if n == 0:
                return ((),) if total == sq == 0 else ()
            return tuple(
                (-b, *rest)
                for b in range(lo, h + 1)
                if (total - b) ** 2 <= (n - 1) * (sq - b * b)
                for rest in suffixes(n - 1, total - b, sq - b * b)
            )

        for row in suffixes(r, 3 * h - anti_degree, h * h - square):
            yield (h, *row)


def _checked_rows(rows, s: SurfaceModel, square, anti_degree, name):
    """rows sorted as their classes sort, after checking over ints that each
    has the given square and the given degree against -K."""
    anti = _anticanonical_row(s)
    for row in rows:
        if _row_dot(row, row) != square or _row_dot(anti, row) != anti_degree:
            raise InvariantError(f"{_from_row(1, row)} is not a {name} class")
    return tuple(sorted(rows, key=_row_sort_key))


def _line_rows(s: SurfaceModel) -> tuple[tuple[int, ...], ...]:
    """The integer rows of the (-1)-curves, sorted as their classes sort.

    Candidates a*H - sum(b_i E_i) have a^2 - sum b_i^2 = -1 and
    3a - sum b_i = 1.  Cauchy-Schwarz on (b_i) gives (3a-1)^2 <= r*(a^2+1),
    so a <= 6 for r <= 8; equality at a = 7, r = 8 would force all
    b_i = 20/8, not integral.  The same argument applied to all-but-one
    coordinate pins each b_i to [-1, a].
    """
    rows = list(_candidate_rows(s.r, range(7), lo=-1, square=-1, anti_degree=1))
    return _checked_rows(rows, s, square=-1, anti_degree=1, name="(-1)-curve")


def _fiber_rows(s: SurfaceModel, lines) -> tuple[tuple[int, ...], ...]:
    """The integer rows of the fiber classes, sorted as their classes sort,
    given the rows lines of the (-1)-curves.

    Candidates h*H - sum(b_i E_i) have h^2 = sum b_i^2 and 3h - sum b_i = 2.
    Cauchy-Schwarz gives (3h-2)^2 <= r*h^2, so h <= 5 for r <= 7 and
    h <= 11 for r = 8; per coordinate it pins b_i to [0, h].

    A candidate is kept when it pairs nonnegatively with every (-1)-curve.
    A sum E + E' of two (-1)-curves with E.E' = 1 passes without that scan:
    it pairs to E.E' - 1 = 0 with E and with E', and nonnegatively with
    every other (-1)-curve, since distinct (-1)-curves meet nonnegatively.
    In degrees 1-7 every candidate is such a sum, which spares degree 1 the
    scan of 2160 candidates against 240 lines; a candidate that is not
    (H - E1 in degree 8) is scanned in full.
    """
    sums = {
        _row_sum(u, v)
        for i, u in enumerate(lines)
        for v in lines[i + 1 :]
        if _row_dot(u, v) == 1
    }
    heights = range(1, (11 if s.r == 8 else 5) + 1)
    rows = [
        row
        for row in _candidate_rows(s.r, heights, lo=0, square=0, anti_degree=2)
        if row in sums or all(_row_dot(row, line) >= 0 for line in lines)
    ]
    return _checked_rows(rows, s, square=0, anti_degree=2, name="fiber")


class _Tables:
    """The curve tables of one degree; _tables(degree) builds each once.

    model is the degree's SurfaceModel.  rows holds the integer rows of the
    (-1)-curves, sorted as their classes sort; lines holds their classes,
    index maps each row to its position, and line_table is rows packed for
    _table_pairings.  cone holds the classes spanning the cone of curves
    and cone_table their packed rows: in degrees 1-7 the lines and
    line_table themselves, and in degree 8 (one blown-up point) the lines
    and the ruling H - E1.  fibers and masks are built on first read, as
    checks in degrees 1-3 and 8 read neither.
    """

    def __init__(self, degree: int):
        s = self.model = SurfaceModel(degree)
        self.rows = _line_rows(s)
        self.lines = tuple(_from_row(1, row) for row in self.rows)
        self.index = {row: i for i, row in enumerate(self.rows)}
        self.line_table = _packed(self.rows)
        self.cone, self.cone_table = self.lines, self.line_table
        if degree == 8:
            self.cone += (_from_row(1, (1, -1)),)
            self.cone_table = _packed(self.rows + ((1, -1),))

    @cached_property
    def fibers(self) -> dict[tuple[int, ...], DivClass]:
        """Each fiber class, keyed by its integer row, in sorted order.  A
        cold degree-1 build takes about 0.1 s."""
        return {row: _from_row(1, row) for row in _fiber_rows(self.model, self.rows)}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set when lines i and j are disjoint."""
        return tuple(_zeros(_table_pairings(c, self.line_table, self.model)) for c in self.lines)


@lru_cache(maxsize=None)
def _tables(degree: int) -> _Tables:
    """The _Tables of the degree, built once."""
    return _Tables(degree)


def minus_one_curves(s: SurfaceModel) -> list[DivClass]:
    """All integral classes C with C^2 = -1 and -K.C = 1, sorted."""
    return list(_tables(s.degree).lines)


def fiber_classes(s: SurfaceModel) -> list[DivClass]:
    """All integral classes C with C^2 = 0, -K.C = 2, nonnegative against
    every curve from minus_one_curves."""
    return list(_tables(s.degree).fibers.values())


def pairings(w: DivClass, rows, s: SurfaceModel) -> list[int]:
    """The integers D * m_c * (w.c), one per integer row (h, e_1, ..., e_r)
    of rows, in order.

    D = w.den, and m_c > 0 clears the denominators of the class c behind
    the row (m_c = 1 for integral classes, as in the curve tables; c.row is
    the row of any class), so each sign and each zero is exactly that of
    the rational w.c.

    This is the per-row loop, one sum of products a row, for any list of
    rows.  The per-degree curve tables are paired by _table_pairings
    instead: one packed product sum(w_k * column_k), each row's entry in a
    signed 64-bit slot, read out exactly while sum(|w_k| * max_j
    |row_j[k]|) < 2^63 and through this loop past that bound.
    """
    if _rank(w) != s.r:
        raise DomainError(f"class rank does not match surface: {w.rank} vs r={s.r}")
    h, *e = w.row
    dual = (h, *map(neg, e))
    return [sum(map(mul, dual, row)) for row in rows]


def _packed(rows) -> tuple:
    """The int rows (h, e_1, ..., e_r) packed for _table_pairings, as
    (rows, columns, reach, bias, size).  columns[k] is sum(x_j << 64 * j)
    over the k-th entries x_j of the rows, negated for k >= 1; reach[k] is
    max_j |x_j|; bias holds bit 63 of every slot; size is 8 bytes a row.
    Each column is read from the bytes of its array('q'), in time linear in
    the number of rows."""
    order = sys.byteorder
    bias = int.from_bytes(array("Q", [1 << 63] * len(rows)).tobytes(), order)
    columns, reach = [], []
    for k, column in enumerate(zip(*rows)):
        if k:
            column = tuple(map(neg, column))
        # a slot read as two's complement t holds t - 2^64 when bit 63 is set
        t = int.from_bytes(array("q", column).tobytes(), order)
        columns.append(t - ((t & bias) << 1))
        reach.append(max(map(abs, column)))
    return tuple(rows), tuple(columns), tuple(reach), bias, 8 * len(rows)


def _table_pairings(w: DivClass, table, s: SurfaceModel):
    """pairings(w, rows, s) for the rows of a _packed table of the degree
    of s, as a sequence of ints: one packed product when every slot stays
    within 64 bits, the row loop of pairings otherwise (which refuses a
    class of another rank, and a value that is not a class)."""
    rows, columns, reach, bias, size = table
    row = w.row if isinstance(w, DivClass) else ()
    # |D * (w.c_j)| <= sum(|w_k| * reach[k]) < 2^63 keeps each slot exact
    if len(row) != len(columns) or sum(map(mul, map(abs, row), reach)) >> 63:
        return pairings(w, rows, s)
    products = array("q")
    products.frombytes(((sum(map(mul, row, columns)) + bias) ^ bias).to_bytes(size, sys.byteorder))
    return products


def negative_curves(w: DivClass, s: SurfaceModel) -> list[DivClass]:
    """The curves c from minus_one_curves with w.c < 0, in sorted order.

    Let w = sum(a_i E_i) + delta*C, all a_i, delta >= 0, over disjoint
    (-1)-curves E_i and a fiber class C missing them.  Then w.E_j = -a_j,
    and w.c >= 0 for any other (-1)-curve c, as distinct (-1)-curves pair
    nonnegatively and fibers are nef.  So these curves are exactly the E_i
    with a_i > 0, weighted a_i = -w.E_i; the other E_i pair to 0 with w.
    Conversely, if w = sum(-w.E_j * E_j) + delta*C over these curves E_j,
    pairing with E_j gives sum_{i != j}(a_i E_i.E_j) + delta*C.E_j = 0, a
    sum of nonnegative terms, so the E_j are pairwise disjoint.
    """
    tables = _tables(s.degree)
    signs = _table_pairings(w, tables.line_table, s)
    return [c for c, p in zip(tables.lines, signs) if p < 0]


def _zeros(products) -> int:
    """The int with bit j set where products[j] is zero."""
    return sum(1 << j for j, p in enumerate(products) if p == 0)


def _disjoint_index_sets(allowed: int, masks, k: int):
    """The k-sets of indexes from the bits of allowed whose masks hold one
    another, as ascending tuples in index-lex order, one at a time."""
    if k == 0:
        yield ()
        return
    while allowed.bit_count() >= k:
        low = allowed & -allowed
        allowed ^= low
        i = low.bit_length() - 1
        # allowed now holds the indexes past i; keep those that miss i
        for rest in _disjoint_index_sets(allowed & masks[i], masks, k - 1):
            yield (i, *rest)


def disjoint_sets(curves, k: int, s: SurfaceModel) -> list[tuple[DivClass, ...]]:
    """All k-subsets of curves with pairwise product 0, in index-lex order.

    The curves may be any rational classes of the surface's rank.
    """
    curves = list(curves)
    if len(set(curves)) != len(curves):
        raise DomainError("curves must be pairwise distinct")
    if not (_is_int(k) and k >= 0):
        raise DomainError(f"k must be an integer >= 0, got {k!r}")
    rows = [c.row for c in curves]
    masks = [_zeros(pairings(c, rows, s)) for c in curves]
    return [
        tuple(curves[i] for i in chosen)
        for chosen in _disjoint_index_sets((1 << len(curves)) - 1, masks, k)
    ]
