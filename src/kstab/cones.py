"""Nef and ample tests, the normalization constant, and the boundary-face
contraction classification.

The curve cone of every model here is spanned by finitely many explicit
classes, so nefness and ampleness reduce to exact sign checks against that
list.  The normalization constant (the smallest lambda with K + lambda*L
effective along the cone) is found two ways.  ``mu`` solves one small
linear program, whose checked optimal point writes K + mu*L in the curve
cone.  ``_chamber_mu`` reflects L into the dominant Weyl chamber and reads
mu off the nef rays H and H - E1 there, with no program; ``check`` and
``alpha-bound`` take it so, and the face below certifies it.
``face_decompose`` rewrites a normalized ample class as
-K + delta*C + sum a_i E_i with pairwise disjoint contracted curves,
classifies which minimal model the face contracts onto, and proves mu = 1
by a nef class dual to the face.  The simplex serves ``kstab mu`` and the
cross-checks (``mu_bisect``, ``is_nef_lp``).

Every entry that takes a polarization tests its ampleness once, in
``_ample_signs``: one packed product with the curve-cone table, and one
refusal message, "class is not ample: <reason>".  ``is_ample`` and
``ample_violation`` read that test.

The face is found and checked once, on ints, as one record, the
``ContractionData`` that ``face_decompose`` returns: its kind, its lines
sorted by weight, its fiber, the weights over their least common
denominator and the class row.  The search builds that record directly,
skipping the checks it has already made (``_contraction``); the public
constructor keeps every check, for faces from anywhere else.  ``check``
and ``alpha-bound`` hand that record to the public
``alphabound.certificate`` and ``compare_with_slope``, as a caller of
``face_decompose`` does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .curves import _disjoint_index_sets, _table_pairings, _tables, _zeros
from .errors import DomainError, InvariantError
from .lattice import (
    DivClass,
    Rational,
    SurfaceModel,
    _anticanonical_row,
    _from_row,
    _rank,
    _rational_row,
    _Record,
    _row_combination,
    _row_dot,
    _row_sum,
    _scaled_square,
    _shared_rank,
    canonical,
    rational,
)
from .ratlp import Optimal, cone_member, lp, solve

KIND_TO_P2 = "ToP2"
KIND_CONIC_F1 = "ConicBundleF1"
KIND_CONIC_P1P1 = "ConicBundleP1P1"
_KINDS = (KIND_TO_P2, KIND_CONIC_F1, KIND_CONIC_P1P1)


def mori_generators(s: SurfaceModel) -> list[DivClass]:
    """Classes spanning the cone of curves."""
    return list(_tables(s.degree).cone)


def is_nef(dv: DivClass, s: SurfaceModel) -> bool:
    """True when dv pairs nonnegatively with every curve-cone generator."""
    return min(_table_pairings(dv, _tables(s.degree).cone_table, s)) >= 0


def is_nef_lp(dv: DivClass, s: SurfaceModel) -> bool:
    """Linear-programming route to the nefness predicate.

    Minimizes D * (dv.G) over convex combinations of the cone generators
    G, with D = dv.den > 0; the generators are integral, so each D * (dv.G)
    is the int pairing of the rows, and dv is nef exactly when that
    minimum is nonnegative.  Kept alongside is_nef so the two
    implementations can cross-check each other.
    """
    if _rank(dv) != s.r:
        raise DomainError(f"class rank does not match surface: {dv.rank} vs r={s.r}")
    gens = _tables(s.degree).cone
    products = [_row_dot(dv.row, g.row) for g in gens]
    res = solve(lp(products, [[1] * len(gens)], [1]))
    if not isinstance(res, Optimal):
        raise InvariantError("minimum over a simplex must be attained")
    return res.value >= 0


def is_ample(dv: DivClass, s: SurfaceModel) -> bool:
    """True when dv pairs positively with every generator and dv**2 > 0."""
    return ample_violation(dv, s) is None


_NOT_AMPLE = "class is not ample: "


def ample_violation(dv: DivClass, s: SurfaceModel) -> str | None:
    """Reason dv fails the ampleness test, or None when ample."""
    try:
        _ample_signs(dv, s)
    except DomainError as exc:
        reason = str(exc)
        if reason.startswith(_NOT_AMPLE):
            return reason.removeprefix(_NOT_AMPLE)
        raise  # a class of another rank
    return None


def _ample_signs(dv: DivClass, s: SurfaceModel):
    """The ampleness test, the one every entry makes: the packed pairings
    D * (dv.G) with the curve-cone generators G, in the order of the
    degree's _Tables.cone_table, when dv is ample (each positive, and
    dv**2 > 0); else DomainError("class is not ample: <reason>"), the reason
    read off the same square and signs.  A verdict reads its slope,
    condition A and the face's signs off them; in degrees 1-7 they are the
    pairings with the lines."""
    if _scaled_square(dv, s) <= 0:
        raise DomainError(f"{_NOT_AMPLE}self-intersection of {dv} is not positive")
    tables = _tables(s.degree)
    signs = _table_pairings(dv, tables.cone_table, s)
    if min(signs) > 0:
        return signs
    g = next(g for g, p in zip(tables.cone, signs) if p <= 0)
    raise DomainError(f"{_NOT_AMPLE}pairing of {dv} with the curve class {g} is not positive")


@lru_cache(maxsize=None)
def _mu_rows(degree: int) -> tuple[tuple[int, ...], ...]:
    # the rows of the program in mu without their lambda entry: row k holds
    # minus the k-th coordinate of every generator
    return tuple(zip(*([-x for x in g.row] for g in _tables(degree).cone)))


def mu(l: DivClass, s: SurfaceModel) -> Rational:
    """Smallest lambda >= 0 with K + lambda*l in the curve cone.

    Solved exactly: minimize lambda subject to
    lambda*l - sum(t_i * G_i) = -K with all variables nonnegative.  Posed
    on the row of l = row / D, the program's optimum is mu / D, and the
    check solve() makes proves K + (mu / D) * row = sum(t_i * G_i) with
    every t_i >= 0.
    """
    _ample_signs(l, s)
    table = _mu_rows(s.degree)
    rows = [(x, *row) for x, row in zip(l.row, table)]
    res = solve(lp([1] + [0] * len(table[0]), rows, _anticanonical_row(s)))
    if not isinstance(res, Optimal):
        raise InvariantError("the normalization program must have a finite optimum")
    return res.value * l.den


def _chamber_mu(l: DivClass, s: SurfaceModel) -> Rational:
    """mu for an ample class, read off the dominant Weyl chamber.

    W(E_r) keeps K, the form and both cones, so mu(l) = mu(wl) for every
    w.  Sorting the multiplicities b_i = -e_i descending, and the Cremona
    step (h, b1, b2, b3) += h - b1 - b2 - b3 while that is negative, bring
    the row into the chamber h >= b1 + b2 + b3 with b sorted.  There the
    nef rays H and H - E1 bind, so mu of the row is max(3/h, 2/(h - b1)),
    and mu(row / D) is D times it.  Each step lowers h, which stays
    positive on an ample class.  Nothing here certifies the value: callers
    prove it by the face of K + mu*l (_face_decompose).  Takes (l, s) as
    mu does, and holds in degrees 1-8.
    """
    h, *b = l.row
    b = sorted((-x for x in b), reverse=True)
    while (d := h - sum(b[:3])) < 0:  # an ample row has h > b1 + b2 when r <= 2
        h += d
        b[:3] = (x + d for x in b[:3])
        b.sort(reverse=True)
    if 3 * (h - b[0]) >= 2 * h:
        return Fraction(3 * l.den, h)
    return Fraction(2 * l.den, h - b[0])


def mu_bisect(
    l: DivClass, s: SurfaceModel, width: Rational = Fraction(1, 1024)
) -> tuple[Rational, Rational]:
    """Bracket mu(l) by doubling plus bisection on cone membership.

    Returns (lo, hi) with hi - lo <= width, membership failing at lo and
    holding at hi, so lo < mu(l) <= hi.  Shares no code path with the
    parametric program in mu beyond the feasibility solver.
    """
    _ample_signs(l, s)
    width = rational(width)
    if width <= 0:
        raise DomainError("bracket width must be positive")
    gens = mori_generators(s)
    k = canonical(s)

    def member(x: Rational) -> bool:
        return cone_member(k + x * l, gens) is not None

    if member(Fraction(0)):
        raise InvariantError("the canonical class cannot lie in the curve cone")
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(64):
        if member(hi):
            break
        lo, hi = hi, 2 * hi
    else:
        raise InvariantError("no membership threshold found below 2**64")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class ContractionData(_Record):
    """Boundary-face data: l == -K + delta*curveC + sum(a_i * curveE_i).

    kind records the minimal model the contracted face maps onto.  ToP2
    has no fiber slot and delta = 0.  A conic-bundle kind always carries
    a fiber class; delta may still be zero when the fiber direction meets
    the face only in its closure.

    The record holds the weights as ints, and delta and a are read off
    them as Fractions, as a DivClass's h and e are read off its row.  The
    weights over their least common denominator are unique, so equality
    and the hash follow the rationals, and the repr is the constructor
    call on the Fraction fields.  delta and the a_i are read as
    lattice.rational reads them, and the curves and the fiber must be
    DivClasses of one rank.
    """

    # _weights is (q, q * delta, (q * a_i, ...)), q the lcm of the weights'
    # denominators; _row is q * (-K + delta*C + sum(a_i * E_i)) as an
    # integer row, or None with no curves, and stays out of == and the hash
    _fields = ("kind", "curveE", "curveC", "_weights")
    __match_args__ = (*_fields, "_row")

    def __init__(self, kind: str, delta: Rational, a, curveE, curveC: DivClass | None):
        if kind not in _KINDS:
            raise DomainError(f"unknown contraction kind {kind!r}")
        q, (delta, *a) = _rational_row((delta, *a))
        vars(self).update(
            kind=kind, curveE=curveE, curveC=curveC, _weights=(q, delta, tuple(a)), _row=None
        )
        if delta < 0:
            raise DomainError("delta must be nonnegative")
        if len(a) != len(self.curveE):
            raise DomainError("need one coefficient per contracted curve")
        if any(x < 0 for x in a):
            raise DomainError("curve coefficients must be nonnegative")
        if any(x < y for x, y in zip(a, a[1:])):
            raise DomainError("curve coefficients must be sorted nonincreasing")
        if a and a[0] >= q:
            raise DomainError("leading curve coefficient must stay below 1")
        if self.kind == KIND_TO_P2:
            if self.curveC is not None or delta:
                raise DomainError("a plane contraction carries no fiber part")
        elif self.curveC is None:
            raise DomainError("a conic-bundle contraction needs a fiber class")
        classes = list(self.curveE)
        if self.curveC is not None:
            classes.append(self.curveC)
        if not classes:
            return
        degree = 9 - _shared_rank(classes)
        if not 1 <= degree <= 8:
            raise DomainError("contraction data has an invalid rank")
        # membership is a lookup of an integral class's row: a class row / D
        # with D > 1 shares its row with an integral class
        tables = _tables(degree)
        indexes = []
        for c in self.curveE:
            i = tables.index.get(c.row) if c.den == 1 else None
            if i is None:
                raise DomainError(f"{c} is not an exceptional curve class")
            indexes.append(i)
        fiber = self.curveC
        if fiber is not None and (fiber.den != 1 or fiber.row not in tables.fibers):
            raise DomainError(f"{fiber} is not a fiber class")
        # line i misses every earlier line when its mask holds their bits; a
        # repeated line meets itself, as bit i of mask i is clear
        masks, earlier = tables.masks, 0
        for i in indexes:
            if earlier & ~masks[i]:
                raise DomainError("contracted curves must be pairwise disjoint")
            earlier |= 1 << i
        terms = [(_anticanonical_row(tables.model), q)]
        if fiber is not None:
            if any(_row_dot(fiber.row, c.row) for c in self.curveE):
                raise DomainError("contracted curves must be pairwise disjoint")
            terms.append((fiber.row, delta))
        terms += zip((c.row for c in self.curveE), a)
        vars(self)["_row"] = _row_combination(terms)

    @property
    def delta(self) -> Fraction:
        q, delta, _ = self._weights
        return Fraction(delta, q)

    @property
    def a(self) -> tuple[Fraction, ...]:
        q, _, a = self._weights
        return tuple(Fraction(x, q) for x in a)

    def __repr__(self):
        return (
            f"ContractionData(kind={self.kind!r}, delta={self.delta!r}, a={self.a!r}, "
            f"curveE={self.curveE!r}, curveC={self.curveC!r})"
        )


def reconstruct(data: ContractionData, s: SurfaceModel) -> DivClass:
    """The class -K + delta*C + sum(a_i * E_i) a decomposition encodes: its
    integer row, combined once when the data was built, over the
    denominator of its weights."""
    row = _class_row(data, s)
    return _from_row(data._weights[0], row)


def _class_row(data: ContractionData, s: SurfaceModel) -> tuple[int, ...]:
    """q * (-K + delta*C + sum(a_i * E_i)) for q = data._weights[0], as an
    integer row of rank s.r, else DomainError."""
    if not isinstance(data, ContractionData):
        raise DomainError(f"not a contraction data: a {type(data).__name__}")
    row = data._row
    if row is None:  # no curves: the class is -K
        row = _row_combination([(_anticanonical_row(s), data._weights[0])])
    rank = len(row) - 1
    if rank != s.r:
        raise DomainError(f"rank mismatch: {s.r} vs {rank}")
    return row


def _face_data(w, s, signs):
    """The first disjoint r-set of (-1)-curves carrying w = K + l (plane
    contraction), else the first disjoint (r-1)-set with a fiber class
    (conic bundle), as a ContractionData, or None.  By negative_curves,
    each set is the curves with w.E < 0, weighted -w.E, completed by
    disjoint curves with w.E = 0, taken in index-lex order.  The search
    runs over indexes into the line rows, on signs: the integers D * w.E,
    D = w.den, in the order of _Tables.rows, which the caller derives from
    its own product.  A conic face's fiber is fixed by the residual when
    that is nonzero; only at delta = 0 are the fibers tried in order.

    The masks test the completions against one another, not against the
    support: wherever the search is reached, w = sum(a_i E_i) + delta*C
    over the support, with C a fiber or delta = 0, so a line E with w.E = 0
    has sum(a_i E_i.E) + delta*C.E = 0, a sum of nonnegative terms with
    every a_i > 0, and misses every support line.
    """
    if _scaled_square(w, s) > 0:
        return None  # a face has w^2 = -sum(a_i^2) <= 0
    tables = _tables(s.degree)
    rows = tables.rows
    support = tuple(i for i, p in enumerate(signs) if p < 0)
    if len(support) > s.r:
        return None  # at most r (-1)-curves are pairwise disjoint
    # D * (w - sum(a_i E_i)), with a_i = -w.E_i
    resid = _row_sum(w.row, *([signs[i] * x for x in rows[i]] for i in support))
    den = w.den
    masks = tables.masks
    allowed = _zeros(signs)
    if not any(resid):
        plane = next(_disjoint_index_sets(allowed, masks, s.r - len(support)), None)
        if plane is not None:
            return _contraction(KIND_TO_P2, signs, den, support + plane, None, 0, s)
    if len(support) == s.r:
        return None  # no disjoint (r-1)-set contains them all
    fibers = tables.fibers
    if any(resid):
        # resid = D * delta * C with delta > 0 leaves one candidate: C is
        # primitive (C^2 = 0 and K.C = -2, while X^2 = K.X mod 2 for every
        # integral X), so it is resid over its gcd; when that row is no
        # fiber (a negative multiple among them, as every fiber has h > 0),
        # there is no face
        g = gcd(*resid)
        fib = tuple(x // g for x in resid)
        if fib not in fibers:
            return None
        fibers = (fib,)
    for completion in _disjoint_index_sets(allowed, masks, s.r - 1 - len(support)):
        chosen = support + completion
        curves = [rows[i] for i in chosen]
        for fib in fibers:
            if any(_row_dot(fib, x) for x in curves):
                continue
            # M = -K + sum(E_i) has an odd entry exactly over F1 (alphabound._divided)
            odd = any(x % 2 for x in _row_sum(_anticanonical_row(s), *curves))
            kind = KIND_CONIC_F1 if odd else KIND_CONIC_P1P1
            return _contraction(kind, signs, den, chosen, fib, resid[0], s)
    return None


def _contraction(kind, signs, den, chosen, fib, d, s) -> ContractionData:
    """The face of the lines of index chosen, each weighted -signs[i] / D,
    and the fiber row fib (or None) weighted delta = d / (D * fib[0]).  The
    face is sorted by decreasing weight, then by index: lines are indexed
    in sorted order.  Over Q = D * fib[0] the weights are d and
    -signs[i] * fib[0]; their least common denominator is Q / g for g the
    gcd of Q and all of them.

    The record is built without ContractionData.__init__, as
    alphabound._finish builds a Certificate, for each check __init__ would
    make holds already: each curve is an index into _Tables.lines and the
    fiber a key of _Tables.fibers; the completions are pairwise disjoint by
    the mask search, the support's lines miss one another by
    negative_curves' argument and every completion by _face_data's, and
    all miss the fiber by its test; the weights are sorted here, delta >= 0
    by the fiber test, and 0 <= a_i < 1, as a_i = 1 - mu * (L.E_i) >= 0 for
    the ample L.  Its _weights and _row are those __init__ computes from
    its fields."""
    order = tuple(sorted(chosen, key=lambda i: (signs[i], i)))
    m = 1 if fib is None else fib[0]
    q, a = den * m, [-signs[i] * m for i in order]
    g = gcd(q, d, *a)
    if g != 1:
        q, d, a = q // g, d // g, [x // g for x in a]
    tables = _tables(s.degree)
    terms = [(_anticanonical_row(s), q)]
    if fib is not None:
        terms.append((fib, d))
    terms += ((tables.rows[i], x) for i, x in zip(order, a))
    face = object.__new__(ContractionData)
    vars(face).update(
        kind=kind,
        curveE=tuple(tables.lines[i] for i in order),
        curveC=None if fib is None else tables.fibers[fib],
        _weights=(q, d, tuple(a)),
        _row=_row_combination(terms),
    )
    return face


def face_decompose(l: DivClass, s: SurfaceModel) -> ContractionData:
    """Decompose a normalized ample class along its boundary face.

    Requires degree <= 7, l ample, and mu(l) = 1 (rescale first).  Tries
    a full-rank disjoint set of exceptional curves (plane contraction),
    then a corank-one set together with a fiber class (conic bundle),
    taking the lexicographically first valid choice in each pass.  A face
    found proves mu(l) = 1.  Only when there is none is mu solved, by the
    linear program, to tell an input that is not normalized (DomainError)
    from a failed invariant.

    The face is taken in the input's marking, so where a weight is zero
    the kind of a Weyl-group image of l can flip between F1 and P1 x P1
    (the tie is broken by index order), while mu, delta, the weights and
    the certificate bound stay the same.
    """
    if s.degree > 7:
        raise DomainError("face decomposition is defined for degree at most 7")
    signs = _ample_signs(l, s)
    try:
        return _face_decompose(l, s, 1, signs)
    except InvariantError:
        if mu(l, s) != 1:
            msg = "face decomposition needs a normalized class (mu = 1)"
            raise DomainError(msg) from None
        raise


def _face_decompose(l: DivClass, s: SurfaceModel, scale, signs) -> ContractionData:
    """The face of scale * l, for an ample class l in degree at most 7
    whose packed pairings with the curve-cone generators (there the lines,
    in the order of _Tables.rows) are signs, and a rational scale > 0.  It
    also certifies mu(scale * l) = 1: the face is found and checked, or
    InvariantError is raised.  So a caller that scaled l by a mu it did not
    solve for (stability._upper_bound, by _chamber_mu) gets that mu proved
    here.  Every test runs on integer rows: with scale = p / q and
    l = row / D, w = K + scale * l is (p * row + q * D * K) / (q * D), which
    pairs to p * P_E - q * D with a line E of pairing P_E in signs."""
    p, q = scale.numerator, scale.denominator
    den = q * l.den
    w = _from_row(den, _row_combination([(l.row, p), (_anticanonical_row(s), -den)]))
    g = den // w.den  # w's row is that over den divided by g
    face = _face_data(w, s, [(p * x - den) // g for x in signs])
    if face is None:
        raise InvariantError(f"no boundary-face decomposition found for {scale * l}")
    # w = K + scale*l is effective by the decomposition, so mu(scale*l) <= 1;
    # a nef class D with D.w = 0 and D.l > 0 is negative on K + x*scale*l
    # for x < 1, so mu(scale*l) = 1.  D is the fiber, or -K + sum(E_i) =
    # 3 * (line) for a plane.
    if face.curveC is None:
        dual = _row_sum(_anticanonical_row(s), *(e.row for e in face.curveE))
    else:
        dual = face.curveC.row
    if not is_nef(_from_row(1, dual), s) or _row_dot(dual, w.row) or _row_dot(dual, l.row) <= 0:
        raise InvariantError("face decomposition has no nef class dual to its face")
    # the face's row / face_den equals p * row / den, cross-multiplied
    face_den = face._weights[0]
    if any(x * den != p * y * face_den for x, y in zip(face._row, l.row)):
        raise InvariantError("face decomposition failed the reconstruction check")
    return face
