"""The ten records behave as the frozen dataclasses they replace.  How the
public records read their rational arguments is checked with every other
public entry, in tests/test_stability.py."""

import inspect
import pickle
from dataclasses import FrozenInstanceError, field, make_dataclass
from fractions import Fraction as F
from unittest.mock import ANY

import pytest

from kstab.alphabound import Certificate, _finish
from kstab.appendix import AppendixInput, GridReport
from kstab.cones import KIND_TO_P2, ContractionData
from kstab.lattice import DivClass, SurfaceModel, basis_exceptional, div
from kstab.ratlp import Infeasible, LinearProgram, Optimal
from kstab.stability import Verdict

_S5 = SurfaceModel(5)
_E = tuple(basis_exceptional(_S5, i) for i in range(1, 5))
_A = (F(1, 2), F(1, 3), F(1, 4), F(1, 5), 0)
_DIVISOR = ((_E[0], F(1, 2)), (_E[1], F(1, 4)))


def _twin(cls, fields, **options):
    """A frozen dataclass with cls's name and the given fields, declared as
    the dataclass cls was; cls's own methods fill in what it wrote itself."""
    namespace = {name: vars(cls)[name] for name in options.pop("borrow", ())}
    return make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True, **options)


# record type -> (its dataclass twin, arguments of two unequal records)
_CASES = {
    SurfaceModel: (_twin(SurfaceModel, [("degree", "int")]), [(5,), (6,)]),
    DivClass: (
        _twin(
            DivClass,
            [("den", "int"), ("row", "tuple[int, ...]")],
            init=False,
            slots=True,
            borrow=("__init__",),
        ),
        [(F(1, 2), (F(1, 3), 1)), (F(1, 2), (F(1, 3), 2))],
    ),
    LinearProgram: (
        _twin(LinearProgram, [("objective", "tuple"), ("lhs", "tuple"), ("rhs", "tuple")]),
        [((1, 2), ((1, 1),), (3,)), ((1, 2), ((1, 1),), (4,))],
    ),
    Optimal: (
        _twin(Optimal, [("value", "Fraction"), ("point", "tuple")]),
        [(F(1, 2), (F(1), F(0))), (F(1, 3), (F(1), F(0)))],
    ),
    Infeasible: (_twin(Infeasible, []), [(), None]),
    ContractionData: (
        _twin(
            ContractionData,
            [
                ("kind", "str"),
                ("curveE", "tuple"),
                ("curveC", "DivClass | None"),
                ("_weights", "tuple"),
                ("_row", "tuple | None", field(compare=False)),
            ],
            init=False,
            repr=False,
            borrow=("__init__", "__repr__", "delta", "a"),
        ),
        [
            (KIND_TO_P2, F(0), (F(1, 2), F(1, 3), F(1, 6)), _E[:3], None),
            (KIND_TO_P2, F(0), (F(1, 2), F(1, 3), F(1, 7)), _E[:3], None),
        ],
    ),
    Certificate: (
        _twin(Certificate, [("divisor", "tuple"), ("witness_index", "int"), ("bound", "Rational")]),
        [(_DIVISOR, 0, F(2)), (_DIVISOR[:1], 0, F(2))],
    ),
    AppendixInput: (
        _twin(
            AppendixInput,
            [("a", "tuple"), ("delta", "Rational")],
            init=False,
            borrow=("__init__", "a", "delta"),
        ),
        [(_A, F(1, 7)), (_A, F(1, 8))],
    ),
    GridReport: (
        _twin(
            GridReport,
            [
                ("max_denominator", "int"),
                ("delta_max", "Rational"),
                ("total", "int"),
                ("failures", "tuple"),
                ("equality_points", "tuple"),
            ],
        ),
        [(8, F(1), 10, (), (AppendixInput(_A, F(0)),)), (8, F(1), 10, (), ())],
    ),
    Verdict: (
        _twin(
            Verdict,
            [
                ("status", "str"),
                ("condition_a", "bool"),
                ("nu", "Rational"),
                ("alpha_lower", "Rational | None"),
                ("certificate", "Certificate | None"),
                ("notes", "str"),
            ],
        ),
        [("Unknown", True, F(3, 2), None, None, "n"), ("Unknown", False, F(3, 2), None, None, "n")],
    ),
}


def _parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def _frozen_errors(x):
    """The type and message of the error on assigning and on deleting the
    first field, or an attribute named "x" when there is none."""
    name = (x.__match_args__ or ("x",))[0]
    found = []
    for act in (lambda: setattr(x, name, 0), lambda: delattr(x, name)):
        with pytest.raises(Exception) as info:
            act()
        found.append((info.type, str(info.value)))
    return found


@pytest.mark.parametrize("cls", list(_CASES), ids=lambda c: c.__name__)
def test_records_match_their_dataclass_twins(cls):
    twin, (args, other_args) = _CASES[cls]
    x, y = cls(*args), cls(*args)
    t, u = twin(*args), twin(*args)
    assert repr(x) == repr(t)
    # a foreign type decides: ANY equals everything, a twin nothing else
    same = (x == y, x != y, x == object(), x != 1, x == ANY, x == t)
    assert same == (t == u, t != u, t == object(), t != 1, t == ANY, False)
    assert hash(x) == hash(y) == hash(t)
    if other_args is not None:
        z, v = cls(*other_args), twin(*other_args)
        assert (x == z, x != z, repr(z)) == (t == v, t != v, repr(v)) == (False, True, repr(v))
    assert _parameters(cls) == _parameters(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert _frozen_errors(x) == _frozen_errors(t)
    assert _frozen_errors(x)[0][0] is FrozenInstanceError
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is cls and back == x and repr(back) == repr(x) and hash(back) == hash(x)
    if hasattr(x, "__dict__"):
        assert vars(back) == vars(x)  # the private fields too


@pytest.mark.parametrize("cls, private", [(ContractionData, "_row")])
def test_private_fields_stay_out_of_equality_hash_and_repr(cls, private):
    args = _CASES[cls][1][0]
    x, y = cls(*args), cls(*args)
    vars(y)[private] = None
    assert (x == y, hash(x) == hash(y), repr(x) == repr(y)) == (True, True, True)
    assert private not in repr(x)


_S7 = SurfaceModel(7)
_LINE7, _E71, _E72 = div(1, [-1, -1]), basis_exceptional(_S7, 1), basis_exceptional(_S7, 2)


@pytest.mark.parametrize(
    "parts, one, l_den, divisor, bound",
    [
        # -K = 3(H - E1 - E2) + 2E1 + 2E2, each n over one = 2
        (
            [(_LINE7, 6), (_E71, 4), (_E72, 4)], 2, 1,
            ((_LINE7, F(3)), (_E71, F(2)), (_E72, F(2))), F(1, 3),
        ),
        # (3/2)(H - E1 - E2) + E1 + E2/2, each n over one = 4
        (
            [(_LINE7, 6), (_E71, 4), (_E72, 2)], 4, 2,
            ((_LINE7, F(3, 2)), (_E71, 1), (_E72, F(1, 2))), F(2, 3),
        ),
    ],
)
def test_an_integer_certificate_equals_the_public_one(parts, one, l_den, divisor, bound):
    # _finish keeps (class, n) terms over one denominator in lowest terms:
    # every n here is even, so it divides them and one by 2, and the record
    # holds the ints the public constructor reads off the same rationals
    l_row = tuple(sum(n * c.row[i] for c, n in parts) * l_den // one for i in range(3))
    built = _finish([(c.row, n) for c, n in parts], one, l_row, l_den, 7)
    public = Certificate(divisor, 0, bound)
    assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    assert vars(built) == vars(public)
    assert built._den == one // 2
    assert (built.divisor, built.bound) == (divisor, bound)
