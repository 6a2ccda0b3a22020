import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from kstab import appendix, cli
from kstab.alphabound import Certificate
from kstab.cones import _ample_signs
from kstab.errors import DomainError, InvariantError
from kstab.lattice import (
    SurfaceModel,
    anticanonical,
    basis_exceptional,
    basis_line,
    div,
    rational_str,
)
from kstab.stability import (
    STATUS_INAPPLICABLE,
    STATUS_MAIN,
    STATUS_SIX_LINE,
    STATUS_UNKNOWN,
    STATUS_UNSUPPORTED,
    Verdict,
    _upper_bound,
    verdict,
)

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import (  # noqa: E402
    _FAREY6,
    _P1P1_CURVES,
    _conic_section,
    _nonincreasing_tuples,
)

F = Fraction

MINUS_K_D2 = '{"degree": 2, "L": {"h": "3", "e": ["1", "1", "1", "1", "1", "1", "1"]}}'


def _sum_exceptional(s):
    total = anticanonical(s) - anticanonical(s)
    for i in range(1, s.r + 1):
        total = total + basis_exceptional(s, i)
    return total


def test_parse_explicit_multiplicity_convention():
    s, l = cli.parse_input(MINUS_K_D2)
    assert s == SurfaceModel(2)
    assert l == anticanonical(s)


def test_parse_six_line_family():
    s, l = cli.parse_input({"degree": 3, "family": "six-line", "x": "1/10"})
    assert l == anticanonical(s) + F(1, 10) * _sum_exceptional(s)


def test_parse_anticanonical_plus():
    s, l = cli.parse_input(
        {
            "degree": 4,
            "family": "anticanonical-plus",
            "delta": "0",
            "a": ["1/2", "1/3", "0", "0", "0"],
        }
    )
    expect = (
        anticanonical(s)
        + F(1, 2) * basis_exceptional(s, 1)
        + F(1, 3) * basis_exceptional(s, 2)
    )
    assert l == expect
    s, l = cli.parse_input(
        {"degree": 7, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/3"]}
    )
    fiber = basis_line(s) - basis_exceptional(s, 2)
    assert l == anticanonical(s) + F(1, 2) * fiber + F(1, 3) * basis_exceptional(s, 1)


def test_parse_rejections():
    cases = [
        "not json",
        "[1, 2]",
        '{"L": {"h": "1", "e": []}}',
        '{"degree": 0, "L": {"h": "1", "e": []}}',
        '{"degree": "3", "family": "six-line", "x": "1/10"}',
        '{"degree": 9, "L": {"h": "1", "e": []}}',
        '{"degree": 2, "L": {"h": "3", "e": ["1", "1"]}}',
        '{"degree": 2, "L": {"h": "3/0", "e": ["1", "1", "1", "1", "1", "1", "1"]}}',
        '{"degree": 2, "L": {"h": 3.0, "e": ["1", "1", "1", "1", "1", "1", "1"]}}',
        '{"degree": 2, "L": {"h": "3"}}',
        '{"degree": 2}',
        '{"degree": 4, "family": "six-line", "x": "1/10"}',
        '{"degree": 3, "family": "six-line", "x": "1/10", "extra": 1}',
        '{"degree": 3, "family": "mystery"}',
        '{"degree": 7, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/3", "0"]}',
        '{"degree": 7, "family": "anticanonical-plus", "delta": "-1", "a": []}',
    ]
    for case in cases:
        with pytest.raises(DomainError):
            cli.parse_input(case)
    # parse_input only parses; the computation refuses a class that is not ample
    with pytest.raises(DomainError, match="class is not ample"):
        verdict(*cli.parse_input('{"degree": 3, "family": "six-line", "x": "1"}'))


def test_parse_reports_ample_violation():
    with pytest.raises(DomainError) as err:
        doc = '{"degree": 3, "L": {"h": "1", "e": ["0", "0", "0", "0", "0", "0"]}}'
        verdict(*cli.parse_input(doc))
    assert "not ample" in str(err.value)


def test_render_text_names_criterion():
    s, l = cli.parse_input(MINUS_K_D2)
    text = cli.render_report(verdict(s, l), "text")
    assert "status: KStableByMainTheorem" in text
    assert "low-degree nef-residual criterion" in text
    assert "alpha lower bound: 18/17" in text
    with pytest.raises(DomainError):
        cli.render_report(verdict(s, l), "yaml")


def test_render_json_certificate_serialization():
    doc = {"degree": 4, "family": "anticanonical-plus", "delta": "0", "a": []}
    s, l = cli.parse_input(doc)
    payload = json.loads(cli.render_report(verdict(s, l), "json", echo=cli._echo(s, l)))
    assert payload["status"] == "DervanInapplicable"
    assert payload["nu"] == "1"
    assert payload["certificate"]["bound"] == "2/3"
    coeffs = {
        tuple([item["class"]["h"]] + item["class"]["e"]): item["coefficient"]
        for item in payload["certificate"]["divisor"]
    }
    # multiplicity notation: E_1 renders with a -1 entry, the conic with +1s
    assert coeffs[("0", "-1", "0", "0", "0", "0")] == "3/2"
    assert coeffs[("2", "1", "1", "1", "1", "1")] == "1/2"
    assert payload["input"] == {"degree": 4, "L": {"h": "3", "e": ["1"] * 5}}


def test_round_trip_reproduces_verdict():
    docs = [
        MINUS_K_D2,
        '{"degree": 3, "family": "six-line", "x": "1/10"}',
        '{"degree": 6, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/3"]}',
    ]
    for doc in docs:
        s, l = cli.parse_input(doc)
        first = cli.render_report(verdict(s, l), "json", echo=cli._echo(s, l))
        echoed = json.loads(first)["input"]
        s2, l2 = cli.parse_input(echoed)
        assert (s2, l2) == (s, l)
        second = cli.render_report(verdict(s2, l2), "json", echo=cli._echo(s2, l2))
        assert second == first


def test_main_check(capsys):
    code = cli.main(["check", "--L", MINUS_K_D2])
    out = capsys.readouterr().out
    assert code == 0
    assert "KStableByMainTheorem" in out


def test_main_check_json_deterministic(capsys):
    argv = ["check", "--json", "--L", '{"degree": 3, "family": "six-line", "x": "1/10"}']
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["status"] == "KStableBySixLineTheorem"
    assert payload["alpha_lower"] == "20/33"


def test_main_degree_flag_combination(capsys):
    code = cli.main(
        ["mu", "--degree", "5", "--L", '{"h": "3", "e": ["1", "1", "1", "1"]}']
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"
    code = cli.main(["mu", "--degree", "4", "--L", MINUS_K_D2])
    assert code == 1
    assert "conflicts" in capsys.readouterr().err


def test_main_file_input(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(MINUS_K_D2, encoding="utf-8")
    assert cli.main(["check", "--L", str(path)]) == 0
    assert "KStableByMainTheorem" in capsys.readouterr().out
    assert cli.main(["check", "--L", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_main_rejects_undecodable_file(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"degree": 8, "L": "\xff"}')
    assert cli.main(["check", "--L", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def test_main_rejects_a_file_over_the_cap(tmp_path, capsys):
    # a valid document padded to the cap is read; one character more is not
    path = tmp_path / "input.json"
    path.write_text(MINUS_K_D2.ljust(cli.MAX_INPUT_CHARS), encoding="utf-8")
    assert cli.main(["check", "--L", str(path)]) == 0
    assert "KStableByMainTheorem" in capsys.readouterr().out
    path.write_text(MINUS_K_D2.ljust(cli.MAX_INPUT_CHARS + 1), encoding="utf-8")
    assert cli.main(["check", "--L", str(path)]) == 1
    expect = f"error: cannot read {path}: it has over {cli.MAX_INPUT_CHARS} characters\n"
    assert capsys.readouterr() == ("", expect)


def test_deeply_nested_json_is_rejected(capsys):
    doc = '{"degree": ' + "[" * 50000
    assert cli.main(["check", "--L", doc]) == 1
    assert capsys.readouterr().err.startswith("error: input is not valid JSON")
    with pytest.raises(DomainError, match="nested too deeply"):
        cli.parse_input(doc)


def test_main_input_error_exit_code(capsys):
    code = cli.main(["check", "--L", '{"degree": 1, "L": {"h": "0", "e": ["0"] * 8}}'])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = cli.main(["check"])
    assert code == 1
    assert "--L is required" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
@pytest.mark.parametrize("command", ["check", "mu"])
def test_main_rejects_huge_rationals(command, value, capsys):
    # each would build a number of more than 4300 digits, which the echo
    # of the parsed class cannot print
    doc = json.dumps({"degree": 8, "L": {"h": value, "e": ["1"]}})
    assert cli.main([command, "--json", "--L", doc]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rational has more than")


def test_main_rejects_huge_json_integers(capsys):
    doc = '{"degree": 8, "L": {"h": 1%s, "e": [1]}}' % ("0" * 5000)
    assert cli.main(["check", "--L", doc]) == 1
    assert capsys.readouterr().err.startswith("error: input is not valid JSON")


def test_main_invariant_error_exit_code(monkeypatch, capsys):
    def boom(*args):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "verdict", boom)
    code = cli.main(["check", "--L", MINUS_K_D2])
    assert code == 2
    assert "internal invariant" in capsys.readouterr().err


def test_main_curves(capsys):
    assert cli.main(["curves", "--degree", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 27
    assert out[0] == "(0; -1, 0, 0, 0, 0, 0)"
    assert cli.main(["curves", "--degree", "6", "--fibers", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3
    assert payload["kind"] == "fiber"
    assert cli.main(["curves"]) == 1
    capsys.readouterr()


def test_main_alpha_bound(capsys):
    doc = '{"degree": 5, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/2", "1/3"]}'
    assert cli.main(["alpha-bound", "--json", "--L", doc]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == "1"
    assert payload["kind"] == "ConicBundleF1"
    assert payload["delta"] == "1/2"
    assert payload["certificate"]["bound"] == "1/3"
    assert payload["bound_for_input"] == "1/3"
    assert payload["strict"] is True
    assert cli.main(["alpha-bound", "--L", MINUS_K_D2]) == 1
    assert "degrees 4 to 7" in capsys.readouterr().err


def test_alpha_bound_tests_ampleness_once(monkeypatch, capsys):
    # parse_input only parses; kstab check, alpha-bound and mu, and a
    # library verdict(*parse_input(doc)), each test the class once, in
    # cones._ample_signs, which pairs it with the curve-cone table in the
    # one packed product; ample_violation runs only to word a rejection
    from kstab import cones, curves, stability
    from kstab.curves import _tables

    gates, products = [], []

    def wrap(record, original):
        def wrapper(*args):
            record.append(args)
            return original(*args)

        return wrapper

    for name, record in (("_ample_signs", gates), ("ample_violation", gates)):
        wrapper = wrap(record, getattr(cones, name))
        for module in (cli, cones, stability):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    wrapper = wrap(products, curves._table_pairings)
    for module in (cones, curves, stability):
        if hasattr(module, "_table_pairings"):
            monkeypatch.setattr(module, "_table_pairings", wrapper)
    docs = [
        '{"degree": 4, "family": "anticanonical-plus", "delta": "0", "a": ["1/2", "1/3"]}',
        '{"degree": 5, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/2", "1/3"]}',
        '{"degree": 6, "L": {"h": "6", "e": ["2", "2", "1"]}}',
        '{"degree": 7, "L": {"h": "7/2", "e": ["1", "1/2"]}}',
    ]
    requests = [(command, doc) for doc in docs for command in ("alpha-bound", "check", "mu", None)]
    # check and mu in the degrees alpha-bound does not take
    for doc in (
        MINUS_K_D2,
        '{"degree": 3, "family": "six-line", "x": "1/20"}',
        '{"degree": 8, "L": {"h": "3", "e": ["1"]}}',
    ):
        requests += [("check", doc), ("mu", doc), (None, doc)]
    for command, doc in requests:
        s, l = cli.parse_input(doc)
        cone_table = _tables(s.degree).cone_table
        gates.clear()
        products.clear()
        if command is None:
            verdict(*cli.parse_input(doc))
        else:
            assert cli.main([command, "--json", "--L", doc]) == 0
            assert "input" in json.loads(capsys.readouterr().out)
        assert gates == [(l, s)], command
        pairs = [w for w, table, _ in products if table is cone_table and w == l]
        assert len(pairs) == 1, command


def test_only_mu_requests_solve_an_integer_program(monkeypatch, capsys):
    # check and alpha-bound take mu from the Weyl chamber and certify it by
    # the face, so they solve no program; kstab mu solves one, on int rows
    from kstab import cones, ratlp

    programs = []
    original = ratlp.solve

    def recorded(prog):
        programs.append(prog)
        return original(prog)

    for module in (cones, ratlp):
        monkeypatch.setattr(module, "solve", recorded)
    requests = []
    for d in range(1, 9):
        s = SurfaceModel(d)
        fiber = basis_line(s) - basis_exceptional(s, s.r)
        classes = (
            F(5, 3) * (anticanonical(s) + F(1, 4) * basis_exceptional(s, 1)),
            F(2, 7) * (anticanonical(s) + F(1, 2) * fiber),
        )
        commands = ("check", "alpha-bound", "mu") if 4 <= d <= 7 else ("check", "mu")
        for l in classes:
            doc = json.dumps({"degree": d, "L": cli._class_to_json(l)})
            requests += [(command, doc) for command in commands]
    for command, doc in requests:
        programs.clear()
        assert cli.main([command, "--json", "--L", doc]) == 0
        capsys.readouterr()
        assert len(programs) == (command == "mu"), (command, doc)
        for prog in programs:
            entries = [*prog.objective, *prog.rhs, *(a for row in prog.lhs for a in row)]
            assert all(type(a) is int for a in entries), (command, doc)


@pytest.mark.parametrize("factor", [F(6, 7), F(8, 7)])
def test_a_wrong_chamber_mu_is_an_internal_error(monkeypatch, capsys, factor):
    # the face of K + mu*L certifies mu: scaled by too little, K + mu*L is
    # not effective, and by too much it has no face, so neither command may
    # print a report (exit 0) or blame the input (exit 1)
    from kstab import cones, stability

    monkeypatch.setattr(
        stability, "_chamber_mu", lambda l, s: factor * cones._chamber_mu(l, s)
    )
    for d in range(4, 8):
        s = SurfaceModel(d)
        fiber = basis_line(s) - basis_exceptional(s, s.r)
        for l in (
            anticanonical(s),
            F(5, 3) * (anticanonical(s) + F(1, 4) * basis_exceptional(s, 1)),
            F(2, 7) * (anticanonical(s) + F(1, 2) * fiber),
        ):
            doc = json.dumps({"degree": d, "L": cli._class_to_json(l)})
            for command in ("check", "alpha-bound"):
                assert cli.main([command, "--L", doc]) == 2, (command, doc)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("internal invariant violated: "), captured.err


def _family_by_sums(doc, s):
    # the family classes as sums of DivClass terms, one basis curve at a time
    if doc["family"] == "six-line":
        l = anticanonical(s)
        for i in range(1, s.r + 1):
            l = l + F(doc["x"]) * basis_exceptional(s, i)
        return l
    l = anticanonical(s) + F(doc["delta"]) * (basis_line(s) - basis_exceptional(s, s.r))
    for i, raw in enumerate(doc["a"], start=1):
        l = l + F(raw) * basis_exceptional(s, i)
    return l


def test_family_rows_match_the_class_sums():
    rng = random.Random(48)

    def weight(lo=-5):
        return str(F(rng.randint(lo, 30), rng.choice([1, 2, 3, 4, 6, 7, 10, 12, 35])))

    docs = []
    for _ in range(60):
        docs.append({"degree": 3, "family": "six-line", "x": weight()})
    for d in range(3, 8):
        r = 9 - d
        for _ in range(60):
            delta = rng.choice(["0", weight(0)])
            cap = r - 1 if F(delta) > 0 else r
            a = [weight() for _ in range(rng.randint(0, cap))]
            docs.append({"degree": d, "family": "anticanonical-plus", "delta": delta, "a": a})
    dens = set()
    for doc in docs:
        s = SurfaceModel(doc["degree"])
        l = cli._expand_family(doc, s)
        expected = _family_by_sums(doc, s)
        assert (l.den, l.row) == (expected.den, expected.row), doc
        dens.add(l.den)
    assert len(dens) >= 20


def test_main_example_cubic(capsys):
    assert cli.main(["example-cubic", "--x", "1/2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "x": "1/2",
        "nu": "14/15",
        "condition_a": True,
        "alpha_upper": "3/5",
        "in_window": True,
    }
    assert cli.main(["example-cubic", "--x", "2"]) == 1
    capsys.readouterr()
    assert cli.main(["example-cubic"]) == 1
    capsys.readouterr()


def test_main_verify_appendix(capsys):
    assert cli.main(["verify-appendix", "--max-denominator", "2"]) == 0
    out = capsys.readouterr().out
    assert "counterexamples: 0" in out
    assert "a = (0, 0, 0, 0, 0), delta = 0" in out
    assert cli.main(["verify-appendix", "--max-denominator", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 63
    assert payload["failures"] == []
    assert payload["equality_points"] == [{"a": ["0"] * 5, "delta": "0"}]


def test_verify_appendix_refuses_grids_over_the_cap(capsys, monkeypatch):
    # the point count is checked before the scan; delta_max = 1e50 alone
    # would never finish
    def scan(*args):
        pytest.fail("the grid scan started")

    monkeypatch.setattr(appendix, "_sides", scan)
    cap = f"error: the grid would have more than {appendix.MAX_GRID_POINTS} points\n"
    for extra in (["--max-denominator", "2", "--delta-max", "1e50"], ["--max-denominator", "1000000"]):
        assert cli.main(["verify-appendix", *extra]) == 1
        assert capsys.readouterr() == ("", cap)


def test_json_booleans_are_rejected(capsys):
    cases = [
        '{"degree": true, "L": {"h": "3", "e": ["1", "1", "1", "1", "1", "1", "1", "1"]}}',
        '{"degree": 7, "L": {"h": "3", "e": [true, "1"]}}',
        '{"degree": 7, "L": {"h": true, "e": ["0", "0"]}}',
        '{"degree": 3, "family": "six-line", "x": false}',
    ]
    for case in cases:
        with pytest.raises(DomainError):
            cli.parse_input(case)
        assert cli.main(["check", "--json", "--L", case]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    # SurfaceModel rejects the bool degree with the message parse_input gave
    assert cli.main(["check", "--L", cases[0]]) == 1
    assert capsys.readouterr() == ("", "error: degree must be an integer in 1..8, got True\n")
    # integers stay accepted
    s, l = cli.parse_input('{"degree": 7, "L": {"h": 3, "e": [1, 1]}}')
    assert (s, l) == (SurfaceModel(7), anticanonical(SurfaceModel(7)))


def test_closed_stdout_exits_quietly():
    # the reader is gone before any output arrives, as with `| head -c 0`;
    # the q = 12 appendix grid (about 0.15 s after start-up on a shared
    # two-core host) takes long enough that the close always comes first
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "kstab.cli", "verify-appendix", "--max-denominator", "12", "--json"]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == ""


# sha256 of every (command, document, stdout, stderr, exit code) below, as
# produced before the shared upper-bound pass and the standard-form simplex
_CLI_DIGEST = "688a9e18070bc3dd0c70cd67bca0d7caefdda7002fe9bb0b15941e5858bcb816"


def _grid_classes():
    # the acceptance-5 grid classes -K + delta*C + sum(a_i * E_i), in the
    # order of _grid_contractions, without building its ContractionData
    for degree in (4, 5, 6, 7):
        s = SurfaceModel(degree)
        basis = [basis_exceptional(s, i) for i in range(1, s.r + 1)]
        for a in _nonincreasing_tuples(s.r):
            yield s, F(0), None, a, basis
        p1p1_es, p1p1_c = _P1P1_CURVES[degree]
        for delta in _FAREY6:
            for a in _nonincreasing_tuples(s.r - 1):
                yield s, delta, _conic_section(s), a, basis[:-1]
                yield s, delta, p1p1_c, a, p1p1_es


def _digest_documents():
    # every 97th acceptance-5 grid class at scales 1 and 7/3, then every
    # 8th acceptance-4 six-line value (x = 1 is not ample)
    for index, (s, delta, fiber, a, curves) in enumerate(_grid_classes()):
        if index % 97 == 0:
            l = anticanonical(s)
            if fiber is not None:
                l = l + delta * fiber
            for x, c in zip(a, curves):
                l = l + x * c
            for scale in (F(1), F(7, 3)):
                L = cli._class_to_json(scale * l)
                yield json.dumps({"degree": s.degree, "L": L})
    for k in range(0, 121, 8):
        yield json.dumps({"degree": 3, "family": "six-line", "x": f"{k}/120"})


def test_cli_output_digest():
    digest = hashlib.sha256()
    count = 0
    for doc in _digest_documents():
        for command in ("check", "alpha-bound", "mu"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command, "--json", "--L", doc])
            for part in (command, doc, out.getvalue(), err.getvalue(), str(code)):
                digest.update(part.encode() + b"\0")
            count += 1
    assert count == 3 * (2 * 552 + 16)
    assert digest.hexdigest() == _CLI_DIGEST


def _fraction_builders(call):
    """(call(), names): the (module, function) behind each Fraction built
    during call(), taken as the first named function outside the fractions
    module, so Fraction arithmetic and comprehensions count as well."""
    new = Fraction.__new__.__code__
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            caller = frame.f_back
            while caller.f_code.co_filename == new.co_filename or caller.f_code.co_name[0] == "<":
                caller = caller.f_back
            names.append((caller.f_globals.get("__name__"), caller.f_code.co_name))

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, names


def test_a_middle_degree_check_builds_fractions_only_for_its_output():
    # a degree 4-7 check works on the face's integer record; it builds a
    # Fraction only for mu (the scale in the notes) and nu.  The
    # certificate keeps its coefficients as ints, and _finish, the notes
    # and the report read them; the degree-4 appendix cross-check takes the
    # face's integer weights.  None of them builds a Fraction.
    args = cli._build_parser().parse_args(["check", "--json"])
    docs = [doc for doc in _digest_documents() if json.loads(doc)["degree"] != 3][::2]
    kinds = set()
    for doc in docs:
        s, l = cli.parse_input(doc)
        face = _upper_bound(s, l, _ample_signs(l, s))[1]
        kinds.add((s.degree, face.kind))
        args.L = doc
        out, names = _fraction_builders(lambda: args.run(args))
        assert json.loads(out)["certificate"]["divisor"]
        expected = {("kstab.cones", "_chamber_mu"): 1, ("kstab.stability", "verdict"): 1}
        assert {name: names.count(name) for name in set(names)} == expected, doc
    assert len(kinds) == 12


def _low_degree_documents():
    # -K and seeded classes in degrees 1 and 2, with condition A true and
    # false, and -K, the six-line family and generic classes in degree 3
    rng = random.Random(89)
    for d in (1, 2, 3):
        s = SurfaceModel(d)
        yield json.dumps({"degree": d, "L": cli._class_to_json(anticanonical(s))})
        for trial in range(8):
            cap = F(1, 16) if trial % 2 else F(1, 2)
            l = anticanonical(s)
            for i in range(1, s.r + 1):
                l = l + F(rng.randrange(0, 8), 8) * cap * basis_exceptional(s, i)
            yield json.dumps({"degree": d, "L": cli._class_to_json(F(rng.randint(1, 7), 3) * l)})
    for k in (1, 6, 12, 13, 40, 119):
        yield json.dumps({"degree": 3, "family": "six-line", "x": f"{k}/120"})


def test_a_low_degree_check_builds_fractions_only_for_its_output():
    # a degree 1-3 check reads epsilon, gamma and the six-line parameter off
    # the ints of its one packed product; it builds a Fraction only for an
    # output field: nu and alpha_lower in verdict, and the six-line
    # parameter x of the notes, which _six_line_parameter returns as its
    # contract says.  Parsing and lattice arithmetic build none.
    args = cli._build_parser().parse_args(["check", "--json"])
    statuses = set()
    for doc in _low_degree_documents():
        args.L = doc
        out, names = _fraction_builders(lambda: args.run(args))
        report = json.loads(out)
        statuses.add((json.loads(doc)["degree"], report["status"]))
        expected = {("kstab.stability", "verdict"): 1 + (report["alpha_lower"] is not None)}
        if "six-line family parameter" in report["notes"]:
            expected[("kstab.stability", "_six_line_parameter")] = 1
        assert {name: names.count(name) for name in set(names)} == expected, doc
    assert statuses == {
        (1, "KStableByMainTheorem"),
        (1, "Unknown"),
        (2, "KStableByMainTheorem"),
        (2, "Unknown"),
        (3, "KStableBySixLineTheorem"),
        (3, "Unknown"),
    }


# The report builders as kstab.cli had them before it wrote the JSON reports
# into a fixed skeleton from encoded fragments: nested dicts over the
# certificate's Fraction fields, encoded by one json.dumps call, and the
# text lines.  Kept as the oracle of the assembled reports.


def _old_dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _old_certificate(cert):
    return {
        "divisor": [
            {"class": cli._class_to_json(cls), "coefficient": rational_str(coeff)}
            for cls, coeff in cert.divisor
        ],
        "witness_index": cert.witness_index,
        "bound": rational_str(cert.bound),
    }


def _old_certificate_lines(cert):
    return [f"  {rational_str(coeff)} x {cli._fmt_class(cls)}" for cls, coeff in cert.divisor]


def _old_report(v, echo=None):
    payload = {
        "status": v.status,
        "condition_a": v.condition_a,
        "nu": rational_str(v.nu),
        "alpha_lower": None if v.alpha_lower is None else rational_str(v.alpha_lower),
        "certificate": None if v.certificate is None else _old_certificate(v.certificate),
        "notes": v.notes,
    }
    if echo is not None:
        payload["input"] = echo
    return _old_dumps(payload)


def _old_text_certificate(v):
    if v.certificate is None:
        return []
    bound = f"alpha upper bound certificate: {rational_str(v.certificate.bound)}"
    return [bound] + _old_certificate_lines(v.certificate)


def _old_alpha_bound(doc, as_json):
    s, l = cli.parse_input(doc)
    scale, cd, cert, comparison = _upper_bound(s, l, _ample_signs(l, s))
    if as_json:
        return _old_dumps(
            {
                "input": cli._echo(s, l),
                "mu": rational_str(scale),
                "kind": cd.kind,
                "delta": rational_str(cd.delta),
                "a": [rational_str(x) for x in cd.a],
                "certificate": _old_certificate(cert),
                "bound_for_input": rational_str(scale * cert.bound),
                "strict": comparison["strict"],
                "equality": comparison["equality"],
            }
        )
    lines = [
        f"normalization mu: {rational_str(scale)}",
        f"contraction kind: {cd.kind}",
        f"delta: {rational_str(cd.delta)}",
        f"a: ({', '.join(rational_str(x) for x in cd.a)})",
        f"alpha upper bound (normalized class): {rational_str(cert.bound)}",
        f"alpha upper bound (input class): {rational_str(scale * cert.bound)}",
        f"strictly below two thirds of the slope: {'yes' if comparison['strict'] else 'no'}",
    ]
    return "\n".join(lines + _old_certificate_lines(cert))


def _assert_renders_as_before(v, echo=None):
    assert cli.render_report(v, "json") == _old_report(v)
    assert cli.render_report(v, "json", echo=echo) == _old_report(v, echo)
    text = cli.render_report(v, "text").split("\n")
    certificate_at = 5 if v.status in cli._CRITERION_NAMES else 4
    assert text[certificate_at:-1] == _old_text_certificate(v)


def _public_certificates():
    # public certificates over classes outside the line table: a degree-6
    # class that is no curve, -K / 2 with den 2, two classes of rank 9 (no
    # degree; a certificate's components share one rank), then curves
    # whose coefficients reduce one by one (den 6 holds 1/2, 1/3 and 1)
    # and a bound whose ratio reduces
    s6 = SurfaceModel(6)
    e = [basis_exceptional(s6, i) for i in (1, 2, 3)]
    no_curve = div(1, [-1, -1, -1])
    half = F(1, 2) * anticanonical(s6)
    rank9 = div(3, [-1] * 9)
    return [
        Certificate(((no_curve, F(3)), (e[0], F(2)), (e[1], F(2))), 0, F(1, 3)),
        Certificate(((half, F(2)),), 0, F(1, 2)),
        Certificate(((rank9, 1), (div(0, [1] + [0] * 8), F(1, 2))), 0, 1),
        Certificate(((e[0], F(1, 2)), (e[1], F(1, 3)), (e[2], 1)), 2, 1),
        Certificate(((e[0], F(4, 6)), (e[1], F(2, 6))), 0, F(3, 2)),
    ]


def _verdict_cases():
    # every status with alpha_lower null and set, condition_a true and
    # false, with and without a certificate, and notes that need escaping
    certs = [None, *_public_certificates()]
    for i, status in enumerate(
        [STATUS_MAIN, STATUS_SIX_LINE, STATUS_INAPPLICABLE, STATUS_UNSUPPORTED, STATUS_UNKNOWN]
    ):
        for alpha in (None, F(18, 17), F(2)):
            for cond in (True, False):
                for j, cert in enumerate(certs):
                    notes = ["plain", 'a "quoted" note\\', "tab\tand é"][(i + j) % 3]
                    yield Verdict(status, cond, F(3, 2) + i, alpha, cert, notes)


def test_assembled_reports_match_the_nested_dict_oracle():
    seen = set()
    for v in _verdict_cases():
        _assert_renders_as_before(v, echo={"degree": 6, "L": {"h": "3", "e": ["1"] * 3}})
        seen.add((v.status, v.alpha_lower is None, v.condition_a, v.certificate is None))
    assert len(seen) == 5 * 2 * 2 * 2
    for cert in _public_certificates():
        assert cli._certificate_json(cert) == _old_dumps(_old_certificate(cert))
    statuses = set()
    for doc in _digest_documents():
        s, l = cli.parse_input(doc)
        try:
            v = verdict(s, l)
        except DomainError:
            continue
        statuses.add((v.status, v.alpha_lower is None, v.condition_a))
        _assert_renders_as_before(v, echo=cli._echo(s, l))
    assert statuses >= {
        (STATUS_INAPPLICABLE, True, False),
        (STATUS_SIX_LINE, False, True),
        (STATUS_UNKNOWN, True, False),
    }


def _alpha_bound_documents():
    # seeded classes of degrees 4-7: scaled moves of -K along the E_i or
    # along the curves of a P1 x P1 face, and the anticanonical-plus family
    # with a fiber part
    rng = random.Random(71)
    for trial in range(120):
        d = 4 + trial % 4
        s = SurfaceModel(d)
        if trial % 3:
            es, fiber = _P1P1_CURVES[d]
            if trial % 3 == 1:
                es, fiber = [basis_exceptional(s, i) for i in range(1, s.r + 1)], None
            l = anticanonical(s)
            if fiber is not None:
                l = l + F(rng.randrange(0, 6), 5) * fiber
            for e in es:
                l = l + F(rng.randrange(0, 10), 12) * e
            l = F(rng.randint(1, 9), rng.randint(1, 4)) * l
            yield json.dumps({"degree": d, "L": cli._class_to_json(l)})
        else:
            a = [f"{rng.randrange(0, 6)}/{rng.randint(6, 9)}" for _ in range(s.r - 1)]
            a.sort(key=F, reverse=True)
            delta = f"{rng.randrange(0, 4)}/{rng.randint(1, 5)}"
            yield json.dumps({"degree": d, "family": "anticanonical-plus", "delta": delta, "a": a})


def test_alpha_bound_reports_match_the_nested_dict_oracle():
    kinds = set()
    for doc in _alpha_bound_documents():
        for as_json in (False, True):
            args = cli._build_parser().parse_args(["alpha-bound"] + ["--json"] * as_json)
            args.L = doc
            out = args.run(args)
            assert out == _old_alpha_bound(doc, as_json), doc
        kinds.add((json.loads(doc)["degree"], json.loads(out)["kind"]))
    assert len(kinds) == 12  # every face kind in every degree
