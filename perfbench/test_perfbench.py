"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from kstab import cli, cones, stability  # noqa: E402
from kstab.alphabound import certificate  # noqa: E402
from kstab.lattice import SurfaceModel, anticanonical, div  # noqa: E402

ROUNDS = 6


def _rounds(make, seed):
    rng = random.Random(seed)
    return [make(rng, i) for i in range(ROUNDS)]


def _signed(l):
    return (l.h,) + l.e


def test_generators_are_deterministic_per_seed():
    items = list(W.grid_items())
    for make in (W.check_round, lambda rng, i: W.normalize_round(rng), lambda rng, i: W.grid_round(rng, items)):
        assert _rounds(make, 5) == _rounds(make, 5)
        assert _rounds(make, 5) != _rounds(make, 6)


def test_check_inputs_are_ample_and_in_their_family():
    for seed in range(4):
        for index, texts in enumerate(_rounds(W.check_round, seed)):
            docs = [json.loads(t) for t in texts]
            assert sorted(d["degree"] for d in docs) == list(W.CHECK_DEGREES)
            for doc in docs:
                s, l = cli.parse_input(doc)
                assert s.degree == doc["degree"] and cones.is_ample(l, s)
                assert checks.document_class(doc) == _signed(l)
                family = doc.get("family")
                if doc["degree"] == 3:
                    assert family == ("six-line" if index % 2 == 0 else None)
                elif 4 <= doc["degree"] <= 7:
                    assert family == ("anticanonical-plus" if index % 2 == 0 else None)
                else:
                    assert family is None


def test_normalize_inputs_are_ample_at_their_degree():
    for seed in range(4):
        for ops in _rounds(lambda rng, i: W.normalize_round(rng), seed):
            assert sorted(d for kind, d, _ in ops if kind == "mu") == list(W.MU_DEGREES)
            assert sorted(d for kind, d, _ in ops if kind == "alpha") == list(W.ALPHA_DEGREES)
            for _, degree, mults in ops:
                s = SurfaceModel(degree)
                assert len(mults) == s.r + 1
                assert cones.is_ample(div(mults[0], [-x for x in mults[1:]]), s)


def test_grid_items_are_valid_contraction_data():
    items = list(W.grid_items())
    assert len(items) == W.GRID_SIZE
    sample = items[:: W.GRID_STRIDE * 7]
    assert {(d, k) for d, k, _, _ in items} == {(d, k) for d in W.GRID_DEGREES for k in W.GRID_KINDS}
    for degree, kind, delta, a in sample:
        es, c = W.grid_curves(degree, kind)
        cd = cones.ContractionData(
            kind, delta, a, tuple(div(x[0], x[1:]) for x in es), None if c is None else div(c[0], c[1:])
        )
        assert cones.reconstruct(cd, SurfaceModel(degree)).rank == 9 - degree


def _report(doc):
    s, l = cli.parse_input(doc)
    return cli.render_report(stability.verdict(s, l), "json")


def test_report_check_accepts_real_reports_and_flags_corrupted_ones():
    certified = {"degree": 5, "family": "anticanonical-plus", "delta": "1/2", "a": ["1/3"]}
    six_line = {"degree": 3, "family": "six-line", "x": "1/12"}
    main = W.explicit_document(2, W.multiplicities(2, Fraction(2), Fraction(0), [Fraction(1, 16)] * 7))
    for doc in (certified, six_line, main):
        assert checks.report(doc, _report(doc)) is None

    rep = json.loads(_report(certified))
    part = rep["certificate"]["divisor"][0]
    part["coefficient"] = str(Fraction(part["coefficient"]) + 1)
    assert checks.report(certified, json.dumps(rep)) is not None

    rep = json.loads(_report(certified))
    rep["certificate"]["bound"] = "1"
    assert checks.report(certified, json.dumps(rep)) is not None

    rep = json.loads(_report(six_line))
    rep["alpha_lower"] = "1/2"
    assert checks.report(six_line, json.dumps(rep)) is not None

    rep = json.loads(_report(main))
    assert rep["status"] == checks.MAIN
    rep["alpha_lower"] = "1"
    assert checks.report(main, json.dumps(rep)) is not None

    rep = json.loads(_report(main))
    rep["nu"] = "1"
    assert checks.report(main, json.dumps(rep)) is not None


def test_certificate_check_equality_only_at_degree_four_zero_point():
    s = SurfaceModel(4)
    l = anticanonical(s)
    cert = certificate(s, cones.face_decompose(l, s))
    components = [(_signed(c), x) for c, x in cert.divisor]
    reason, _, limit = checks.certificate(4, _signed(l), components, cert.bound, Fraction(1))
    assert reason is None and cert.bound == limit
    k5 = checks.anticanonical(5)
    assert checks.certificate(5, k5, [(k5, Fraction(1, 2))], Fraction(2), Fraction(1, 2))[0] is not None


def test_appendix_check():
    assert checks.appendix(W.appendix_total(2, 2), (), W.appendix_total(2, 2)) is None
    assert checks.appendix(630, ("x",), 630) is not None
    assert checks.appendix(629, (), 630) is not None
    assert W.appendix_total(4, 4) == 630


def test_tracer_records_nested_spans_and_restores_functions():
    import kstab
    from kstab import alphabound, appendix, curves, lattice, ratlp

    modules = [lattice, curves, ratlp, cones, alphabound, appendix, stability, cli]
    original = cones.solve, stability.minus_one_curves
    tracer = tracing.Tracer(kstab, modules)
    tracer.install()
    tracer.op = 1
    try:
        s, l = cli.parse_input(json.dumps(W.explicit_document(5, W.multiplicities(5, Fraction(1), Fraction(0), [Fraction(1, 3)] * 4))))
        stability.verdict(s, l)
    finally:
        tracer.uninstall()
    assert (cones.solve, stability.minus_one_curves) == original
    calls, total, own, _ = tracing.summarize(tracer.spans, {1})
    assert calls["stability.verdict"] == 1 and calls["cones.mu"] == 2
    assert calls["ratlp.solve"] >= 2 and tracer.counts["lattice.intersect"] > 0
    assert 0 < own["stability.verdict"] < total["stability.verdict"]
    names = [span[0] for span in tracer.spans]
    mu_span = tracer.spans[names.index("cones.mu")]
    assert tracer.spans[mu_span[3]][0] == "stability.verdict"


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1, 1, None), ("b", 2.0, 5.0, 0, 1, None), ("c", 3.0, 4.0, 1, 1, None)]
    calls, total, own, _ = tracing.summarize(spans, {1})
    assert own["a"] == 7000.0 and own["b"] == 2000.0 and own["c"] == 1000.0
    assert total["a"] == 10000.0


def test_percentile_reports_samples_beyond():
    ordered = list(range(1, 101))
    assert worker.percentile(ordered, 50) == (50, 50)
    assert worker.percentile(ordered, 90) == (90, 10)
    assert worker.percentile(ordered, 99) == (99, 1)


def test_unreadable_output_counts_as_a_failed_op():
    class Broken:
        def op(self, lib, item):
            return "{not json"

        def verify(self, item, out):
            return out, checks.report({"degree": 8}, out)

    errors = []
    _, _, ok = worker._run_op(Broken(), None, None, errors)
    assert not ok and errors[0].startswith("unreadable output")


def test_speed_meter_rescales_spans_by_the_reference_runs_around_them():
    ref = speed.REFERENCE_S
    runs = iter([ref, 3 * ref, ref, ref])
    meter = speed.SpeedMeter(reference=lambda: next(runs))
    meter.add(speed.EVERY_S / 4)
    meter.add(speed.EVERY_S)  # due: both spans ran between ref and 3*ref
    meter.add(speed.EVERY_S)  # between 3*ref and ref
    meter.add(speed.EVERY_S / 2)  # closed by scaled(), between ref and ref
    assert meter.scaled() == pytest.approx([speed.EVERY_S / 8, speed.EVERY_S / 2, speed.EVERY_S / 2, speed.EVERY_S / 2])
    assert len(meter.references) == 4


def test_reference_loop_is_exact():
    rows = speed._eliminate(speed._MATRIX)
    assert all(rows[i][j] == 0 for i in range(7) for j in range(7) if i != j)
    assert speed.reference_seconds() > 0
