"""Acceptance gate: nine end-to-end criteria with stated tolerances and
time budgets.  The checks and their sizes live in ``torusmirror.criteria``;
each test runs one at the gate's sizes, ``SIZES["acceptance"]``, and emits
a single machine-readable pass/fail line on the real stdout (bypassing
capture) so the gate is auditable from the raw test log."""

import sys
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from torusmirror import criteria

SEED = 20240901
SIZES = criteria.SIZES["acceptance"]

_CAPMAN = None


@pytest.fixture(autouse=True)
def _locate_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num: int, desc: str, ok: bool, elapsed: float = None) -> None:
    tail = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{tail}"
    if _CAPMAN is not None:
        # fd-level capture would swallow even sys.__stdout__; lift it so the
        # line lands in the real test log
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def timed(check, *args):
    start = time.perf_counter()
    out = check(*args)
    return out, time.perf_counter() - start


def run(name):
    """One module of ``torusmirror suite --scale acceptance``, timed."""
    return timed(criteria.run_module, name, "acceptance", SEED)


def test_acceptance_sizes_are_the_stated_ones():
    """The table holds the sizes that the criteria below state: shrinking it
    fails here, not silently in the gate."""
    assert SIZES["transfer"] == {"count": 50, "relations_to": 5, "morphism_to": 4}
    assert SIZES["signs"] == {"count": 100, "corrupted": 20}
    assert SIZES["mirror"] == {
        "slope_triples": tuple(combinations((0, 1, 2, 3), 3)),
        "shift_triples": tuple(product((0, Fraction(1, 2)), repeat=3)),
        "cutoff": 25,
    }
    assert SIZES["fo"] == {"quadruples": ((0, 1, 2, 3), (0, 1, 3, 4)), "cutoff": 20}
    assert SIZES["morse"] == {"count": 20}
    assert SIZES["novikov"] == {"count": 1000}
    assert SIZES["legendre"] == {"grids": (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64))}
    assert SIZES["trees"] == {"max_leaves": 7}


@pytest.fixture(scope="module")
def dg_corpus():
    """The transfer module's seeded dg-algebras (dim <= 6) with retractions,
    validated by the criteria that use them."""
    corpus = criteria.retraction_corpus(SEED, SIZES["transfer"]["count"])
    assert max(len(r.ambient.basis) for r in corpus) <= 6
    return corpus


def test_criterion_1_transferred_relations(dg_corpus):
    n = SIZES["transfer"]["relations_to"]
    out, elapsed = timed(criteria.transferred_relations, dg_corpus, n)
    report(1, f"transferred structure relations exact for n <= {n} on "
              f"{len(dg_corpus)} dg-algebras", out.ok and elapsed <= 120, elapsed)
    assert out.ok, out.failures
    assert elapsed <= 120


def test_criterion_2_transfer_morphism(dg_corpus):
    n = SIZES["transfer"]["morphism_to"]
    out, elapsed = timed(criteria.transfer_morphism_equations, dg_corpus, n)
    report(2, f"comparison morphism equations exact for n <= {n} on the same corpus",
           out.ok and elapsed <= 120, elapsed)
    assert out.ok, out.failures
    assert elapsed <= 120


def test_criterion_3_sign_cross_validation():
    out, _ = run("signs")
    detected = out.figures["detected"]
    report(3, f"relation_defect and bar_check agree on {len(out.cases)} structures "
              f"({SIZES['signs']['corrupted']} corrupted, all detected)",
           out.ok and detected == 20)
    assert out.ok, out.failures
    assert detected == 20


def test_criterion_4_mirror_oracle():
    out, elapsed = run("mirror")
    runs = len(out.cases)
    report(4, f"mirror_compare EQUAL at cutoff {SIZES['mirror']['cutoff']} on all {runs} "
              "slope/shift combinations", out.ok and runs == 32 and elapsed <= 60, elapsed)
    assert out.ok, out.failures
    assert runs == 32
    assert elapsed <= 60


def test_criterion_5_fukaya_associativity():
    out, _ = run("fo")
    report(5, f"m2 associativity exact up to cutoff {SIZES['fo']['cutoff']} and m3 "
              f"certified zero on all {len(out.cases)} slope quadruples", out.ok)
    assert out.ok, out.failures


def test_criterion_6_morse_suite():
    out, elapsed = run("morse")
    report(6, f"Morse relations exact and cohomology ranks (1,1) on {len(out.cases)} "
              "transversal trig triples", out.ok and elapsed <= 60, elapsed)
    assert out.ok, out.failures
    assert elapsed <= 60


def test_criterion_7_novikov_field_laws():
    out, _ = run("novikov")
    report(7, f"Novikov field, valuation, and truncation laws exact on {len(out.cases)} "
              "seeded cases", out.ok)
    assert out.ok, out.failures[:5]


def test_criterion_8_legendre_monge_ampere():
    out, elapsed = run("legendre")
    orders = f"{out.figures['involution_order']:.2f}/{out.figures['det_order']:.2f}"
    report(8, f"Legendre errors <= C h^2 with orders {orders} >= 1.8; dual MA "
              "residual within 10 C h^2", out.ok and elapsed <= 30, elapsed)
    assert out.ok, out.failures
    assert elapsed <= 30


def test_criterion_9_tree_counts():
    out, _ = run("trees")
    report(9, "tree enumeration matches little-Schroeder and Catalan "
              f"recurrence oracles for n <= {len(out.cases)}", out.ok)
    assert out.ok, out.failures
