"""Graded bases, multilinear operations, structure/morphism relations, and
the bar-construction cross-check."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from torusmirror import ainfty
from torusmirror.ainfty import (
    AInftyMorphismData,
    AInftyStructure,
    GradedBasis,
    MultilinearOp,
    _compose_pairs,
    _integral,
    _rational,
    add_into,
    assemble_sequence,
    bar_check,
    compose,
    morphism_defect,
    relation_defect,
    signed,
    suspended_coefficient,
    zero_op,
)
from torusmirror.novikov import NovikovElem
from torusmirror.randomgen import corrupt_structure, random_dg_algebra


def exterior_algebra():
    """Exterior algebra on one generator of degree 1, with zero differential."""
    basis = GradedBasis(((("one",), 0), (("t",), 1)))
    mul = {
        (("one",), ("one",)): {("one",): 1},
        (("one",), ("t",)): {("t",): 1},
        (("t",), ("one",)): {("t",): 1},
    }
    return AInftyStructure(basis, {2: MultilinearOp(2, basis, basis, 0, mul)})


# -- bases and operations -----------------------------------------------------


def test_basis_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        GradedBasis((("x", 0), ("x", 1)))


def test_op_enforces_degree_rule():
    basis = GradedBasis((("x", 0), ("y", 1)))
    with pytest.raises(ValueError):
        MultilinearOp(1, basis, basis, 1, {("y",): {"y": 1}})
    ok = MultilinearOp(1, basis, basis, 1, {("x",): {"y": 2}})
    assert ok(("x",)) == {"y": 2}
    assert ok(("y",)) == {}


def test_op_arithmetic_and_zero_cleanup():
    """Table sums go through add_into; only exact zeros are dropped."""
    basis = GradedBasis((("x", 0), ("y", 1)))
    d = {("x",): {"y": 3}}
    assert MultilinearOp(1, basis, basis, 1, add_into({("x",): {"y": 3}}, d, -1)).is_zero()
    assert zero_op(2, basis, basis, 0).is_zero()
    # only exact zeros are dropped; a truncated zero keeps its O(q^5) bound
    for exact in (0, Fraction(0), NovikovElem.zero()):
        assert MultilinearOp(1, basis, basis, 1, {("x",): {"y": exact}}).entries == {}
    inexact = MultilinearOp(1, basis, basis, 1, {("x",): {"y": NovikovElem.zero(5)}})
    assert inexact.entries == {("x",): {"y": NovikovElem.zero(5)}}
    assert inexact.is_zero() and list(inexact.nonzero_entries()) == []
    total = MultilinearOp(1, basis, basis, 1, add_into({("x",): {"y": NovikovElem.zero(5)}}, d))
    assert list(total.nonzero_entries()) == [(("x",), "y", NovikovElem.scalar(3, 5))]


def test_compose_kernel():
    """outer o (s_1 x s_2): an identity slot, two producers of one label,
    accumulation, an input with no producer, and signs on table rows."""
    outer = {("u", "v"): {"w": 2}, ("u", "z"): {"w": 7}}
    s1 = {("a",): {"u": 3}, ("b",): {"u": 5}}
    s2 = {("c", "d"): {"v": 1}, ("e",): {"v": 4}}
    # identity in the second slot: "v" and "z" pass through unchanged
    assert compose(outer, [s1, None]) == {
        ("a", "v"): {"w": 6}, ("b", "v"): {"w": 10}, ("a", "z"): {"w": 21}, ("b", "z"): {"w": 35},
    }
    # nothing produces "z", so ("u", "z") gives no key
    assert compose(outer, [s1, s2]) == {
        ("a", "c", "d"): {"w": 6}, ("a", "e"): {"w": 24},
        ("b", "c", "d"): {"w": 10}, ("b", "e"): {"w": 40},
    }
    # two terms reaching one input key accumulate
    assert compose({("u",): {"w": 1}, ("x",): {"w": 2}}, [{("a",): {"u": 3, "x": 9}}]) == {
        ("a",): {"w": 21},
    }
    assert add_into({("a",): {"w": 3}}, {("a",): {"w": 4}}, -1) == {("a",): {"w": -1}}
    # a sign that reads the second slot's inputs sits on that slot's rows
    seen = []

    def sign(ins):
        seen.append(ins)
        return -1 if ins == ("e",) else 1

    assert compose(outer, [s1, signed(s2, sign)]) == {
        ("a", "c", "d"): {"w": 6}, ("a", "e"): {"w": -24},
        ("b", "c", "d"): {"w": 10}, ("b", "e"): {"w": -40},
    }
    assert sorted(seen) == [("c", "d"), ("e",)]
    assert signed(s2, lambda ins: 1) == s2

    # integer form: numerators over one denominator per table; a composite
    # multiplies the denominators and converts back to reduced Fractions
    q = Fraction
    outer = {("u", "v"): {"w": q(2, 3)}, ("u", "z"): {"w": q(7, 4), "x": 5}}
    s1 = {("a",): {"u": q(3, 10)}, ("b",): {"u": q(5, 6), "y": 1}}
    pairs = _integral({"outer": outer, "s1": s1})
    assert pairs == {
        "outer": ({("u", "v"): {"w": 8}, ("u", "z"): {"w": 21, "x": 60}}, 12),
        "s1": ({("a",): {"u": 9}, ("b",): {"u": 25, "y": 30}}, 30),
    }
    for sgn in (lambda ins: 1, lambda ins: -1 if ins == ("b",) else 1):
        slot = signed(pairs["s1"][0], sgn), pairs["s1"][1]
        got = _rational(*_compose_pairs(pairs["outer"], [slot, None]))
        assert got == compose(outer, [signed(s1, sgn), None])
        assert all(type(c) is Fraction for row in got.values() for c in row.values())
    assert got[("a", "v")] == {"w": q(1, 5)} and got[("b", "z")] == {"w": -q(35, 24), "x": q(-25, 6)}


def _one_pass_compose(outer, slots):
    """Reference model of `compose`: one pass per entry of `outer` over the
    full cross product of producers of its slots."""
    index = []
    for s in slots:
        idx = None
        if s is not None:
            idx = {}
            for ins, row in s.items():
                for o, c in row.items():
                    idx.setdefault(o, []).append((ins, c))
        index.append(idx)
    out = {}
    for o_ins, o_row in outer.items():
        terms = [((), None)]  # (input key, coefficient or None for 1)
        for lab, idx in zip(o_ins, index):
            if idx is None:
                terms = [(key + (lab,), c) for key, c in terms]
                continue
            producers = idx.get(lab)
            if not producers:
                break
            terms = [(key + ins, p if c is None else c * p) for key, c in terms for ins, p in producers]
        else:
            for key, c in terms:
                dst = out.setdefault(key, {})
                for o, o_c in o_row.items():
                    dst[o] = dst.get(o, 0) + (o_c if c is None else c * o_c)
    return out


def _random_table(rng, labels, outputs, arities, coeff):
    """Sparse table: about half of the input tuples over `labels`, each
    with one or two outputs among `outputs`."""
    table = {}
    for k in arities:
        for ins in product(labels, repeat=k):
            if rng.random() < 0.5:
                table[ins] = {o: coeff(rng) for o in rng.sample(outputs, rng.randint(1, 2))}
    return table


@pytest.mark.parametrize("kind", [int, Fraction])
def test_compose_matches_the_one_pass_model(kind):
    """Slot at a time gives the one-pass table, zero-valued keys and value
    types included: 1-4 slots, identity slots between filled ones, labels
    that nothing produces, one table in several slots, and +-1 coefficients
    whose sums cancel."""
    coeff = (lambda rng: rng.choice((-1, 1, 2))) if kind is int else (
        lambda rng: Fraction(rng.choice((-1, 1, 3)), rng.choice((1, 2))))
    zeros = 0
    for seed in range(40):
        rng = random.Random(seed)
        k = 1 + seed % 4
        outer = _random_table(rng, "uvwz", ["r", "s"], [k], coeff)
        g = _random_table(rng, "ab", list("uvw"), [1, 2], coeff)  # nothing produces "z"
        slots = [rng.choice((None, g, g, _random_table(rng, "ab", list("uvwz"), [1], coeff)))
                 for _ in range(k)]
        got, want = compose(outer, slots), _one_pass_compose(outer, slots)
        assert got == want
        assert all(type(c) is type(want[ins][o]) for ins, row in got.items() for o, c in row.items())
        zeros += sum(c == 0 for row in got.values() for c in row.values())
    assert zeros > 0


def test_compose_novikov_cutoff_is_never_lower():
    """Summing before multiplying: a (b + c) may carry a higher O(q^c) than
    a b + a c when b + c cancels its leading terms; the terms below the
    one-pass cutoff agree."""
    a = NovikovElem([(7, -2)], 9)
    b = NovikovElem([(1, 2), (Fraction(3, 2), 2)])
    c = NovikovElem([(1, -2), (6, 1)], Fraction(13, 2))
    outer = {("x", "y"): {"o": 1}, ("x", "y2"): {"o": 1}}
    slots = [{("u",): {"x": a}}, {("v",): {"y": b, "y2": c}}]
    got = compose(outer, slots)[("u", "v")]["o"]
    want = _one_pass_compose(outer, slots)[("u", "v")]["o"]
    assert (got.cutoff, want.cutoff) == (Fraction(21, 2), 10)
    assert got.truncate(want.cutoff) == want == NovikovElem([(Fraction(17, 2), -4)], 10)
    # one filled slot multiplies as the one-pass sum does, cutoff included
    slots = [None, slots[1]]
    assert compose(outer, slots) == _one_pass_compose(outer, slots)


def test_structure_validates_arity_and_shift():
    basis = GradedBasis((("x", 0),))
    with pytest.raises(ValueError):
        AInftyStructure(basis, {2: MultilinearOp(1, basis, basis, 1, {})})


# -- structure relations ------------------------------------------------------


def test_associative_algebra_satisfies_relations():
    A = exterior_algebra()
    for n in range(1, 5):
        assert relation_defect(A, n).is_zero()
    assert bar_check(A, 3).ok


def test_corrupted_structure_fails_both_checks_at_the_same_arity():
    rng = random.Random(7)
    A = corrupt_structure(random_dg_algebra(rng), rng)
    rel_arity = next(
        (n for n in range(1, 4) if not relation_defect(A, n).is_zero()), None
    )
    bar = bar_check(A, 3)
    assert rel_arity is not None and not bar.ok
    bar_arity = min(int(f.split()[2].rstrip(":")) for f in bar.failures)
    assert rel_arity == bar_arity


def test_bar_check_runs_without_compose(monkeypatch):
    """bar_check shares no code with the composition kernel that
    relation_defect runs on, so the two stay independent checks."""
    rng = random.Random(7)
    A = random_dg_algebra(rng)
    bad = corrupt_structure(A, rng)

    def refuse(*args):
        raise RuntimeError("bar_check called compose")

    monkeypatch.setattr(ainfty, "compose", refuse)
    assert bar_check(A, 3).ok
    assert not bar_check(bad, 3).ok


@pytest.mark.parametrize("seed", range(6))
def test_relation_defect_and_bar_check_agree_on_valid_algebras(seed):
    A = random_dg_algebra(random.Random(seed))
    for n in range(1, 4):
        assert relation_defect(A, n).is_zero()
    assert bar_check(A, 3).ok


def test_suspension_sign_exponent():
    deg = {"a": 1, "b": 2, "c": 0}
    # sum_q (n - q)(deg_q - 1) with q = 1..n
    assert suspended_coefficient(("a", "b", "c"), deg) == 2 * 0 + 1 * 1 + 0 * (-1)
    assert suspended_coefficient(("a",), deg) == 0


# -- morphism relations -------------------------------------------------------


def test_identity_morphism_has_zero_defect():
    A = exterior_algebra()
    ident = MultilinearOp(
        1, A.basis, A.basis, 0, {(l,): {l: 1} for l in A.basis.labels}
    )
    F = AInftyMorphismData(source=A, target=A, components={1: ident})
    for n in range(1, 4):
        assert morphism_defect(F, n).is_zero()


def test_non_chain_map_has_nonzero_defect():
    basis = GradedBasis((("x", 0), ("y", 1)))
    d = MultilinearOp(1, basis, basis, 1, {("x",): {"y": 1}})
    A = AInftyStructure(basis, {1: d})
    B = AInftyStructure(basis, {})  # zero differential
    f1 = MultilinearOp(1, basis, basis, 0, {(l,): {l: 1} for l in basis.labels})
    F = AInftyMorphismData(source=A, target=B, components={1: f1})
    assert not morphism_defect(F, 1).is_zero()


# -- assembly and pre-category checks -----------------------------------------


def _circle_style_fixture():
    """Two-object hom spaces with a differential and a product, as produced
    by the Morse layer; small enough to assemble by hand."""
    hom = GradedBasis(((0, 0), (1, 1)))
    d = MultilinearOp(1, hom, hom, 1, {})
    m2 = MultilinearOp(2, hom, hom, 0, {(0, 0): {0: 1}})
    return hom, d, m2


def test_assemble_sequence_direct_sum_labels():
    hom, d, m2 = _circle_style_fixture()
    hom_spaces = {(a, b): hom for a in "XYZ" for b in "XYZ" if a < b}
    comps = {
        ("X", "Y"): d,
        ("Y", "Z"): d,
        ("X", "Z"): d,
        ("X", "Y", "Z"): m2,
    }
    A = assemble_sequence(("X", "Y", "Z"), hom_spaces, comps)
    assert len(A.basis) == 3 * len(hom)
    assert all(lab[0] < lab[1] for lab in A.basis.labels)
    # the product only acts on chained pairs
    out = A.m(2)(((0, 1, 0), (1, 2, 0)))
    assert out == {(0, 2, 0): 1}
    assert A.m(2)(((0, 1, 0), (0, 1, 0))) == {}


def test_assemble_sequence_rejects_repeats_and_misordered_compositions():
    """The objects of a sequence are distinct, and a composition's objects
    appear in it in the same order; anything else is a ValueError."""
    hom, d, m2 = _circle_style_fixture()
    hom_spaces = {(a, b): hom for a in "XYZ" for b in "XYZ" if a < b}
    with pytest.raises(ValueError, match="repeated object"):
        assemble_sequence(("X", "Y", "X"), hom_spaces, {("X", "Y"): d})
    for objs, op in ((("Y", "X"), d), (("X", "Z", "Y"), m2), (("X", "W"), d)):
        with pytest.raises(ValueError, match="not a subsequence"):
            assemble_sequence(("X", "Y", "Z"), hom_spaces, {("X", "Y"): d, objs: op})


# -- serialization ------------------------------------------------------------


def test_structure_json_roundtrip_with_string_labels():
    basis = GradedBasis((("x", 0), ("y", 1)))
    A = AInftyStructure(
        basis, {1: MultilinearOp(1, basis, basis, 1, {("x",): {"y": 2}})}
    )
    obj = json.loads(json.dumps(A.to_obj()))
    B = AInftyStructure.from_obj(obj)
    assert B.basis.elements == A.basis.elements
    assert B.m(1).entries == A.m(1).entries
