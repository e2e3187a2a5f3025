"""Graded bases, multilinear operations, structure/morphism relations, and
the bar-construction cross-check."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from torusmirror import ainfty, morse
from torusmirror.ainfty import (
    AInftyMorphismData,
    AInftyStructure,
    GradedBasis,
    MultilinearOp,
    _compose_pairs,
    _integral,
    _rational,
    _sum_pairs,
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
from torusmirror.criteria import circle_sections
from torusmirror.fukaya_oh import fukaya_sequence
from torusmirror.novikov import NovikovElem
from torusmirror.randomgen import corrupt_structure, random_dg_algebra, retraction_onto_cohomology
from torusmirror.transfer import transfer_structure


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


def test_integral_hands_int_tables_through_uncopied():
    """A table of ints alone is its own numerator table; a table of
    Fraction(n, 1) entries is converted to ints, so _sum_pairs' gcd never
    meets a Fraction; one Fraction among ints sets that table's D."""
    ints = {("a",): {"u": 3, "v": -2}}
    whole = {("a",): {"u": Fraction(3), "v": Fraction(-2)}}
    mixed = {("a",): {"u": 3, "v": Fraction(1, 4)}}
    pairs = _integral({"ints": ints, "whole": whole, "mixed": mixed})
    assert pairs["ints"][0] is ints and pairs["ints"][1] == 1
    assert pairs["whole"] == (ints, 1) and pairs["whole"][0] is not whole
    assert all(type(c) is int for row in pairs["whole"][0].values() for c in row.values())
    assert pairs["mixed"] == ({("a",): {"u": 12, "v": 1}}, 4)
    assert _sum_pairs([pairs["whole"], pairs["mixed"]]) == ({("a",): {"u": 24, "v": -7}}, 4)

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
    """bar_check shares no code with the composition kernel or the integer
    forms that relation_defect runs on, so the two stay independent checks."""
    rng = random.Random(7)
    A = random_dg_algebra(rng)
    bad = corrupt_structure(A, rng)

    for name in ("compose", "_integral", "_compose_pairs", "_sum_pairs", "_rational"):
        def refuse(*args, name=name):
            raise RuntimeError(f"bar_check called {name}")

        monkeypatch.setattr(ainfty, name, refuse)
    assert bar_check(A, 3).ok
    assert not bar_check(bad, 3).ok


def test_bar_check_failure_values_are_pinned():
    """bar_check judges d^2 on tables scaled by the lcm L of their
    denominators and prints each failing value as numerator / L^2: the
    failure list of a corrupted dga with fractional coefficients and of a
    Novikov structure (one m_2 entry of a Fukaya sequence raised by
    3 q^(1/2)), as the unscaled Fraction arithmetic printed them."""
    rng = random.Random(59)
    A = random_dg_algebra(rng)
    assert any(c.denominator > 1 for row in A.m(2).entries.values() for c in row.values())
    assert bar_check(corrupt_structure(A, rng), 3).failures == [
        "word length 3: d^2(((0, 0), (0, 0), (0, 0))) has ((0, 1),): 1",
        "word length 3: d^2(((0, 1), (0, 0), (1, 0))) has ((1, 0),): -4/3",
        "word length 3: d^2(((0, 1), (0, 0), (1, 0))) has ((1, 1),): -8/3",
        "word length 3: d^2(((0, 1), (0, 0), (1, 1))) has ((1, 0),): 2/3",
        "word length 3: d^2(((0, 1), (0, 0), (1, 1))) has ((1, 1),): 4/3",
        "word length 3: d^2(((1, 0), (0, 1), (0, 0))) has ((1, 0),): 4/3",
        "word length 3: d^2(((1, 0), (0, 1), (0, 0))) has ((1, 1),): 8/3",
        "word length 3: d^2(((1, 1), (0, 1), (0, 0))) has ((1, 0),): -2/3",
        "word length 3: d^2(((1, 1), (0, 1), (0, 0))) has ((1, 1),): -4/3",
    ]
    F = fukaya_sequence(circle_sections((0, 1, 3, 6), (0, Fraction(1, 3), 0, Fraction(1, 2))), 6)
    m2 = {ins: dict(row) for ins, row in F.m(2).entries.items()}
    m2[(0, 1, (0,)), (1, 2, (0,))][0, 2, (0,)] += NovikovElem.q_power(Fraction(1, 2), 3, 6)
    bent = AInftyStructure(F.basis, {2: MultilinearOp(2, F.basis, F.basis, 0, m2, check_degrees=False)})
    word = "word length 3: d^2(((0, 1, (0,)), (1, 2, (0,)), (2, 3, ({},)))) has ((0, 3, ({},)),): Nov({})"
    assert bar_check(bent, 3).failures == [
        word.format(0, 0, "3*q^25/48 + 3*q^145/48 + 3*q^193/48 + O(q^289/48)"),
        word.format(0, 3, "3*q^49/48 + 3*q^73/48 + O(q^483/80)"),
        word.format(1, 1, "3*q^25/48 + 3*q^145/48 + 3*q^193/48 + O(q^6)"),
        word.format(1, 4, "3*q^49/48 + 3*q^73/48 + O(q^6)"),
        word.format(2, 2, "3*q^11/16 + 3*q^35/16 + 3*q^83/16 + O(q^91/15)"),
        word.format(2, 5, "3*q^11/16 + 3*q^35/16 + 3*q^83/16 + O(q^1441/240)"),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_relation_defect_and_bar_check_agree_on_valid_algebras(seed):
    A = random_dg_algebra(random.Random(seed))
    for n in range(1, 4):
        assert relation_defect(A, n).is_zero()
    assert bar_check(A, 3).ok


def relation_defect_reference(A, n):
    """Reference model of `relation_defect`: the Fraction loop it ran on
    before the integer forms, one compose and add_into per (i, j, l), with
    the sign constant l(j-1) + j(i-1) + ij."""
    deg = A.basis.degrees
    acc = {}
    for j in range(1, n + 1):
        i = n - j + 1
        inner, outer = A.m(j), A.m(i)
        if not (inner.entries and outer.entries):
            continue
        for l in range(0, i):
            const = l * (j - 1) + j * (i - 1) + i * j
            rows = outer.entries
            if j % 2 or const % 2:
                rows = signed(rows, lambda ins: -1 if (j * sum(deg[a] for a in ins[:l]) + const) % 2 else 1)
            slots = [None] * i
            slots[l] = inner.entries
            add_into(acc, compose(rows, slots))
    return MultilinearOp(n, A.basis, A.basis, 3 - n, acc, check_degrees=False)


def _morse_sequence(seed):
    """The Morse structure of the first transversal triple of seeded trig
    polynomials, as criterion 4 builds it; its tables hold ints alone."""
    rng = random.Random(seed)

    def trig():
        return morse.TrigPolynomial.from_dicts(
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)})

    f = trig(), trig(), trig()
    while not morse.transversal_triple(*f):
        f = trig(), trig(), trig()
    pairs = ((0, 1), (1, 2), (0, 2))
    hom = {(i, j): morse.critical_points(f[i] - f[j]).basis() for i, j in pairs}
    comps = {(i, j): morse.morse_differential(f[i], f[j]) for i, j in pairs}
    comps[(0, 1, 2)] = morse.m2(*f)
    return assemble_sequence((0, 1, 2), hom, comps)


def _bent(A, n, delta):
    """A with delta added to the first entry of m_n."""
    op = A.m(n)
    table = {ins: dict(row) for ins, row in op.entries.items()}
    ins = min(table, key=repr)
    out = min(table[ins], key=repr)
    table[ins][out] += delta
    return AInftyStructure(A.basis, {**A.ops, n: MultilinearOp(n, A.basis, A.basis, 2 - n, table)})


def test_relation_defect_matches_the_fraction_reference():
    """The integer-form relation_defect gives the reference model's entries,
    truncated Novikov zeros and their cutoffs included: randomgen dgas and
    their corrupted twins, randomgen and conjugated Massey transfers to
    arity 5, the Koszul dgas, Morse sequences (int tables, each also with
    an m_2 entry raised by 1) and a 5-object Novikov Fukaya sequence.  The
    Heisenberg transfer with one m_3 or m_4 entry raised by 1/2 is where
    m_2 o m_4 and m_3 o m_3 meet nonzero terms."""
    from test_transfer import conjugated, heisenberg_dga, koszul_dga, massey_dga

    cases = []
    for seed in range(12):
        rng = random.Random(seed)
        A = random_dg_algebra(rng)
        cases += [(A, 3), (corrupt_structure(A, rng), 3)]
    for seed in range(3):
        rng = random.Random(seed)
        for A in (random_dg_algebra(rng), conjugated(massey_dga(), rng)):
            cases.append((transfer_structure(retraction_onto_cohomology(A, rng), 5), 5))
    rng = random.Random(0)
    B = transfer_structure(retraction_onto_cohomology(conjugated(heisenberg_dga(), rng), rng), 5)
    cases += [(B, 5), (_bent(B, 3, Fraction(1, 2)), 5), (_bent(B, 4, Fraction(1, 2)), 5)]
    cases += [(koszul_dga(k), 3) for k in (2, 3)] + [(conjugated(koszul_dga(3), random.Random(3)), 3)]
    morse_cases = [_morse_sequence(seed) for seed in (1, 2)]
    assert all(type(c) is int for A in morse_cases for op in A.ops.values()
               for row in op.entries.values() for c in row.values())
    cases += [(A, 3) for A in morse_cases] + [(_bent(A, 2, 1), 3) for A in morse_cases]
    shifts = (0, Fraction(1, 2), Fraction(1, 3), 0, Fraction(2, 5))
    fukaya = fukaya_sequence(circle_sections((0, 1, 3, 6, 10), shifts), 4)
    cases.append((fukaya, 3))
    nonzero = truncated = 0
    for A, top in cases:
        for n in range(1, top + 1):
            got, want = relation_defect(A, n).entries, relation_defect_reference(A, n).entries
            assert got == want
            values = [c for row in got.values() for c in row.values()]
            truncated += sum(isinstance(c, NovikovElem) and c.is_zero() for c in values)
            nonzero += sum(not isinstance(c, NovikovElem) for c in values)
    assert nonzero > 0 and truncated > 0


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
