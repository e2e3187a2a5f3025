"""Homotopy transfer: retraction validation, transferred structure
relations, the comparison morphism, and the tree-sum cross-check."""

import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusmirror import criteria, transfer
from torusmirror.ainfty import (
    AInftyMorphismData,
    AInftyStructure,
    GradedBasis,
    MultilinearOp,
    _compose_pairs,
    _rational,
    _sum_pairs,
    bar_check,
    compositions,
    morphism_defect,
    relation_defect,
)
from torusmirror.criteria import (
    retraction_corpus,
    transfer_morphism_equations,
    transferred_relations,
)
from torusmirror.novikov import NovikovElem
from torusmirror.randomgen import (
    _conjugate,
    corrupt_structure,
    random_dg_algebra,
    retraction_onto_cohomology,
)
from torusmirror.transfer import (
    RetractionData,
    transfer_morphism,
    transfer_structure,
    transfer_structure_by_trees,
    validate,
)


def massey_dga(deg=1, unit=False):
    """A dga with a nonzero Massey product <a, b, c> = w: du = ab, dv = bc,
    a.b = ab, b.c = bc, u.c = w and a.v = (-1)^(deg+1) w, with a, b, c of
    degree deg.  Its transfer has nonzero m3 and m4, whereas the seeded
    corpus transfers to zero above arity 2.  With ``unit`` a unit 1 of
    degree 0 multiplies every element."""
    e = deg
    elems = [("a", e), ("b", e), ("c", e), ("u", 2 * e - 1), ("v", 2 * e - 1),
             ("ab", 2 * e), ("bc", 2 * e), ("w", 3 * e - 1)]
    mul = {("a", "b"): {"ab": 1}, ("b", "c"): {"bc": 1}, ("u", "c"): {"w": 1},
           ("a", "v"): {"w": 1 if deg % 2 else -1}}
    if unit:
        elems.insert(0, ("1", 0))
        for x, _ in elems:
            mul[("1", x)] = mul[(x, "1")] = {x: 1}
    B = GradedBasis(tuple(elems))
    d = MultilinearOp(1, B, B, 1, {("u",): {"ab": 1}, ("v",): {"bc": 1}})
    return AInftyStructure(B, {1: d, 2: MultilinearOp(2, B, B, 0, mul)})


def koszul_dga(k):
    """Lambda(theta) (x) Q[x]/(x^k) with deg theta = 1, deg x = 2 and
    d theta = x, so d(theta x^j) = x^(j+1).  The differential is nonzero on
    odd inputs, so the Koszul prefix j * sum_{s<l} deg a_s of the relation
    sign is seen."""
    elems = [((e, j), e + 2 * j) for e in (0, 1) for j in range(k)]
    mul = {((e1, j1), (e2, j2)): {(e1 + e2, j1 + j2): 1}
           for (e1, j1), _ in elems for (e2, j2), _ in elems if e1 + e2 <= 1 and j1 + j2 < k}
    B = GradedBasis(tuple(elems))
    d = MultilinearOp(1, B, B, 1, {((1, j),): {(0, j + 1): 1} for j in range(k - 1)})
    return AInftyStructure(B, {1: d, 2: MultilinearOp(2, B, B, 0, mul)})


def heisenberg_dga():
    """The Chevalley-Eilenberg dga of the Heisenberg Lie algebra: the
    exterior algebra on x, y, z of degree 1 with dz = xy.  Its cohomology
    has degrees 0, 1, 1, 2, 2, 3, and its transfer has nonzero m_2 ... m_6,
    so both m_2 o m_4 and m_3 o m_3 enter the arity-5 relation."""
    elems = [(m, len(m)) for k in range(4) for m in itertools.combinations("xyz", k)]
    mul = {}
    for a, _ in elems:
        for b, _ in elems:
            if not set(a) & set(b):
                # the sign of the permutation that sorts a + b
                inversions = sum(x > y for x in a for y in b)
                mul[(a, b)] = {tuple(sorted(a + b)): (-1) ** inversions}
    B = GradedBasis(tuple(elems))
    d = MultilinearOp(1, B, B, 1, {(("z",),): {("x", "y"): 1}})
    return AInftyStructure(B, {1: d, 2: MultilinearOp(2, B, B, 0, mul)})


def conjugated(A, rng):
    """A dga under a seeded random basis change of each degree."""
    return _conjugate(list(A.basis.elements), A.m(1).entries, A.m(2).entries, rng)


@pytest.fixture(scope="module")
def corpus():
    return retraction_corpus(20240901, 8)


@pytest.fixture(scope="module")
def massey():
    return retraction_onto_cohomology(massey_dga(), random.Random(0))


def test_generated_retractions_validate(corpus):
    for r in corpus:
        rep = validate(r)
        assert rep.ok, rep.failures[:3]


def test_transferred_structures_satisfy_relations(corpus):
    out = transferred_relations(corpus, 4)
    assert out.ok, out.failures


def test_transfer_morphism_satisfies_morphism_equations(corpus):
    out = transfer_morphism_equations(corpus, 3)
    assert out.ok, out.failures


def test_branch_recursion_matches_tree_sum(corpus, massey):
    for r in corpus[:4] + [massey]:
        B1 = transfer_structure(r, max_arity=4)
        B2 = transfer_structure_by_trees(r, max_arity=4)
        for n in range(1, 5):
            assert B1.m(n).entries == B2.m(n).entries


def test_criterion_1_reports_a_tree_sum_mismatch(massey, monkeypatch):
    """Criterion 1 compares the branch recursion with the tree sum entrywise:
    one perturbed m3 entry on the tree side is reported, and nothing else."""

    def perturbed(r, max_arity):
        T = transfer_structure_by_trees(r, max_arity)
        row = next(iter(T.m(3).entries.values()))
        row[next(iter(row))] += 1
        return T

    monkeypatch.setattr(criteria, "transfer_structure_by_trees", perturbed)
    out = transferred_relations([massey], 4)
    assert out.failures == ["algebra 0: recursion != tree sum"]


def test_massey_transfer_is_non_formal_and_exact(massey):
    """The Massey transfer has nonzero m3 and m4, so the relations and the
    morphism equations compare nonzero terms and see the sign of the
    homotopy."""
    st = transfer_structure(massey, max_arity=4)
    assert [len(list(st.m(n).nonzero_entries())) for n in (3, 4)] == [12, 48]
    out = transferred_relations([massey], 4)
    assert out.ok, out.failures
    out = transfer_morphism_equations([massey], 3)
    assert out.ok, out.failures


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("basis_change", [False, True])
def test_koszul_dga_relations_transfer_and_morphism(k, basis_change):
    """The dga Lambda(theta) (x) Q[x]/(x^k) with d theta = x, plain and
    conjugated: its relations (n <= 3), bar_check, the transferred
    relations and the comparison morphism's equations all hold."""
    A = koszul_dga(k)
    if basis_change:
        A = conjugated(A, random.Random(k))
    assert not A.m(1).is_zero()
    for n in range(1, 4):
        assert relation_defect(A, n).is_zero()
    assert bar_check(A, 3).ok
    r = retraction_onto_cohomology(A, random.Random(k))
    out = transferred_relations([r], 4)
    assert out.ok, out.failures
    out = transfer_morphism_equations([r], 4)
    assert out.ok, out.failures


@pytest.mark.parametrize("deg", [1, 2])
def test_unital_massey_dga_transfers_exactly(deg):
    """The Massey dga with a unit of degree 0, with a, b, c of degree 1 or
    2: the unit has deg - 1 odd and a, b, c have even deg - 1 at deg 2, so
    the morphism equations' prefix signs sum_{t<l}(deg a_t - 1) are seen on
    a nonzero m3."""
    A = massey_dga(deg, unit=True)
    for n in range(1, 4):
        assert relation_defect(A, n).is_zero()
    r = retraction_onto_cohomology(A, random.Random(0))
    B1 = transfer_structure(r, max_arity=4)
    assert not B1.m(3).is_zero()
    B2 = transfer_structure_by_trees(r, max_arity=4)
    for n in range(1, 5):
        assert B1.m(n).entries == B2.m(n).entries
        assert relation_defect(B1, n).is_zero()
    out = transfer_morphism_equations([r], 4)
    assert out.ok, out.failures


def test_heisenberg_transfer_agrees_at_every_arity():
    """The transferred Heisenberg structure satisfies its relations for
    n <= 6, the bar check on words of length <= 5 and the morphism
    equations for n <= 5.  Scaling each m_n by eps_n = (-1)^(n(n-1)/2),
    the other sign convention, must fail the relation at arity 5 and the
    bar check at word length 5 and nowhere below: m_2 o m_4 and m_3 o m_3
    are the first pair of terms whose eps_i eps_j differ."""
    rng = random.Random(0)
    r = retraction_onto_cohomology(conjugated(heisenberg_dga(), rng), rng)
    B = transfer_structure(r, 6)
    assert [len(list(B.m(n).nonzero_entries())) for n in range(2, 7)] == [17, 17, 44, 97, 218]
    assert all(relation_defect(B, n).is_zero() for n in range(1, 7))
    assert bar_check(B, 5).ok
    F = transfer_morphism(r, 5)
    assert all(morphism_defect(F, n).is_zero() for n in range(1, 6))

    twisted = AInftyStructure(B.basis, {
        n: MultilinearOp(n, B.basis, B.basis, 2 - n, {
            ins: {o: c * (-1) ** (n * (n - 1) // 2) for o, c in row.items()} for ins, row in op.entries.items()})
        for n, op in B.ops.items()})
    assert [relation_defect(twisted, n).is_zero() for n in range(1, 6)] == [True] * 4 + [False]
    failures = bar_check(twisted, 5).failures
    assert failures and {f.split(":")[0] for f in failures} == {"word length 5"}


def _sign_fixtures():
    """Seeded dgas whose relations and morphism equations reach every sign
    factor: the randomgen families, and the Koszul and unital Massey dgas,
    each plain and conjugated."""
    dgas = [random_dg_algebra(random.Random(seed)) for seed in range(12)]
    plain = [koszul_dga(k) for k in (2, 3)] + [massey_dga(deg, unit=True) for deg in (1, 2)]
    return dgas + plain + [conjugated(A, random.Random(i)) for i, A in enumerate(plain)]


def test_nonzero_defect_values_are_pinned():
    """The entries of nonzero defects hash to the values the per-term sign
    callbacks gave: relation_defect (n <= 3) on a corrupted copy of each
    fixture, and morphism_defect (n <= 4) on each comparison morphism with
    one entry of every component raised by 1.  A zero test cannot see a sign
    moved from one term to another; this can."""
    h = hashlib.sha256()
    count = 0

    def feed(key, op):
        nonlocal count
        for ins, out, c in op.nonzero_entries():
            h.update(repr((key, ins, out, str(Fraction(c)))).encode())
            count += 1

    for i, A in enumerate(_sign_fixtures()):
        rng = random.Random(100 + i)
        bad = corrupt_structure(A, rng)
        for n in range(1, 4):
            feed(("relation", i, n), relation_defect(bad, n))
        F = transfer_morphism(retraction_onto_cohomology(A, rng), 4)
        comps = {}
        for k, op in F.components.items():
            ins, out, c = next(op.nonzero_entries())
            table = {key: dict(row) for key, row in op.entries.items()}
            table[ins][out] = c + 1
            comps[k] = MultilinearOp(k, op.source, op.target, op.shift, table)
        bent = AInftyMorphismData(F.source, F.target, comps)
        for n in range(1, 5):
            feed(("morphism", i, n), morphism_defect(bent, n))
    assert (count, h.hexdigest()) == (
        1098, "129bab1b79f3447cf658ad674fee9ee68e621e049fc88970b3489b308fee7287")


def _lift_scalars(obj, keep_rational=()):
    """The JSON form with every rational {"q": ...} scalar turned into a
    Novikov constant {"nov": ...}, except under the keys in keep_rational."""
    if isinstance(obj, dict):
        if set(obj) == {"q"}:
            return {"nov": NovikovElem.scalar(Fraction(*obj["q"])).to_obj()}
        return {k: v if k in keep_rational else _lift_scalars(v, keep_rational) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_lift_scalars(v, keep_rational) for v in obj]
    return obj


@pytest.mark.parametrize("keep_rational", [(), ("include", "project", "homotopy")])
def test_novikov_retraction_transfers_like_rational(keep_rational):
    """Novikov-valued tables pass through the integer-form kernels: lifting
    every scalar (or only the ambient structure's) to a Novikov constant
    gives the rational transfer entrywise, and its morphism equations hold."""
    rng = random.Random(4)
    r = retraction_onto_cohomology(random_dg_algebra(rng), rng)
    rn = RetractionData.from_obj(_lift_scalars(r.to_obj(), keep_rational))
    assert any(isinstance(c, NovikovElem) for row in rn.ambient.m(2).entries.values() for c in row.values())
    B, Bn = transfer_structure(r, 4), transfer_structure(rn, 4)
    for n in range(1, 5):
        assert Bn.m(n).entries == B.m(n).entries
    out = transfer_morphism_equations([rn], 3)
    assert out.ok, out.failures


def test_invalid_retraction_is_rejected():
    basis = GradedBasis((("x", 0), ("y", 1)))
    A = AInftyStructure(
        basis, {1: MultilinearOp(1, basis, basis, 1, {("x",): {"y": 1}})}
    )
    sub = GradedBasis(((("b",), 0),))
    bad = RetractionData(
        ambient=A,
        sub_basis=sub,
        include=MultilinearOp(1, sub, basis, 0, {(("b",),): {"x": 1}}),
        project=MultilinearOp(1, basis, sub, 0, {("x",): {("b",): 1}}),
        homotopy=MultilinearOp(1, basis, basis, -1, {}),
    )
    rep = validate(bad)
    assert not rep.ok  # x is not a cocycle, so 1 - ip != dH + Hd
    for build in (transfer_structure, transfer_morphism, transfer_structure_by_trees):
        with pytest.raises(ValueError):
            build(bad)


def bent_massey_retraction():
    """A conjugated Massey retraction (seed 5) with one p entry raised by
    1/2 and one H entry by 1/3; its H already has denominators 18, 9, 6
    and 3."""
    r = retraction_onto_cohomology(conjugated(massey_dga(), random.Random(5)), random.Random(5))

    def bent(op, delta):
        table = {ins: dict(row) for ins, row in op.entries.items()}
        ins = min(table, key=repr)
        table[ins][min(table[ins], key=repr)] += delta
        return MultilinearOp(1, op.source, op.target, op.shift, table)

    assert r.homotopy.entries[("w",)]["a"] == Fraction(5, 18)
    return RetractionData(r.ambient, r.sub_basis, r.include, bent(r.project, Fraction(1, 2)),
                          bent(r.homotopy, Fraction(1, 3)))


def test_validate_failure_values_are_pinned():
    """validate composes i, p, H and m_1 as integer forms and prints each
    failing value as the Fraction it stands for."""
    bad = bent_massey_retraction()
    assert sorted(validate(bad).failures) == [
        "(1 - ip - dH - Hd)[a -> a] = 11/9",
        "(1 - ip - dH - Hd)[a -> b] = 3/4",
        "(1 - ip - dH - Hd)[a -> u] = -1/2",
        "(1 - ip - dH - Hd)[a -> v] = 1/2",
        "(1 - ip - dH - Hd)[ab -> ab] = 2/9",
        "(1 - ip - dH - Hd)[ab -> bc] = -4/9",
        "(1 - ip - dH - Hd)[ab -> w] = 1/3",
        "(1 - ip - dH - Hd)[b -> a] = -8/9",
        "(1 - ip - dH - Hd)[c -> a] = 10/9",
        "(1 - ip - dH - Hd)[u -> a] = 2/9",
        "(1 - ip - dH - Hd)[v -> a] = 10/9",
        "(p i)[('h', 1, 0) -> ('h', 1, 0)] = 0, expected 1",
        "(p i)[('h', 1, 1) -> ('h', 1, 0)] = -3/2, expected 0",
        "(p i)[('h', 1, 2) -> ('h', 1, 0)] = 1/2, expected 0",
    ]


def test_validate_commutator_failures_are_pinned():
    """One i entry of the Massey retraction raised by 2/3 onto a, which d
    does not kill: i p no longer commutes with d, and all three identities
    fail, listed in basis order."""
    r = retraction_onto_cohomology(conjugated(massey_dga(), random.Random(5)), random.Random(5))
    table = {ins: dict(row) for ins, row in r.include.entries.items()}
    table[(("h", 1, 0),)]["a"] += Fraction(2, 3)
    include = MultilinearOp(1, r.sub_basis, r.ambient.basis, 0, table)
    bad = RetractionData(r.ambient, r.sub_basis, include, r.project, r.homotopy)
    assert validate(bad).failures == [
        "(p i)[('h', 1, 0) -> ('h', 1, 0)] = 41/27, expected 1",
        "(p i)[('h', 1, 0) -> ('h', 1, 1)] = -4/9, expected 0",
        "(p i)[('h', 1, 0) -> ('h', 1, 2)] = 1/9, expected 0",
        "[d, i p][a -> ab] = -28/81",
        "[d, i p][a -> bc] = 56/81",
        "[d, i p][a -> w] = -14/27",
        "[d, i p][b -> ab] = 80/81",
        "[d, i p][b -> bc] = -160/81",
        "[d, i p][b -> w] = 40/27",
        "[d, i p][c -> ab] = -20/81",
        "[d, i p][c -> bc] = 40/81",
        "[d, i p][c -> w] = -10/27",
        "[d, i p][u -> ab] = -4/81",
        "[d, i p][u -> bc] = 8/81",
        "[d, i p][u -> w] = -2/27",
        "[d, i p][v -> ab] = -32/81",
        "[d, i p][v -> bc] = 64/81",
        "[d, i p][v -> w] = -16/27",
        "(1 - ip - dH - Hd)[a -> a] = -14/27",
        "(1 - ip - dH - Hd)[b -> a] = 40/27",
        "(1 - ip - dH - Hd)[c -> a] = -10/27",
        "(1 - ip - dH - Hd)[u -> a] = -2/27",
        "(1 - ip - dH - Hd)[v -> a] = -16/27",
    ]


def test_validate_novikov_failure_values_are_pinned():
    """The bent Massey retraction with every scalar lifted to a Novikov
    constant fails where the rational one does and prints Novikov values,
    in basis order; a (p i) entry whose terms cancel prints as Nov(0)."""
    bad = RetractionData.from_obj(_lift_scalars(bent_massey_retraction().to_obj()))
    assert validate(bad).failures == [
        "(p i)[('h', 1, 0) -> ('h', 1, 0)] = Nov(0), expected 1",
        "(p i)[('h', 1, 1) -> ('h', 1, 0)] = Nov(-3/2*q^0), expected 0",
        "(p i)[('h', 1, 2) -> ('h', 1, 0)] = Nov(1/2*q^0), expected 0",
        "(1 - ip - dH - Hd)[a -> a] = Nov(11/9*q^0)",
        "(1 - ip - dH - Hd)[a -> b] = Nov(3/4*q^0)",
        "(1 - ip - dH - Hd)[a -> u] = Nov(-1/2*q^0)",
        "(1 - ip - dH - Hd)[a -> v] = Nov(1/2*q^0)",
        "(1 - ip - dH - Hd)[b -> a] = Nov(-8/9*q^0)",
        "(1 - ip - dH - Hd)[c -> a] = Nov(10/9*q^0)",
        "(1 - ip - dH - Hd)[u -> a] = Nov(2/9*q^0)",
        "(1 - ip - dH - Hd)[v -> a] = Nov(10/9*q^0)",
        "(1 - ip - dH - Hd)[ab -> ab] = Nov(2/9*q^0)",
        "(1 - ip - dH - Hd)[ab -> bc] = Nov(-4/9*q^0)",
        "(1 - ip - dH - Hd)[ab -> w] = Nov(1/3*q^0)",
    ]


def test_validate_failure_order_is_the_same_under_every_hash_seed():
    """validate walks target labels in basis order, not in the order of a
    set of str labels, so its failure list and the first three failures
    quoted by transfer's ValueError do not depend on PYTHONHASHSEED."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(tests.parent / "src"), os.environ.get("PYTHONPATH")) if p)}
    code = (f"import sys\nsys.path.insert(0, {str(tests)!r})\n"
            "from test_transfer import bent_massey_retraction\n"
            "from torusmirror.transfer import transfer_structure, validate\n"
            "bad = bent_massey_retraction()\n"
            "print(validate(bad).failures)\n"
            "try:\n    transfer_structure(bad, 3)\nexcept ValueError as e:\n    print(e)\n")
    outs = []
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, "PYTHONHASHSEED": seed}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "invalid retraction data: " in proc.stdout
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_retraction_corpus_values_are_pinned():
    """Every value and the insertion order of i, p and H, over criterion 1's
    corpus and three conjugated Massey retractions.  Every row lists its
    outputs in basis order.  The pin is the tables as built before i, p and
    H became matrices, with the rows put in basis order: that build listed
    a Massey H row's outputs in the order the terms of its sum first
    reached them, and everything else as now."""
    rs = retraction_corpus(20240901, 50) + [
        retraction_onto_cohomology(conjugated(A, random.Random(seed)), random.Random(seed))
        for seed, A in enumerate((massey_dga(), massey_dga(deg=2), massey_dga(unit=True)))]
    h = hashlib.sha256()
    for r in rs:
        h.update(json.dumps(r.to_obj(), sort_keys=True).encode())
        for op in (r.include, r.project, r.homotopy):
            outs = op.target.labels
            assert all(list(row) == [o for o in outs if o in row] for row in op.entries.values())
            h.update(repr(list(op.entries.items())).encode())
    assert h.hexdigest() == "820c96a4e169ea3dda368590076ad9ef9fe056dd2be08cd3a7c51ab3d19db5d4"


def test_contractible_complex_transfers_to_zero():
    basis = GradedBasis((("x", 0), ("y", 1)))
    d = MultilinearOp(1, basis, basis, 1, {("x",): {"y": 1}})
    A = AInftyStructure(basis, {1: d})
    r = retraction_onto_cohomology(A, random.Random(1))
    assert len(r.sub_basis) == 0
    B = transfer_structure(r, max_arity=3)
    assert all(B.m(n).is_zero() for n in range(1, 4))


def test_retraction_json_roundtrip(corpus):
    r = corpus[0]
    obj = json.loads(json.dumps(r.to_obj()))
    r2 = RetractionData.from_obj(obj)
    assert validate(r2).ok
    B1 = transfer_structure(r, max_arity=3)
    B2 = transfer_structure(r2, max_arity=3)
    for n in range(1, 4):
        assert B1.m(n).entries == B2.m(n).entries


# -- the recursion against its reference model --------------------------------


def g_recursion(r, max_arity):
    """Reference model: the branch recursion on g,

        q_n = sum_k sum_{n_1+...+n_k=n} b_k o (g_{n_1} x ... x g_{n_k}),
        g_1 = i,   g_n = -H o q_n,   b_n^B = p o q_n,

    on the converted inputs of the suspended transfer.  Returns the rational
    b_n^B for 2 <= n <= max_arity and g_n for 2 <= n < max_arity."""
    st = transfer._SuspendedTransfer(r)
    g, bB = {1: st.i}, {}
    for n in range(2, max_arity + 1):
        q = _sum_pairs([_compose_pairs(st.b[k], [g[m] for m in parts])
                        for k in range(2, n + 1) if k in st.b for parts in compositions(n, k)])
        g[n] = _compose_pairs(st.H, [q])
        bB[n] = _rational(*_compose_pairs(st.p, [q]))
    return bB, {n: _rational(*g[n]) for n in range(2, max_arity)}


def nonzero(table):
    """The table without its zero entries and empty rows."""
    rows = {ins: {o: c for o, c in row.items() if c != 0} for ins, row in table.items()}
    return {ins: row for ins, row in rows.items() if row}


def _reference_inputs(corpus):
    """The conjugated Massey dga without a unit, the Massey dgas with a unit
    (a, b, c of degree 1 and 2), the plain and conjugated Koszul dgas, the
    randomgen corpus, and a Novikov-lifted randomgen retraction."""
    rng = random.Random(5)
    dgas = [conjugated(massey_dga(), rng), massey_dga(1, unit=True), massey_dga(2, unit=True)]
    dgas += [koszul_dga(k) for k in (2, 3)] + [conjugated(koszul_dga(k), rng) for k in (2, 3)]
    rs = [retraction_onto_cohomology(A, rng) for A in dgas] + list(corpus)
    rng = random.Random(4)
    r = retraction_onto_cohomology(random_dg_algebra(rng), rng)
    return rs + [RetractionData.from_obj(_lift_scalars(r.to_obj()))]


def test_recursion_on_the_domain_of_h_matches_the_g_recursion(corpus):
    """The vertex-table recursion gives the reference model's rational b_n^B
    (n <= 5) and g_n (n <= 4), on inputs that transfer to nonzero m_3..m_5."""
    reached = set()
    for r in _reference_inputs(corpus):
        bB, g = g_recursion(r, 5)
        st = transfer._suspended(r)
        for n in range(2, 6):
            assert nonzero(st.bB_table(n)) == nonzero(bB[n]), n
            if nonzero(bB[n]):
                reached.add(n)
        for n in range(2, 5):
            assert nonzero(st.g_table(n)) == nonzero(g[n]), n
    assert reached == {2, 3, 4, 5}


# -- the memo of the last retraction ------------------------------------------


def entries(*results):
    """The tables of transferred structures and morphisms, copied."""
    ops = {}
    for k, x in enumerate(results):
        items = x.ops.items() if isinstance(x, AInftyStructure) else x.components.items()
        ops.update({(k, n): {ins: dict(row) for ins, row in op.entries.items()} for n, op in items})
    return ops


@pytest.fixture
def validations(monkeypatch):
    """Start from an empty memo and count the calls of transfer.validate."""
    calls = []

    def counted(r):
        calls.append(r)
        return validate(r)

    monkeypatch.setattr(transfer, "_last", None)
    monkeypatch.setattr(transfer, "validate", counted)
    return calls


def test_memo_sees_in_place_edits_of_the_homotopy(validations):
    """The key reads H: after a first transfer, an invalid in-place edit of
    r.homotopy.entries raises, and a valid one gives what a fresh copy of
    the edited retraction gives, not the stale result."""
    r = retraction_onto_cohomology(massey_dga(), random.Random(0))
    before = entries(transfer_structure(r, 4), transfer_morphism(r, 4))
    row = r.homotopy.entries.setdefault(("w",), {})
    row["u"] = row.get("u", 0) + 1  # d u = ab, so dH + Hd moves at w
    with pytest.raises(ValueError):
        transfer_structure(r, 4)
    row["u"] -= 1
    # w -> a vanishes on im d = <ab, bc> and lands in ker d, so it commutes
    # with d and H + (w -> a) is a homotopy for the same i, p
    row["a"] = row.get("a", 0) + 1
    after = entries(transfer_structure(r, 4), transfer_morphism(r, 4))
    transfer._last = None
    fresh = copy.deepcopy(r)
    assert after == entries(transfer_structure(fresh, 4), transfer_morphism(fresh, 4))
    assert after != before
    assert len(validations) == 4


def test_memo_results_are_not_shared(massey, validations):
    """Clearing the returned tables in place changes no later result."""
    B, F = transfer_structure(massey, 4), transfer_morphism(massey, 4)
    want = entries(B, F)
    for op in list(B.ops.values()) + list(F.components.values()):
        for row in op.entries.values():
            row.clear()
    assert entries(transfer_structure(massey, 4), transfer_morphism(massey, 4)) == want
    assert len(validations) == 1


def test_memo_holds_one_retraction(corpus, validations):
    """A structure and morphism pair validates its retraction once; the memo
    keeps the last retraction only, so going back to one validates again,
    and a copy whose entries come in another order misses."""
    r, s = corpus[0], corpus[1]
    transfer_structure(r, 3)
    transfer_morphism(r, 3)
    assert validations == [r]
    transfer_structure(s, 3)
    transfer_morphism(r, 3)
    assert validations == [r, s, r]
    turned = copy.deepcopy(r)
    m2 = turned.ambient.ops[2]
    m2.entries = dict(reversed(m2.entries.items()))
    assert m2.entries == r.ambient.ops[2].entries and len(m2.entries) > 1
    transfer_structure(turned, 3)
    assert validations == [r, s, r, turned]


def test_transfer_module_validates_once_per_pass(validations):
    """suite's transfer module: criteria 1 and 2 each pass over the corpus
    once, and every check of one retraction in a pass shares one validation."""
    out = criteria.run_module("transfer", "suite", 20240901)
    assert out.ok, out.failures
    assert len(validations) == 2 * criteria.SIZES["suite"]["transfer"]["count"]


def test_each_pass_builds_only_its_own_tables(monkeypatch, validations):
    """transfer_structure(r, 5) builds no g_n and no q_5; transfer_morphism(r, 4)
    then reuses the kept b_n^B and q_n, composing -H once for each of
    g_2..g_4; editing a returned component in place changes no later result."""
    rng = random.Random(3)
    r = retraction_onto_cohomology(conjugated(massey_dga(), rng), rng)

    def refuse(self, n):
        raise RuntimeError("transfer_structure built a g_n")

    with monkeypatch.context() as m:
        m.setattr(transfer._SuspendedTransfer, "g_pair", refuse)
        assert not transfer_structure(r, 5).m(5).is_zero()
    assert sorted(transfer._suspended(r).q) == [2, 3, 4]

    calls = []

    def counted(outer, slots):
        calls.append(outer)
        return _compose_pairs(outer, slots)

    with monkeypatch.context() as m:
        m.setattr(transfer, "_compose_pairs", counted)
        F = transfer_morphism(r, 4)
    assert len(calls) == 3
    want = entries(F)
    for op in F.components.values():
        for row in op.entries.values():
            for o in row:
                row[o] += 1
    assert entries(transfer_morphism(r, 4)) == want
    assert validations == [r]


def test_tree_sum_reads_no_recursion_table(massey, monkeypatch):
    """The tree sum computes its own terms: with the recursion's vertex and
    term helpers, q_n, g_n and b_n^B out of reach it still returns the
    branch recursion's tables."""
    B = transfer_structure(massey, 4)

    def refuse(self, *args):
        raise RuntimeError("the tree sum read the branch recursion")

    for name in ("vertex", "terms", "q_pair", "g_pair", "g_table", "bB_table"):
        monkeypatch.setattr(transfer._SuspendedTransfer, name, refuse)
    T = transfer_structure_by_trees(massey, 4)
    assert all(B.m(n).entries == T.m(n).entries for n in range(1, 5))
    assert not T.m(4).is_zero()
