"""Homotopy transfer: retraction validation, transferred structure
relations, the comparison morphism, and the tree-sum cross-check."""

import json
import random
from fractions import Fraction

import pytest

from torusmirror.ainfty import AInftyStructure, GradedBasis, MultilinearOp
from torusmirror.criteria import (
    retraction_corpus,
    transfer_morphism_equations,
    transferred_relations,
)
from torusmirror.novikov import NovikovElem
from torusmirror.randomgen import random_dg_algebra, retraction_onto_cohomology
from torusmirror.transfer import (
    RetractionData,
    transfer_structure,
    transfer_structure_by_trees,
    tree_term,
    validate,
)
from torusmirror.trees import enumerate_trees


def massey_dga():
    """A dga with a nonzero Massey product <a, b, c> = w: du = ab, dv = bc,
    a.b = ab, b.c = bc, u.c = a.v = w.  Its transfer has nonzero m3 and m4,
    whereas the seeded corpus transfers to zero above arity 2."""
    B = GradedBasis(
        (("a", 1), ("b", 1), ("c", 1), ("u", 1), ("v", 1), ("ab", 2), ("bc", 2), ("w", 2))
    )
    d = MultilinearOp(1, B, B, 1, {("u",): {"ab": 1}, ("v",): {"bc": 1}})
    m = MultilinearOp(2, B, B, 0, {
        ("a", "b"): {"ab": 1}, ("b", "c"): {"bc": 1}, ("u", "c"): {"w": 1}, ("a", "v"): {"w": 1},
    })
    return AInftyStructure(B, {1: d, 2: m})


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
            assert (B1.m(n) - B2.m(n)).is_zero()


def test_single_tree_terms_sum_to_ternary_product(corpus, massey):
    """The arity-3 product is the signed sum of the three planar trees with
    three leaves, expanded one tree at a time; on the Massey input that sum
    is nonzero, so the sign of each tree is seen."""
    from torusmirror.transfer import _suspension_signed

    for r in (corpus[0], massey):
        total = {}
        for t in enumerate_trees(3, 2):
            for ins, row in tree_term(r, t).items():
                dst = total.setdefault(ins, {})
                for o, c in row.items():
                    dst[o] = dst.get(o, 0) + c
        expected = _suspension_signed(total, r.sub_basis.degrees)
        cleaned = {
            ins: {o: c for o, c in row.items() if c != 0}
            for ins, row in expected.items()
        }
        cleaned = {ins: row for ins, row in cleaned.items() if row}
        assert cleaned == transfer_structure(r, max_arity=3).m(3).entries
    assert cleaned  # the Massey tree total


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
    with pytest.raises(ValueError):
        transfer_structure(bad)


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
        assert (B1.m(n) - B2.m(n)).is_zero()
