"""The acceptance criteria, each defined once.

Every function runs one family of exact checks at the sizes it is given
and returns an :class:`Outcome`: one label per case checked, one string
per failed check, and any figures worth reporting.  Every size lives in
:data:`SIZES`, one scale for ``torusmirror suite`` and one for the
acceptance gate, and :func:`run_module` runs one module at one scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, List, Sequence

from . import morse
from .ainfty import assemble_sequence, bar_check, morphism_defect, relation_defect
from .fukaya_oh import AffineLagrangian, fukaya_sequence, mk_vanishing_certificate
from .mirror import mirror_compare
from .monge import (
    ConvexGridFunction,
    hessian_duality_check,
    involution_error,
    legendre,
    ma_residual,
)
from .novikov import NovikovElem
from .randomgen import corrupt_structure, random_dg_algebra, retraction_onto_cohomology
from .transfer import (RetractionData, transfer_morphism, transfer_structure,
                       transfer_structure_by_trees, validation)
from .trees import enumerate_binary, enumerate_trees


@dataclass
class Outcome:
    cases: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    figures: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, failure: str) -> bool:
        if not ok:
            self.failures.append(failure)
        return ok

    def all_zero(self, defect, x, arities, name: str) -> bool:
        """Check defect(x, n) == 0 for every n, recording each that is not."""
        return all([self.check(defect(x, n).is_zero(), f"{name} defect at arity {n}")
                    for n in arities])


def _exact(ok: bool) -> str:
    return "exact" if ok else "BROKEN"


def circle_sections(slopes: Sequence, shifts: Sequence) -> List[AffineLagrangian]:
    """Affine sections y -> s y + b of the circle fibration, trivial holonomy."""
    if len(slopes) != len(shifts):
        raise ValueError(f"{len(slopes)} slopes but {len(shifts)} shifts")
    return [AffineLagrangian(((s,),), (b,)) for s, b in zip(slopes, shifts)]


def novikov_laws(seed: int, count: int) -> Outcome:
    """Field, valuation and truncation laws on seeded exact elements with
    up to four terms and exponents in [0, 10]."""
    rng = random.Random(seed)

    def elem():
        return NovikovElem([
            (Fraction(rng.randint(0, 40), 4), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        ])

    out = Outcome()
    zero, one = NovikovElem.zero(), NovikovElem.one()
    for case in range(count):
        a, b, c = elem(), elem(), elem()
        lam = Fraction(rng.randint(4, 48), 4)
        s, at = a + b, a.truncate(lam)
        laws = [
            ((a + b) + c == a + (b + c), "add associativity"),
            (s == b + a, "add commutativity"),
            ((a * b) * c == a * (b * c), "mul associativity"),
            (a * b == b * a, "mul commutativity"),
            (a * (b + c) == a * b + a * c, "distributivity"),
            (a + zero == a, "additive identity"),
            (a * one == a, "multiplicative identity"),
            (a + (-a) == zero, "additive inverse"),
            ((at * b.truncate(lam)).truncate(lam) == (a * b).truncate(lam),
             "truncation multiplicative homomorphism"),
            (at + b.truncate(lam) == s.truncate(lam), "truncation additive homomorphism"),
        ]
        if not a.is_zero() and not b.is_zero():
            low = min(a.val(), b.val())
            laws.append(((a * b).val() == a.val() + b.val(), "valuation of product"))
            laws.append((s.is_zero() or s.val() >= low, "valuation ultrametric"))
            if a.val() != b.val():
                laws.append((s.val() == low, "valuation ultrametric equality"))
            if not at.is_zero():
                prod = at * at.inv()
                laws.append((prod == NovikovElem.one(prod.cutoff), "multiplicative inverse"))
        out.cases.append(f"case {case}")
        out.failures += [f"case {case}: {name}" for ok, name in laws if not ok]
    return out


def tree_counts(max_leaves: int) -> Outcome:
    """Planar trees with n <= max_leaves leaves against the little-Schroeder
    and Catalan recurrences, whose prefixes are checked against the known
    sequences."""
    top = max(max_leaves, 6)
    catalan, schroeder = {1: 1}, {1: 1, 2: 1}
    for n in range(2, top + 1):
        catalan[n] = sum(catalan[i] * catalan[n - i] for i in range(1, n))
    for n in range(2, top):
        schroeder[n + 1] = (
            3 * (2 * n - 1) * schroeder[n] - (n - 2) * schroeder[n - 1]
        ) // (n + 1)
    out = Outcome()
    out.check([schroeder[n] for n in range(1, 7)] == [1, 1, 3, 11, 45, 197],
              "little Schroeder oracle prefix")
    out.check([catalan[n] for n in range(1, 7)] == [1, 1, 2, 5, 14, 42], "Catalan oracle prefix")
    for n in range(1, max_leaves + 1):
        trees, binary = len(enumerate_trees(n)), len(enumerate_binary(n))
        out.check(trees == schroeder[n], f"enumerate_trees({n}) != little Schroeder")
        out.check(binary == catalan[n], f"enumerate_binary({n}) != Catalan")
        out.cases.append(f"{n} leaves: {trees} trees, {binary} binary")
    return out


def retraction_corpus(seed: int, count: int) -> List[RetractionData]:
    """Seeded dg-algebras with exact retractions onto their cohomology."""
    rng = random.Random(seed)
    return [retraction_onto_cohomology(random_dg_algebra(rng), rng) for _ in range(count)]


def transferred_relations(corpus: Sequence[RetractionData], max_arity: int) -> Outcome:
    """The transferred structure satisfies its relations exactly for
    n <= max_arity on every retraction, which must be valid, and the branch
    recursion agrees entrywise with the explicit sum over planar trees."""
    out = Outcome()
    for i, r in enumerate(corpus):
        if not out.check(validation(r).ok, f"algebra {i}: invalid retraction"):
            out.cases.append(f"algebra {i:3d}  invalid retraction")
            continue
        B = transfer_structure(r, max_arity=max_arity)
        T = transfer_structure_by_trees(r, max_arity=max_arity)
        out.check(all(B.m(k).entries == T.m(k).entries for k in range(1, max_arity + 1)),
                  f"algebra {i}: recursion != tree sum")
        ok = out.all_zero(relation_defect, B, range(1, max_arity + 1), f"algebra {i}: relation")
        out.cases.append(f"algebra {i:3d}  dim {len(r.ambient.basis)} -> {len(B.basis)}  "
                         f"relations<={max_arity} {_exact(ok)}")
    return out


def transfer_morphism_equations(corpus: Sequence[RetractionData], max_arity: int) -> Outcome:
    """The comparison morphism satisfies its equations exactly for
    n <= max_arity on every retraction, which must be valid."""
    out = Outcome()
    for i, r in enumerate(corpus):
        if not out.check(validation(r).ok, f"algebra {i}: invalid retraction"):
            out.cases.append("invalid retraction")
            continue
        F = transfer_morphism(r, max_arity=max_arity)
        ok = out.all_zero(morphism_defect, F, range(1, max_arity + 1), f"algebra {i}: morphism")
        out.cases.append(f"morphism<={max_arity} {_exact(ok)}")
    return out


def transfer_corpus(seed: int, count: int, relations_to: int, morphism_to: int) -> Outcome:
    """Relations and morphism equations on one seeded corpus, one case per retraction."""
    corpus = retraction_corpus(seed, count)
    rel = transferred_relations(corpus, relations_to)
    mor = transfer_morphism_equations(corpus, morphism_to)
    cases = [f"{a}  {b}" for a, b in zip(rel.cases, mor.cases)]
    return Outcome(cases, rel.failures + mor.failures)


def sign_agreement(seed: int, count: int, corrupted: int) -> Outcome:
    """relation_defect and bar_check name the same first failing arity
    (n <= 3) on seeded dg-algebras.  The first `corrupted` of them are broken
    by corrupt_structure and must be detected; the rest must pass."""
    rng = random.Random(seed)
    out = Outcome(figures={"detected": 0})
    for i in range(count):
        A = random_dg_algebra(rng)
        broken = i < corrupted
        if broken:
            A = corrupt_structure(A, rng)
        rel = next((n for n in (1, 2, 3) if not relation_defect(A, n).is_zero()), None)
        bar = bar_check(A, 3)
        bar_n = None if bar.ok else min(int(f.split()[2].rstrip(":")) for f in bar.failures)
        out.check(rel == bar_n, f"structure {i}: relation says {rel}, bar says {bar_n}")
        if broken:
            out.figures["detected"] += rel is not None
            out.check(rel is not None, f"structure {i}: corruption not detected")
        else:
            out.check(rel is None, f"structure {i}: valid structure flagged")
        kind = "corrupted" if broken else "valid"
        out.cases.append(f"structure {i}: {kind}, relation {rel}, bar {bar_n}")
    return out


def morse_triples(seed: int, count: int) -> Outcome:
    """On `count` seeded transversal triples of trig polynomials, the
    composed Morse structure satisfies its relations for n <= 3 and every
    pairwise complex has cohomology ranks (1, 1)."""
    rng = random.Random(seed)

    def trig():
        return morse.TrigPolynomial.from_dicts(
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
            {k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
        )

    pairs = ((0, 1), (1, 2), (0, 2))
    out = Outcome(figures={"drawn": 0})
    while len(out.cases) < count:
        f = trig(), trig(), trig()
        out.figures["drawn"] += 1
        if not morse.transversal_triple(*f):
            continue
        t = len(out.cases)
        hom = {(i, j): morse.critical_points(f[i] - f[j]).basis() for i, j in pairs}
        comps = {(i, j): morse.morse_differential(f[i], f[j]) for i, j in pairs}
        comps[(0, 1, 2)] = morse.m2(*f)
        A = assemble_sequence((0, 1, 2), hom, comps)
        ok = out.all_zero(relation_defect, A, (1, 2, 3), f"triple {t}: relation")
        ranks = [morse.cohomology_ranks(comps[p]) for p in pairs]
        for p, rk in zip(pairs, ranks):
            out.check(rk == (1, 1), f"triple {t}: cohomology ranks != (1,1) on {p}")
        sizes = tuple(len(hom[p]) for p in pairs)
        out.cases.append(f"triple {t:3d}  crit points {sizes}  ranks {ranks}  "
                         f"relations {_exact(ok)}")
    return out


def mirror_grid(slope_triples: Sequence, shift_triples: Sequence, cutoff: Fraction) -> Outcome:
    """mirror_compare says EQUAL below the cutoff on every slope triple
    combined with every shift triple."""
    out = Outcome()
    for slopes, shifts in product(slope_triples, shift_triples):
        rep = mirror_compare(*circle_sections(slopes, shifts), cutoff)
        name = f"slopes ({','.join(map(str, slopes))})  shifts ({','.join(map(str, shifts))})"
        out.check(rep.equal, f"{name}: {rep.status}")
        verdict = "EQUAL" if rep.equal else f"DIFFER at {rep.first_discrepancy}"
        out.cases.append(f"{name}  {verdict}")
    return out


def fukaya_associativity(quadruples: Sequence, cutoff: Fraction) -> Outcome:
    """On each slope quadruple, m2 is associative below the cutoff (the
    arity-3 relation of the sequence) and m3 vanishes for degree reasons."""
    out = Outcome()
    for quad in quadruples:
        ls = circle_sections(quad, [0] * len(quad))
        assoc = out.check(relation_defect(fukaya_sequence(ls, cutoff), 3).is_zero(),
                          f"quadruple {quad}: associativity defect")
        cert = out.check(mk_vanishing_certificate(ls, 3).certified,
                         f"quadruple {quad}: m3 certificate refused")
        out.cases.append(f"slopes {quad}  associativity {_exact(assoc)}  "
                         f"m3 {'certified zero' if cert else 'NOT certified'}")
    return out


def legendre_duality(grids: Sequence[Fraction]) -> Outcome:
    """Discrete Legendre duality on each grid step h, with C = 1.

    The quartic x^4/4 on [1/2, 1] has involution and Hessian-determinant
    errors <= C h^2, and a determinant error <= 0.01 without margin.  The
    quadratics a x^2/2, a in {1, 2, 1/2}, have involution errors
    <= min(C h^2, 1e-10) and Monge-Ampere residuals, primal and dual,
    <= 10 C h^2.  Over two or more grids the observed orders of the quartic
    errors between the coarsest and finest grid must be >= 1.8.  The
    quartic's errors on each grid are the figures "involution h=<h>" and
    "det h=<h>"."""
    C = 1.0
    box, dual_box = [(Fraction(1, 2), Fraction(1))], [(Fraction(1, 4), Fraction(3, 4))]
    out = Outcome()
    for h in grids:
        bound = C * float(h) ** 2
        K = ConvexGridFunction.sample(lambda x: 0.25 * x**4, box, h)
        e_inv = involution_error(K, dual_box, h)
        e_det = hessian_duality_check(K, dual_box, h, margin=0.1).max_det_error
        out.check(e_inv <= bound, f"quartic involution error {e_inv:.3e} at h={h}")
        out.check(e_det <= bound, f"quartic det product error {e_det:.3e} at h={h}")
        out.check(hessian_duality_check(K, dual_box, h).max_det_error <= 0.01,
                  f"quartic det error without margin too large at h={h}")
        out.figures[f"involution h={h}"] = e_inv
        out.figures[f"det h={h}"] = e_det
        out.cases.append(f"quartic h={h}: involution {e_inv:.3e}, det {e_det:.3e}")
        for a in (Fraction(1), Fraction(2), Fraction(1, 2)):
            K = ConvexGridFunction.sample(lambda x, a=a: 0.5 * float(a) * x * x, [(-1, 1)], h)
            qbox = [(-a / 2, a / 2)]
            out.check(involution_error(K, qbox, h) <= min(bound, 1e-10),
                      f"quadratic a={a} involution error at h={h}")
            out.check(ma_residual(K) <= 10 * bound, f"quadratic a={a} MA residual at h={h}")
            out.check(ma_residual(legendre(K, qbox, h)) <= 10 * bound,
                      f"quadratic a={a} dual MA residual at h={h}")
        out.cases.append(f"quadratic h={h}: a in 1, 2, 1/2")
    if len(grids) >= 2:
        span = math.log2(grids[0] / grids[-1])
        for name in ("involution", "det"):
            e0, e1 = out.figures[f"{name} h={grids[0]}"], out.figures[f"{name} h={grids[-1]}"]
            order = out.figures[f"{name}_order"] = math.log2(e0 / e1) / span
            out.check(order >= 1.8, f"{name} order {order:.2f} < 1.8")
    return out


# The size arguments of each module's check, at two scales: "suite" is the
# default of `torusmirror suite`, "acceptance" the gate's (the acceptance
# tests and `torusmirror suite --scale acceptance`).
SIZES = {
    "suite": {
        "novikov": {"count": 200},
        "trees": {"max_leaves": 6},
        "transfer": {"count": 10, "relations_to": 4, "morphism_to": 3},
        "signs": {"count": 20, "corrupted": 5},
        "morse": {"count": 5},
        "fo": {"quadruples": ((0, 1, 2, 3), (0, 1, 3, 4)), "cutoff": Fraction(12)},
        "mirror": {"slope_triples": ((0, 1, 2), (0, 2, 3), (1, 2, 3), (1, 3, 4)),
                   "shift_triples": ((0, 0, 0), (0, Fraction(1, 2), 0)),
                   "cutoff": Fraction(15)},
        "legendre": {"grids": (Fraction(1, 32),)},
    },
    "acceptance": {
        "novikov": {"count": 1000},
        "trees": {"max_leaves": 7},
        "transfer": {"count": 50, "relations_to": 5, "morphism_to": 4},
        "signs": {"count": 100, "corrupted": 20},
        "morse": {"count": 20},
        "fo": {"quadruples": ((0, 1, 2, 3), (0, 1, 3, 4)), "cutoff": Fraction(20)},
        "mirror": {"slope_triples": tuple(combinations(range(4), 3)),
                   "shift_triples": tuple(product((0, Fraction(1, 2)), repeat=3)),
                   "cutoff": Fraction(25)},
        "legendre": {"grids": (Fraction(1, 16), Fraction(1, 32), Fraction(1, 64))},
    },
}


def run_module(name: str, scale: str, seed: int) -> Outcome:
    """Run the check of module `name` at the sizes SIZES[scale][name]; the
    seeded checks take `seed` first."""
    s = SIZES[scale][name]
    seeded = {"novikov": novikov_laws, "transfer": transfer_corpus,
              "signs": sign_agreement, "morse": morse_triples}
    if name in seeded:
        return seeded[name](seed, **s)
    return {"trees": tree_counts, "fo": fukaya_associativity, "mirror": mirror_grid,
            "legendre": legendre_duality}[name](**s)
