"""Seeded corpus of graded differential algebras and valid retractions.

Random structure constants are almost never associative, so the corpus is
drawn from structured families that are associative by construction —

* truncated polynomial times one odd generator,
* an exterior algebra on two odd generators,
* the path algebra of the quiver . -> . with a graded arrow —

with the differential given by the graded commutator against a square-zero
odd element, then conjugated by a random invertible degree-0 basis change.

Retractions onto cohomology are built by exact linear algebra: per degree,
split  A^k = B^k (+) im d (+) C^k  with random complements, set H = d^{-1}
on im d and 0 elsewhere.  These satisfy the usual side conditions
(H i = 0, p H = 0, H^2 = 0) on top of the required identities.  Vectors are
tuples of Fractions; kernels, ranks, determinants, inverses and products
come from ``lattice``, whose results are canonical, so a seed fixes every
draw.  Every linear map built here (i, p and H, and the basis change g and
its inverse) is a matrix, turned into a sparse table by ``_table``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .ainfty import AInftyStructure, GradedBasis, MultilinearOp, compose
from .lattice import Vec, mat_det, mat_inv, mat_mul, mat_vec, nullspace, rank, vec
from .transfer import RetractionData

Q = Fraction


# ---------------------------------------------------------------------------
# associative families (basis labels with degrees, multiplication table)
# ---------------------------------------------------------------------------


def _family_poly_times_odd(rng: random.Random):
    """Lambda(theta) tensor Q[x]/(x^k); theta odd, x even."""
    k = rng.randint(2, 3)
    deg_t = rng.choice([1, 3])
    deg_x = rng.choice([0, 2])
    basis = []
    for e in (0, 1):
        for j in range(k):
            basis.append(((e, j), e * deg_t + j * deg_x))
    mul = {}
    for e1, j1 in (l for l, _ in basis):
        for e2, j2 in (l for l, _ in basis):
            if e1 + e2 <= 1 and j1 + j2 < k:
                mul[((e1, j1), (e2, j2))] = {(e1 + e2, j1 + j2): Q(1)}
    # square-zero elements of degree 1 for the differential
    units = [lab for lab, d in basis if d == 1 and lab[0] == 1]
    return basis, mul, units


def _family_exterior_two(rng: random.Random):
    """Lambda(theta_1, theta_2) with odd generator degrees."""
    d1 = 1
    d2 = rng.choice([1, 3])
    basis = [((), 0), ((1,), d1), ((2,), d2), ((1, 2), d1 + d2)]

    def wedge(a: Tuple[int, ...], b: Tuple[int, ...]):
        if set(a) & set(b):
            return None
        merged = list(a) + list(b)
        sign = 1
        # bubble sort counting transpositions of odd generators
        for i in range(len(merged)):
            for j in range(len(merged) - 1 - i):
                if merged[j] > merged[j + 1]:
                    merged[j], merged[j + 1] = merged[j + 1], merged[j]
                    sign = -sign
        return tuple(merged), sign

    mul = {}
    for a, _ in basis:
        for b, _ in basis:
            w = wedge(a, b)
            if w is not None:
                mul[(a, b)] = {w[0]: Q(w[1])}
    units = [(1,)] + ([(2,)] if d2 == 1 else [])
    return basis, mul, units


def _family_quiver(rng: random.Random):
    """Path algebra of . -> . : idempotents e1, e2 and an arrow of degree 1."""
    basis = [("e1", 0), ("e2", 0), ("a", 1)]
    mul = {
        ("e1", "e1"): {"e1": Q(1)},
        ("e2", "e2"): {"e2": Q(1)},
        ("e1", "a"): {"a": Q(1)},
        ("a", "e2"): {"a": Q(1)},
    }
    units = ["a"]
    return basis, mul, units


_FAMILIES = [_family_poly_times_odd, _family_exterior_two, _family_quiver]


def random_dg_algebra(rng: random.Random) -> AInftyStructure:
    """A seeded differential graded algebra (operations m_1, m_2 only)."""
    basis_pairs, mul, units = rng.choice(_FAMILIES)(rng)
    labels = [l for l, _ in basis_pairs]
    degs = dict(basis_pairs)

    # differential: graded commutator with u = c * (random square-zero unit)
    diff: Dict[Tuple, Dict] = {}
    if units and rng.random() < 0.8:
        u = rng.choice(units)
        c = Q(rng.choice([1, -1, 2]))
        for a in labels:
            row: Dict = {}
            for o, v in mul.get((u, a), {}).items():
                row[o] = row.get(o, 0) + c * v
            sgn = -1 if degs[a] % 2 else 1
            for o, v in mul.get((a, u), {}).items():
                row[o] = row.get(o, 0) - sgn * c * v
            row = {o: v for o, v in row.items() if v != 0}
            if row:
                diff[(a,)] = row

    return _conjugate(basis_pairs, diff, mul, rng)


def _conjugate(basis_pairs, diff, mul, rng: random.Random) -> AInftyStructure:
    """Apply a random invertible degree-0 change of basis g:
    m'(a_1, ..., a_n) = g^{-1} m(g a_1, ..., g a_n)."""
    labels = [l for l, _ in basis_pairs]
    degs = dict(basis_pairs)

    # block-diagonal random invertible matrix over Q (per degree), as
    # tables of g and its inverse
    g, ginv = {}, {}
    for d in sorted(set(degs.values())):
        block = [l for l in labels if degs[l] == d]
        while True:
            M = [[Q(rng.randint(-2, 2)) for _ in block] for _ in block]
            if mat_det(M) != 0:
                break
        g.update(_table(M, block, block))
        ginv.update(_table(mat_inv(M), block, block))

    B = GradedBasis(tuple(basis_pairs))
    ops = {}
    for n, table in ((1, diff), (2, mul)):
        op = MultilinearOp(n, B, B, 2 - n, compose(ginv, [compose(table, [g] * n)]))
        if not op.is_zero():
            ops[n] = op
    return AInftyStructure(B, ops)


# ---------------------------------------------------------------------------
# retraction onto cohomology
# ---------------------------------------------------------------------------


def _table(M, ins, outs) -> Dict:
    """The arity-1 table of the matrix M: column c is the image of ins[c] in
    the basis outs, listed in the order of outs.  Zero entries and empty
    rows are dropped."""
    table: Dict = {}
    for c, a in enumerate(ins):
        row = {o: M[r][c] for r, o in enumerate(outs) if M[r][c] != 0}
        if row:
            table[(a,)] = row
    return table


def retraction_onto_cohomology(A: AInftyStructure, rng: random.Random) -> RetractionData:
    """Split each degree as  B (+) im d (+) C  with random complements.

    i embeds chosen cocycle representatives, p projects along im d (+) C,
    and H inverts d from im d back to C.  Subspaces are lists of vectors
    (tuples of Fractions) in the label basis of their degree.
    """
    basis = A.basis
    d = A.m(1).entries
    by_deg: Dict[int, List] = {}
    for l, k in basis.elements:
        by_deg.setdefault(k, []).append(l)

    # per degree: ker d, a random complement C^k of it and its image d C^k;
    # every C is drawn before any B, which fixes the rng stream
    ker, C, dC = {}, {}, {}  # degree -> list of vectors
    for k, src in sorted(by_deg.items()):
        rows = [[d.get((l,), {}).get(o, Q(0)) for l in src] for o in by_deg.get(k + 1, [])]
        ker[k] = nullspace(rows, len(src))
        C[k] = _random_complement(ker[k], len(src), len(src) - len(ker[k]), rng)
        dC[k] = [mat_vec(rows, c) for c in C[k]]

    sub_elems = []
    i_table, p_table, h_table = {}, {}, {}
    for k, src in sorted(by_deg.items()):
        im_prev = dC.get(k - 1, [])
        # B^k: random complement of im d inside ker d
        Bk = _random_complement_within(ker[k], im_prev, rng)
        full = Bk + im_prev + C[k]
        if len(full) != len(src):
            raise RuntimeError("decomposition must be a basis")
        inv = mat_inv(tuple(zip(*full)))  # row t: coordinate along full[t]
        sub = [("h", k, t) for t in range(len(Bk))]
        sub_elems += [(lab, k) for lab in sub]
        i_table.update(_table(tuple(zip(*Bk)), sub, src))
        p_table.update(_table(inv[:len(Bk)], src, sub))
        if im_prev:  # H sends the im-d coordinates back to C^{k-1}
            H = mat_mul(tuple(zip(*C[k - 1])), inv[len(Bk):len(Bk) + len(im_prev)])
            h_table.update(_table(H, src, by_deg[k - 1]))

    sub_basis = GradedBasis(tuple(sub_elems))
    return RetractionData(
        ambient=A,
        sub_basis=sub_basis,
        include=MultilinearOp(1, sub_basis, basis, 0, i_table),
        project=MultilinearOp(1, basis, sub_basis, 0, p_table),
        homotopy=MultilinearOp(1, basis, basis, -1, h_table),
    )


def _random_complement(ker: List[Vec], dim: int, count: int, rng) -> List[Vec]:
    """count random integer vectors that complement span(ker) in Q^dim."""
    cols: List[Vec] = []
    while len(cols) < count:
        v = vec(rng.randint(-2, 2) for _ in range(dim))
        if rank(ker + cols + [v]) == len(ker) + len(cols) + 1:
            cols.append(v)
    return cols


def _random_complement_within(ambient: List[Vec], sub: List[Vec], rng) -> List[Vec]:
    """Random vectors of span(ambient) complementing span(sub) inside it
    (the ambient vectors are independent)."""
    cols: List[Vec] = []
    attempts = 0
    while len(cols) < len(ambient) - len(sub):
        attempts += 1
        coeffs = [rng.randint(-2, 2) for _ in ambient]
        if attempts > 50:
            coeffs = [rng.randint(-5, 5) for _ in ambient]
        v = tuple(sum(c * a[s] for c, a in zip(coeffs, ambient)) for s in range(len(ambient[0])))
        if rank(sub + cols + [v]) == len(sub) + len(cols) + 1:
            cols.append(v)
    return cols


def _violates_dg_axioms(A: AInftyStructure) -> bool:
    """Brute-force Leibniz/associativity test, independent of the relation
    and bar-construction checkers it serves as a negative control for."""
    labels = A.basis.labels
    degs = A.basis.degrees
    d = A.m(1).entries
    m = A.m(2).entries

    def combine(row_fn, inputs):
        out: Dict = {}
        for lab, c in inputs.items():
            for o, v in row_fn(lab).items():
                out[o] = out.get(o, 0) + c * v
        return {o: v for o, v in out.items() if v != 0}

    for a in labels:
        for b in labels:
            ab = m.get((a, b), {})
            # Leibniz: d(ab) = (da)b + (-1)^{deg a} a(db)
            lhs = combine(lambda x: d.get((x,), {}), ab)
            rhs: Dict = {}
            for mid, c in d.get((a,), {}).items():
                for o, v in m.get((mid, b), {}).items():
                    rhs[o] = rhs.get(o, 0) + c * v
            sgn = -1 if degs[a] % 2 else 1
            for mid, c in d.get((b,), {}).items():
                for o, v in m.get((a, mid), {}).items():
                    rhs[o] = rhs.get(o, 0) + sgn * c * v
            rhs = {o: v for o, v in rhs.items() if v != 0}
            if lhs != rhs:
                return True
            for c_lab in labels:
                left = combine(lambda x: m.get((x, c_lab), {}), ab)
                right = combine(
                    lambda x: m.get((a, x), {}), m.get((b, c_lab), {})
                )
                if left != right:
                    return True
    return False


def corrupt_structure(A: AInftyStructure, rng: random.Random) -> AInftyStructure:
    """Perturb one m_2 entry so the dg axioms demonstrably fail.

    Candidate single-entry perturbations are tried in seeded random order
    until one breaks Leibniz or associativity under the brute-force check
    above, so every returned structure is a genuine negative control."""
    B = A.basis
    m2 = A.m(2)
    entries = {k: dict(v) for k, v in m2.entries.items()}
    candidates = sorted(
        ((k, o) for k, row in entries.items() for o in row), key=repr
    )
    if not candidates:
        raise ValueError("nothing to corrupt")
    rng.shuffle(candidates)
    for k, o in candidates:
        perturbed = {kk: dict(vv) for kk, vv in entries.items()}
        perturbed[k][o] = perturbed[k][o] + 1
        ops = dict(A.ops)
        ops[2] = MultilinearOp(2, B, B, 0, perturbed)
        bad = AInftyStructure(B, ops)
        if _violates_dg_axioms(bad):
            return bad
    raise ValueError("no single-entry perturbation breaks the structure")
