"""Homological perturbation: transferred products and the comparison map.

Given retraction data (i, p, H) for a structure on A, produce the
transferred operations on B and the quasi-isomorphism g: B -> A by
summation over rooted planar trees (b_k at the vertices, i at the leaves,
H on the internal edges, p at the root).  The branch recursion computes
them on the domain of H: each vertex is composed with i and -H once per
shape, the top vertex with p too, and the recursion fills the remaining
slots with its own lower terms; g_n is built only when the comparison
map asks for it.  :func:`transfer_structure_by_trees` sums the trees of
:mod:`.trees` one by one, as the cross-check that criterion 1 runs; it
builds its own vertex tables and shares subtree values between trees,
never the recursion's tables.

Validation and the recursion are memoized for the last retraction only,
keyed by value: both bases' labels and degrees and every entry, with its
type, of the ambient operations, i, p and H, in insertion order.  So a
check pair validates and recurses once, the comparison map reuses the
transferred tables, and a retraction mutated in place misses.  Nothing is
stored on :class:`RetractionData`.

All intermediate computation happens in the *suspended* normalization
(degrees shifted down by one), where i, p and the morphism components
have degree 0, the homotopy has degree -1, and the structure operations
b_k have degree +1.  In that normalization the tree terms carry no signs
beyond the suspension signs already baked into the b_k tables; the final
results are converted back with the same suspension rule.  Correctness of
this sign convention is enforced by the defect tests, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .ainfty import (
    AInftyMorphismData,
    AInftyStructure,
    CheckReport,
    GradedBasis,
    MultilinearOp,
    Pair,
    Table,
    _compose_pairs,
    _integral,
    _rational,
    _sum_pairs,
    compose,
    compositions,
    is_zero_scalar,
    signed,
    suspended_coefficient,
)
from .trees import enumerate_trees


@dataclass
class RetractionData:
    """Ambient structure on A plus (i, p, H) onto a sub-complex B.

    include: B -> A and project: A -> B have degree 0; homotopy: A -> A
    has degree -1.  Validity (p i = 1, [d, i p] = 0, 1 - i p = dH + Hd)
    is checked by :func:`validate`, not by construction.
    """

    ambient: AInftyStructure
    sub_basis: GradedBasis
    include: MultilinearOp
    project: MultilinearOp
    homotopy: MultilinearOp

    # -- JSON schema ----------------------------------------------------

    def to_obj(self):
        from .ainfty import _scalar_obj

        def table(op):
            return [
                [ins[0], out, _scalar_obj(c)] for ins, out, c in op.nonzero_entries()
            ]

        return {
            "ambient": self.ambient.to_obj(),
            "sub_basis": [[l, d] for l, d in self.sub_basis.elements],
            "include": table(self.include),
            "project": table(self.project),
            "homotopy": table(self.homotopy),
        }

    @staticmethod
    def from_obj(obj) -> "RetractionData":
        from .ainfty import _freeze, _scalar_from_obj

        ambient = AInftyStructure.from_obj(obj["ambient"])
        sub = GradedBasis(tuple((_freeze(l), d) for l, d in obj["sub_basis"]))

        def op(rows, source, target, shift):
            table: Table = {}
            for l, out, c in rows:
                table.setdefault((_freeze(l),), {})[_freeze(out)] = _scalar_from_obj(c)
            return MultilinearOp(1, source, target, shift, table)

        return RetractionData(
            ambient=ambient,
            sub_basis=sub,
            include=op(obj["include"], sub, ambient.basis, 0),
            project=op(obj["project"], ambient.basis, sub, 0),
            homotopy=op(obj["homotopy"], ambient.basis, ambient.basis, -1),
        )


def validate(r: RetractionData) -> CheckReport:
    """Exact check of the retraction identities; failures list matrix
    entries.  i, p, H and m_1 are composed as integer forms, and a failing
    value is printed as the rational (or Novikov) entry it stands for."""
    failures: List[str] = []
    A, B = r.ambient.basis, r.sub_basis
    pairs = _integral({"i": r.include.entries, "p": r.project.entries, "H": r.homotopy.entries,
                       "d": r.ambient.m(1).entries})
    i, p, H, d = pairs["i"], pairs["p"], pairs["H"], pairs["d"]

    def value(c, D):
        return c if D == 1 else Fraction(c, D)

    sub_labels, labels = B.labels, A.labels  # basis order: no hash-seed dependence

    # p o i = identity on B
    pi, D = _compose_pairs(p, [i])
    for b in sub_labels:
        row = pi.get((b,), {})
        for o in sub_labels:
            want = 1 if o == b else 0
            got = row.get(o, 0)
            if not is_zero_scalar(got - want * D):
                failures.append(f"(p i)[{b} -> {o}] = {value(got, D)}, expected {want}")

    # Pi = i o p commutes with d
    ip, Dip = _compose_pairs(i, [p])
    dPi, D = _compose_pairs(d, [(ip, Dip)])
    Pid, _D = _compose_pairs((ip, Dip), [d])
    for a in labels:
        row_dPi, row_Pid = dPi.get((a,), {}), Pid.get((a,), {})
        for o in labels:
            diff = row_dPi.get(o, 0) - row_Pid.get(o, 0)
            if not is_zero_scalar(diff):
                failures.append(f"[d, i p][{a} -> {o}] = {value(diff, D)}")

    # 1 - i p = d H + H d, over the denominators Dip and DH of i p and d H
    dH, DH = _compose_pairs(d, [H])
    Hd, _D = _compose_pairs(H, [d])
    for a in labels:
        row_ip, row_dH, row_Hd = ip.get((a,), {}), dH.get((a,), {}), Hd.get((a,), {})
        for o in labels:
            lhs = (Dip if o == a else 0) - row_ip.get(o, 0)
            rhs = row_dH.get(o, 0) + row_Hd.get(o, 0)
            diff = lhs * DH - rhs * Dip
            if not is_zero_scalar(diff):
                failures.append(f"(1 - ip - dH - Hd)[{a} -> {o}] = {value(diff, Dip * DH)}")

    return CheckReport(ok=not failures, failures=failures)


def _retraction_key(r: RetractionData) -> tuple:
    """Everything transfer reads from r, in insertion order; a scalar's
    type is kept, so a Novikov table never meets its rational twin."""

    def table(t: Table) -> tuple:
        return tuple((ins, tuple((o, type(c), c) for o, c in row.items())) for ins, row in t.items())

    return (
        r.ambient.basis.elements, r.sub_basis.elements,
        tuple((n, table(op.entries)) for n, op in r.ambient.ops.items()),
        table(r.include.entries), table(r.project.entries), table(r.homotopy.entries),
    )


# (key, validation failures, suspended recursion or None) of the last
# retraction seen; see the module docstring.
_last: Optional[tuple] = None


def _memo(r: RetractionData) -> tuple:
    global _last
    key = _retraction_key(r)
    if _last is None or _last[0] != key:
        failures = tuple(validate(r).failures)
        _last = key, failures, None if failures else _SuspendedTransfer(r)
    return _last


def validation(r: RetractionData) -> CheckReport:
    """:func:`validate` served from the memo of the last retraction; each
    call returns a fresh report."""
    failures = _memo(r)[1]
    return CheckReport(ok=not failures, failures=list(failures))


def _suspended(r: RetractionData) -> _SuspendedTransfer:
    """The memoized suspended recursion of r; ValueError if r is invalid."""
    _key, failures, st = _memo(r)
    if failures:
        raise ValueError("invalid retraction data: " + "; ".join(failures[:3]))
    return st


# ---------------------------------------------------------------------------
# suspended evaluation
# ---------------------------------------------------------------------------


def _suspension_signed(table: Table, deg) -> Table:
    """Table with each row multiplied by the suspension sign of its inputs;
    the sign is its own inverse, so this both suspends m_n to b_n and
    unsuspends b_n back to m_n."""
    return signed(table, lambda ins: -1 if suspended_coefficient(ins, deg) % 2 else 1)


class _SuspendedTransfer:
    """The transferred tables in the bar normalization, computed on the
    domain of H.  A vertex of arity k whose slots carry (n_1, ..., n_k)
    leaves has the vertex table

        V = b_k o (X_1 x ... x X_k),  X_t = i if n_t = 1, else -H,

    built once per shape (which slots are leaves), and

        q_n   = sum_{k>=2} sum_{n_1+...+n_k=n} V o (q_{n_t} where n_t > 1)
        b_n^B = sum_{k>=2} sum_{n_1+...+n_k=n} (p o V) o (q_{n_t} where n_t > 1)
        g_1   = i,   g_n = -H o q_n   (n >= 2),   b_1^B = p o b_1 o i

    with the identity on leaf slots.  So q_n maps B^n to A, each slot
    table is a q_m, never a g_m, the top arity never builds q_n, and g_n
    is built only for :func:`transfer_morphism`.

    All component maps have suspended degree 0 except H (-1) and b_k (+1),
    so the tensor products above carry no Koszul signs.  b_k, i, p and H
    are converted to integer form once; q_n and the vertex tables are kept
    as ``(numerators, D)`` pairs, b_n^B and g_n as the rational tables the
    memo hands out (every caller copies them).  ``self.H`` holds -H.
    """

    def __init__(self, r: RetractionData):
        degA = r.ambient.basis.degrees
        b = {k: _suspension_signed(op.entries, degA) for k, op in r.ambient.ops.items() if not op.is_zero()}
        pairs = _integral({"i": r.include.entries, "p": r.project.entries, "H": r.homotopy.entries, **b})
        self.i, self.p = pairs.pop("i"), pairs.pop("p")
        # the homotopy enters with a minus sign: the perturbation lemma
        # wants the convention  dH + Hd = ip - 1,  while validate()
        # checks the opposite normalization 1 - ip = dH + Hd.
        H, D = pairs.pop("H")
        self.H: Pair = signed(H, lambda ins: -1), D
        self.b: Dict[int, Pair] = pairs
        self.vertices: Dict[tuple, Pair] = {}
        self.q: Dict[int, Pair] = {}
        self.bB: Dict[int, Table] = {}
        self.g: Dict[int, Table] = {}

    def vertex(self, parts: tuple, top: bool) -> Pair:
        """V for the shape of parts, or p o V when top."""
        key = top, tuple(n > 1 for n in parts)
        if key not in self.vertices:
            if top:
                V = _compose_pairs(self.p, [self.vertex(parts, False)])
            else:
                V = _compose_pairs(self.b[len(parts)], [self.H if n > 1 else self.i for n in parts])
            self.vertices[key] = V
        return self.vertices[key]

    def terms(self, n: int, top: bool) -> Pair:
        """q_n, or b_n^B when top, as the sum over vertices and compositions."""
        return _sum_pairs([
            _compose_pairs(self.vertex(parts, top), [self.q_pair(m) if m > 1 else None for m in parts])
            for k in range(2, n + 1) if k in self.b for parts in compositions(n, k)
        ])

    def q_pair(self, n: int) -> Pair:
        if n not in self.q:
            self.q[n] = self.terms(n, False)
        return self.q[n]

    def bB_table(self, n: int) -> Table:
        if n not in self.bB:
            self.bB[n] = _rational(*self.terms(n, True))
        return self.bB[n]

    def g_pair(self, n: int) -> Pair:
        return _compose_pairs(self.H, [self.q_pair(n)])

    def g_table(self, n: int) -> Table:
        if n not in self.g:
            self.g[n] = _rational(*self.g_pair(n))
        return self.g[n]

    def tree_pair(self, t: tuple, below: Dict[tuple, Pair], vertices: Dict[tuple, Pair]) -> Pair:
        """One tree's term of the suspended transferred operation: i at the
        leaves, b_k at internal vertices, -H on internal edges, p at the
        root; the stored -H gives the per-tree sign (-1)^{internal edges}.
        Each vertex is composed with its leaf and edge maps once per shape,
        kept in ``vertices``, and ``below`` maps each subtree seen so far to
        its value below its edge, so trees share both."""

        def value(node: tuple, top: bool = False) -> Pair:
            bk = self.b.get(len(node))
            if bk is None:
                return {}, 1
            key = top, tuple(map(bool, node))
            if key not in vertices:
                V = _compose_pairs(bk, [self.H if c else self.i for c in node])
                vertices[key] = _compose_pairs(self.p, [V]) if top else V
            return _compose_pairs(vertices[key], [subtree(c) if c else None for c in node])

        def subtree(c: tuple) -> Pair:
            if c not in below:
                below[c] = value(c)
            return below[c]

        return value(t, top=True)


def _transferred(
    r: RetractionData, max_arity: int, bB_table: Callable[[int], Table]
) -> AInftyStructure:
    """m_1^B = p m_1 i directly (suspension is a no-op at arity 1); m_n^B for
    n >= 2 unsuspended from the suspended table bB_table(n)."""
    B = r.sub_basis
    m1B = compose(r.project.entries, [compose(r.ambient.m(1).entries, [r.include.entries])])
    ops = {1: MultilinearOp(1, B, B, 1, m1B)}
    for n in range(2, max_arity + 1):
        ops[n] = MultilinearOp(n, B, B, 2 - n, _suspension_signed(bB_table(n), B.degrees))
    return AInftyStructure(B, {n: op for n, op in ops.items() if not op.is_zero()})


def transfer_structure(r: RetractionData, max_arity: int = 4) -> AInftyStructure:
    """Transferred operations m_n^B for n <= max_arity.

    m_1^B = p m_1 i and m_2^B = p m_2 (i x i); higher operations are the
    planar-tree sums, computed through the equivalent branch recursion.
    """
    return _transferred(r, max_arity, _suspended(r).bB_table)


def transfer_morphism(r: RetractionData, max_arity: int = 4) -> AInftyMorphismData:
    """The comparison map g: B -> A; g_1 = i, higher components use the
    homotopy at the root.  Returned with the transferred structure as source."""
    B = r.sub_basis
    st = _suspended(r)
    source = _transferred(r, max_arity, st.bB_table)
    comps: Dict[int, MultilinearOp] = {1: MultilinearOp(1, B, r.ambient.basis, 0, dict(r.include.entries))}
    for n in range(2, max_arity + 1):
        table = _suspension_signed(st.g_table(n), B.degrees)
        op = MultilinearOp(n, B, r.ambient.basis, 1 - n, table)
        if not op.is_zero():
            comps[n] = op
    return AInftyMorphismData(source=source, target=r.ambient, components=comps)


def transfer_structure_by_trees(r: RetractionData, max_arity: int = 4) -> AInftyStructure:
    """Same result as :func:`transfer_structure`, computed as the explicit
    sum over planar trees; used as a cross-check.  It validates r through
    the memo but builds its own converted inputs and vertex tables, and
    never reads the branch recursion's vertices, q_n, g_n or b_n^B, so the
    cross-check stays independent.  Subtrees share their values below
    their edges; each root term is its own."""
    _suspended(r)
    st = _SuspendedTransfer(r)
    below: Dict[tuple, Pair] = {}
    vertices: Dict[tuple, Pair] = {}

    def tree_sum(n: int) -> Table:
        return _rational(*_sum_pairs([st.tree_pair(t, below, vertices) for t in enumerate_trees(n)]))

    return _transferred(r, max_arity, tree_sum)
