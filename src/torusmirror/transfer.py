"""Homological perturbation: transferred products and the comparison map.

Given retraction data (i, p, H) for a structure on A, produce the
transferred operations on B and the quasi-isomorphism g: B -> A by
summation over rooted planar trees.

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
from typing import Callable, Dict, List, Tuple

from .ainfty import (
    AInftyMorphismData,
    AInftyStructure,
    CheckReport,
    GradedBasis,
    Label,
    MultilinearOp,
    Scalar,
    is_zero_scalar,
    suspended_coefficient,
)
from .trees import PlanarTree, enumerate_trees


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
            table: Dict[Tuple[Label, ...], Dict[Label, Scalar]] = {}
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


def _lin_compose(f: MultilinearOp, g: MultilinearOp) -> Dict[Label, Dict[Label, Scalar]]:
    """Entrywise table of f o g for arity-1 maps, label -> {label: coeff}."""
    out: Dict[Label, Dict[Label, Scalar]] = {}
    for (x,), row in g.entries.items():
        dst = out.setdefault(x, {})
        for mid, c in row.items():
            for o, c2 in f.entries.get((mid,), {}).items():
                dst[o] = dst.get(o, 0) + c2 * c
    return out


def _table_compose(f: MultilinearOp, g_table: Dict) -> Dict:
    """Post-compose a (multi-input -> combination) table with arity-1 map f."""
    out: Dict[Tuple[Label, ...], Dict[Label, Scalar]] = {}
    for ins, row in g_table.items():
        dst = out.setdefault(ins, {})
        for mid, c in row.items():
            for o, c2 in f.entries.get((mid,), {}).items():
                dst[o] = dst.get(o, 0) + c2 * c
    return out


def validate(r: RetractionData) -> CheckReport:
    """Exact check of the retraction identities; failures list matrix entries."""
    failures: List[str] = []
    A, B = r.ambient.basis, r.sub_basis
    i, p, H = r.include, r.project, r.homotopy
    d = r.ambient.m(1)

    # p o i = identity on B
    pi = _lin_compose(p, i)
    for b in B.labels:
        row = pi.get(b, {})
        for o in set(row) | {b}:
            want = 1 if o == b else 0
            got = row.get(o, 0)
            if not is_zero_scalar(got - want):
                failures.append(f"(p i)[{b} -> {o}] = {got}, expected {want}")

    # Pi = i o p commutes with d
    ip = _lin_compose(i, p)
    ip_op = MultilinearOp(1, A, A, 0, {(k,): v for k, v in ip.items()}, check_degrees=False)
    dPi = _lin_compose(d, ip_op)
    Pid = _lin_compose(ip_op, d)
    for a in A.labels:
        outs = set(dPi.get(a, {})) | set(Pid.get(a, {}))
        for o in outs:
            diff = dPi.get(a, {}).get(o, 0) - Pid.get(a, {}).get(o, 0)
            if not is_zero_scalar(diff):
                failures.append(f"[d, i p][{a} -> {o}] = {diff}")

    # 1 - i p = d H + H d
    dH = _lin_compose(d, H)
    Hd = _lin_compose(H, d)
    for a in A.labels:
        outs = set(dH.get(a, {})) | set(Hd.get(a, {})) | set(ip.get(a, {})) | {a}
        for o in outs:
            lhs = (1 if o == a else 0) - ip.get(a, {}).get(o, 0)
            rhs = dH.get(a, {}).get(o, 0) + Hd.get(a, {}).get(o, 0)
            if not is_zero_scalar(lhs - rhs):
                failures.append(f"(1 - ip - dH - Hd)[{a} -> {o}] = {lhs - rhs}")

    return CheckReport(ok=not failures, failures=failures)


def _require_valid(r: RetractionData) -> None:
    rep = validate(r)
    if not rep.ok:
        raise ValueError("invalid retraction data: " + "; ".join(rep.failures[:3]))


# ---------------------------------------------------------------------------
# suspended evaluation
# ---------------------------------------------------------------------------


def _suspension_signed(table: Dict, deg) -> Dict:
    """Table with each row multiplied by the suspension sign of its inputs;
    the sign is its own inverse, so this both suspends m_n to b_n and
    unsuspends b_n back to m_n."""
    out = {}
    for ins, row in table.items():
        s = -1 if suspended_coefficient(ins, deg) % 2 else 1
        out[ins] = {o: s * c for o, c in row.items()}
    return out


def _b_after_tensor(bk: Dict, tables: List[Dict]) -> Dict:
    """Table of  b_k o (t_1 x ... x t_k)  for arity-k table bk."""
    k = len(tables)
    out: Dict[Tuple[Label, ...], Dict[Label, Scalar]] = {}

    def walk(slot, ins_acc, mids, coeff):
        if slot == k:
            row = bk.get(tuple(mids))
            if not row:
                return
            key = tuple(x for blk in ins_acc for x in blk)
            dst = out.setdefault(key, {})
            for o, c in row.items():
                dst[o] = dst.get(o, 0) + coeff * c
            return
        for t_ins, t_row in tables[slot].items():
            for mid, c in t_row.items():
                walk(slot + 1, ins_acc + [t_ins], mids + [mid], coeff * c)

    walk(0, [], [], 1)
    return out


def _add_into(acc: Dict, table: Dict) -> None:
    for ins, row in table.items():
        dst = acc.setdefault(ins, {})
        for o, c in row.items():
            dst[o] = dst.get(o, 0) + c


class _SuspendedTransfer:
    """Shared recursion computing q_n, g_n and b_n^B in the bar normalization.

        q_n   = sum_{k>=2} sum_{n_1+...+n_k=n} b_k o (g_{n_1} x ... x g_{n_k})
        g_1   = i,   g_n = H o q_n   (n >= 2)
        b_n^B = p o q_n              (n >= 2),  b_1^B = p o b_1 o i

    All component maps have suspended degree 0 except H (-1) and b_k (+1),
    so the tensor products above carry no Koszul signs.
    """

    def __init__(self, r: RetractionData):
        self.r = r
        degA = r.ambient.basis.degrees
        self.b = {
            k: _suspension_signed(op.entries, degA)
            for k, op in r.ambient.ops.items()
            if not op.is_zero()
        }
        self.g: Dict[int, Dict] = {1: dict(r.include.entries)}
        self.q: Dict[int, Dict] = {}

    def q_table(self, n: int) -> Dict:
        if n in self.q:
            return self.q[n]
        for m in range(2, n):
            self.g_table(m)  # ensure lower g's exist
        acc: Dict[Tuple[Label, ...], Dict[Label, Scalar]] = {}
        for parts in _compositions_of(n):
            bk = self.b.get(len(parts))
            if bk:
                _add_into(acc, _b_after_tensor(bk, [self.g[m] for m in parts]))
        self.q[n] = acc
        return acc

    def g_table(self, n: int) -> Dict:
        if n not in self.g:
            tab = _table_compose(self.r.homotopy, self.q_table(n))
            # the homotopy enters with a minus sign: the perturbation lemma
            # wants the convention  dH + Hd = ip - 1,  while validate()
            # checks the opposite normalization 1 - ip = dH + Hd.
            self.g[n] = {
                ins: {o: -c for o, c in row.items()} for ins, row in tab.items()
            }
        return self.g[n]

    def bB_table(self, n: int) -> Dict:
        return _table_compose(self.r.project, self.q_table(n))


def _compositions_of(n: int):
    """All (n_1, ..., n_k) with k >= 2, n_t >= 1, sum = n."""
    out = []

    def rec(rem, acc):
        if rem == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        for first in range(1, rem + 1):
            rec(rem - first, acc + [first])

    rec(n, [])
    return out


def _transferred(
    r: RetractionData, max_arity: int, bB_table: Callable[[int], Dict]
) -> AInftyStructure:
    """m_1^B = p m_1 i directly (suspension is a no-op at arity 1); m_n^B for
    n >= 2 unsuspended from the suspended table bB_table(n)."""
    B = r.sub_basis
    m1B = _table_compose(r.project, _table_compose(r.ambient.m(1), r.include.entries))
    ops = {1: MultilinearOp(1, B, B, 1, m1B)}
    for n in range(2, max_arity + 1):
        ops[n] = MultilinearOp(n, B, B, 2 - n, _suspension_signed(bB_table(n), B.degrees))
    return AInftyStructure(B, {n: op for n, op in ops.items() if not op.is_zero()})


def transfer_structure(r: RetractionData, max_arity: int = 4) -> AInftyStructure:
    """Transferred operations m_n^B for n <= max_arity.

    m_1^B = p m_1 i and m_2^B = p m_2 (i x i); higher operations are the
    planar-tree sums, computed through the equivalent branch recursion.
    """
    _require_valid(r)
    return _transferred(r, max_arity, _SuspendedTransfer(r).bB_table)


def transfer_morphism(r: RetractionData, max_arity: int = 4) -> AInftyMorphismData:
    """The comparison map g: B -> A; g_1 = i, higher components use the
    homotopy at the root.  Returned with the transferred structure as source."""
    _require_valid(r)
    B = r.sub_basis
    st = _SuspendedTransfer(r)
    source = _transferred(r, max_arity, st.bB_table)
    comps: Dict[int, MultilinearOp] = {1: MultilinearOp(1, B, r.ambient.basis, 0, dict(r.include.entries))}
    for n in range(2, max_arity + 1):
        table = _suspension_signed(st.g_table(n), B.degrees)
        op = MultilinearOp(n, B, r.ambient.basis, 1 - n, table)
        if not op.is_zero():
            comps[n] = op
    return AInftyMorphismData(source=source, target=r.ambient, components=comps)


def tree_term(r: RetractionData, t: PlanarTree) -> Dict:
    """The single-tree contribution to the suspended transferred operation:
    i at the leaves, b_k at internal vertices, H on internal edges, p at
    the root.  Exposed for the entrywise cross-check against the branch
    recursion and the direct two-tree expansion of the ternary product."""
    st = _SuspendedTransfer(r)

    def eval_node(node: PlanarTree) -> Dict:
        if node.is_leaf:
            return dict(r.include.entries)
        bk = st.b.get(len(node.children))
        if not bk:
            return {}
        child_tables = []
        for c in node.children:
            tab = eval_node(c)
            if not c.is_leaf:
                # -H per internal edge; the per-tree sign of the summation
                # formula is (-1)^{number of internal edges}
                tab = _table_compose(r.homotopy, tab)
                tab = {k: {o: -v for o, v in row.items()} for k, row in tab.items()}
            child_tables.append(tab)
        return _b_after_tensor(bk, child_tables)

    return _table_compose(r.project, eval_node(t))


def transfer_structure_by_trees(r: RetractionData, max_arity: int = 4) -> AInftyStructure:
    """Same result as :func:`transfer_structure`, computed as the explicit
    sum over planar trees; used as a cross-check."""

    def tree_sum(n: int) -> Dict:
        acc: Dict[Tuple[Label, ...], Dict[Label, Scalar]] = {}
        for t in enumerate_trees(n, 2):
            _add_into(acc, tree_term(r, t))
        return acc

    return _transferred(r, max_arity, tree_sum)
