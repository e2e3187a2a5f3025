"""Graded bases, sparse multilinear operations, and A-infinity checks.

Scalars may be exact rationals (``fractions.Fraction`` / ``int``) or
truncated Novikov series (:class:`~torusmirror.novikov.NovikovElem`); the
code only uses ring operations and zero tests.

Composites of operations, ``outer o (s_1 x ... x s_k)``, all go through one
kernel, :func:`compose`: the structure relations, the morphism equations
and the tree formulas of homotopy transfer.  It fills one slot at a time,
so a Novikov composite may carry a higher, still valid, O(q^c) than the
sum of its term products.  The kernel has no sign: every Koszul and
suspension sign reads the inputs of a single table, so it is a +-1 on
that table's rows (:func:`signed`).  The structure relations, the
morphism equations, the retraction identities and homotopy transfer
compose rational tables as integer numerators over one denominator per
table (:func:`_integral`; Novikov tables pass with denominator 1), and
go back to ``Fraction`` only to build an operation or print a value.

One sign convention holds at every arity: the suspension (degrees down
by one) takes m_n to  b_n(s a_1, ..., s a_n) =
(-1)^{sum_q (n - q)(deg a_q - 1)} s m_n(a_1, ..., a_n), which is Keller's
b_n = s m_n (s^-1)^n (HHA 2001, section 3) times eps_n = (-1)^{n(n-1)/2}.
Two independent implementations of the structure equations are provided:

* :func:`relation_defect` expands the explicit quadratic relations

      sum_{j, l} eps(l, j) m_i(a_0, ..., m_j(a_l, ..., a_{l+j-1}), ..., a_{n-1})

  with the sign
  eps(l,j) = (-1)^{j * sum_{s<l} deg(a_s) + l(j-1) + j(i-1) + ij}:
  Keller's relation sum (-1)^{r+st} m_{r+1+t}(1^r x m_s x 1^t) = 0 for
  the operations eps_n m_n, since eps_i eps_j = eps_n (-1)^{ij + n}.

* :func:`bar_check` squares the induced coderivation on the shifted
  tensor coalgebra, where all signs are Koszul in deg-1.  It shares no
  code with the kernel or the integer forms: it scales its tables to
  integers itself, and applies the (linear) coderivation with coefficient
  1 once to each word that another word's image reaches.

They must agree; tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .novikov import NovikovElem

Label = Hashable
Scalar = object  # Fraction | int | NovikovElem
Table = Dict[Tuple[Label, ...], Dict[Label, Scalar]]  # inputs -> {output: coefficient}
Pair = Tuple[Table, int]  # (numerators, D): the table whose entries are numerator / D


def is_zero_scalar(s) -> bool:
    if isinstance(s, NovikovElem):
        return s.is_zero()
    return s == 0


@dataclass(frozen=True)
class GradedBasis:
    """Finite homogeneous basis: ordered (label, degree) pairs."""

    elements: Tuple[Tuple[Label, int], ...]

    def __post_init__(self):
        for l, d in self.elements:
            if d % 1:  # a fraction, which int() would truncate, or inf or nan
                raise ValueError(f"degree {d} of basis label {l} must be an integer")
        object.__setattr__(self, "elements", tuple((l, int(d)) for l, d in self.elements))
        labels = [l for l, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")

    @property
    def labels(self) -> Tuple[Label, ...]:
        return tuple(l for l, _ in self.elements)

    @property
    def degrees(self) -> Dict[Label, int]:
        return dict(self.elements)

    def __len__(self):
        return len(self.elements)


class MultilinearOp:
    """Sparse n-linear map between graded bases with a fixed degree shift.

    Entries map an n-tuple of source labels to a linear combination of
    target labels; every stored entry must satisfy
    deg(output) = sum deg(inputs) + shift.  Only exact zeros are dropped:
    a truncated Novikov zero is stored with its O(q^cutoff) bound, which
    composites carry on, and :meth:`is_zero` and :meth:`nonzero_entries`
    treat it as zero to that precision.
    """

    def __init__(
        self,
        arity: int,
        source: GradedBasis,
        target: GradedBasis,
        shift: int,
        entries: Optional[Table] = None,
        check_degrees: bool = True,
    ):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.source = source
        self.target = target
        self.shift = shift
        table: Table = {}
        src_deg = source.degrees
        tgt_deg = target.degrees
        for ins, outs in (entries or {}).items():
            ins = tuple(ins)
            if len(ins) != arity:
                raise ValueError(f"entry {ins} has wrong arity")
            row = {o: c for o, c in outs.items() if c != 0}
            if not row:
                continue
            if check_degrees:
                want = sum(src_deg[l] for l in ins) + shift
                for o in row:
                    if tgt_deg[o] != want:
                        raise ValueError(
                            f"degree rule violated at {ins} -> {o}: "
                            f"expected {want}, basis says {tgt_deg[o]}"
                        )
            table[ins] = row
        self.entries = table

    def __call__(self, labels: Sequence[Label]) -> Dict[Label, Scalar]:
        return dict(self.entries.get(tuple(labels), {}))

    def is_zero(self) -> bool:
        return all(is_zero_scalar(c) for row in self.entries.values() for c in row.values())

    def nonzero_entries(self):
        for ins, row in sorted(self.entries.items(), key=lambda kv: repr(kv[0])):
            for out, c in sorted(row.items(), key=repr):
                if not is_zero_scalar(c):
                    yield ins, out, c


def zero_op(arity: int, source: GradedBasis, target: GradedBasis, shift: int) -> MultilinearOp:
    return MultilinearOp(arity, source, target, shift, {})


@dataclass
class AInftyStructure:
    """A graded basis plus finitely many operations m_n of shift 2 - n."""

    basis: GradedBasis
    ops: Dict[int, MultilinearOp] = field(default_factory=dict)

    def __post_init__(self):
        for n, op in self.ops.items():
            if op.arity != n or op.shift != 2 - n:
                raise ValueError(f"m_{n} must have arity {n} and shift {2 - n}")
            if op.source is not self.basis and op.source.elements != self.basis.elements:
                raise ValueError("operation basis mismatch")

    def m(self, n: int) -> MultilinearOp:
        op = self.ops.get(n)
        if op is None:
            return zero_op(n, self.basis, self.basis, 2 - n)
        return op

    def max_arity(self) -> int:
        populated = [n for n, op in self.ops.items() if not op.is_zero()]
        return max(populated, default=1)

    # -- JSON schema ----------------------------------------------------

    def to_obj(self):
        return {
            "basis": [[l, d] for l, d in self.basis.elements],
            "ops": [
                {
                    "arity": n,
                    "entries": [
                        [list(ins), out, _scalar_obj(c)]
                        for ins, out, c in op.nonzero_entries()
                    ],
                }
                for n, op in sorted(self.ops.items())
            ],
        }

    @staticmethod
    def from_obj(obj) -> "AInftyStructure":
        basis = GradedBasis(tuple((_freeze(l), d) for l, d in obj["basis"]))
        ops = {}
        for blk in obj["ops"]:
            n = blk["arity"]
            table: Table = {}
            for ins, out, c in blk["entries"]:
                key = tuple(_freeze(l) for l in ins)
                table.setdefault(key, {})[_freeze(out)] = _scalar_from_obj(c)
            ops[n] = MultilinearOp(n, basis, basis, 2 - n, table)
        return AInftyStructure(basis, ops)


@dataclass
class AInftyMorphismData:
    """Components f_n of shift 1 - n between two structures."""

    source: AInftyStructure
    target: AInftyStructure
    components: Dict[int, MultilinearOp] = field(default_factory=dict)

    def __post_init__(self):
        for n, op in self.components.items():
            if op.arity != n or op.shift != 1 - n:
                raise ValueError(f"f_{n} must have arity {n} and shift {1 - n}")

    def f(self, n: int) -> MultilinearOp:
        op = self.components.get(n)
        if op is None:
            return zero_op(n, self.source.basis, self.target.basis, 1 - n)
        return op


def _scalar_obj(c):
    if isinstance(c, NovikovElem):
        return {"nov": c.to_obj()}
    c = Fraction(c)
    return {"q": [c.numerator, c.denominator]}


def _freeze(label):
    """JSON label (lists for tuples) back to a hashable label."""
    return tuple(_freeze(x) for x in label) if isinstance(label, list) else label


def _scalar_from_obj(o):
    try:
        if "nov" in o:
            return NovikovElem.from_obj(o["nov"])
        return Fraction(o["q"][0], o["q"][1])
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {o}") from None


# ---------------------------------------------------------------------------
# composition kernel
# ---------------------------------------------------------------------------


def compose(outer: Table, slots: Sequence[Optional[Table]]) -> Table:
    """Table of  outer o (s_1 x ... x s_k)  for sparse tables
    ``input tuple -> {output label: coefficient}``.

    A slot of ``None`` is the identity.  Slots are filled one at a time,
    last first, so the positions still to fill do not move: filling slot t
    looks the label at position t of each key up among the slot's outputs,
    and the terms that reach one key are summed before the next slot
    multiplies them.  Every key reached is kept, also when its terms
    cancel.  On rationals, or with one filled slot, this is the sum over
    all tuples of producers; on Novikov entries p (a + b) may carry a
    higher, still valid, O(q^c) than p a + p b when a + b cancels.  Signs
    are not the kernel's business: each sign factor reads the inputs of
    one table, so callers put it on that table's rows with :func:`signed`.
    """
    table = outer
    by_output: Dict[int, Dict[Label, list]] = {}
    for t in reversed(range(len(slots))):
        s = slots[t]
        if s is None:
            continue
        idx = by_output.get(id(s))
        if idx is None:
            idx = by_output[id(s)] = {}
            for ins, row in s.items():
                for o, c in row.items():
                    idx.setdefault(o, []).append((ins, c))
        out: Table = {}
        for key, row in table.items():
            head, tail = key[:t], key[t + 1:]
            for ins, p in idx.get(key[t], ()):
                dst = out.setdefault(head + ins + tail, {})
                for o, c in row.items():
                    dst[o] = dst.get(o, 0) + p * c
        table = out
    return {ins: dict(row) for ins, row in outer.items()} if table is outer else table


def signed(table: Table, sign: Callable[[tuple], int]) -> Table:
    """The table with each row multiplied by ``sign(inputs)``, a +-1; rows
    with sign +1 are shared, not copied."""
    return {ins: row if sign(ins) > 0 else {o: -c for o, c in row.items()} for ins, row in table.items()}


def add_into(acc: Table, table: Table, scale=1) -> Table:
    """acc += scale * table, entrywise; returns acc."""
    for ins, row in table.items():
        dst = acc.setdefault(ins, {})
        for o, c in row.items():
            dst[o] = dst.get(o, 0) + (c if scale == 1 else scale * c)
    return acc


def _integral(tables: Dict[Hashable, Table]) -> Dict[Hashable, Pair]:
    """Integer form of rational tables: each becomes ``(numerators, D)``
    with D the lcm of its denominators, so :func:`compose` and
    :func:`add_into` run on ints.  If any table holds a NovikovElem, every
    table passes through as ``(table, 1)``: a Novikov entry never carries
    a denominator, so :func:`_rational` may return it as it is.  A table
    of ``int`` entries alone is its own numerator table, not a copy."""
    kinds = {type(c) for t in tables.values() for row in t.values() for c in row.values()}
    if NovikovElem in kinds or kinds <= {int}:
        return {key: (t, 1) for key, t in tables.items()}
    pairs = {}
    for key, t in tables.items():
        dens = {c.denominator for row in t.values() for c in row.values()}
        if dens == {1} and {type(c) for row in t.values() for c in row.values()} <= {int}:
            pairs[key] = t, 1
            continue
        D = lcm(*dens)
        pairs[key] = (
            {ins: {o: c.numerator * (D // c.denominator) for o, c in row.items()} for ins, row in t.items()},
            D,
        )
    return pairs


def _rational(table: Table, D: int) -> Table:
    """The table of numerators / D, with ``Fraction`` entries when D > 1."""
    if D == 1:
        return table
    return {ins: {o: Fraction(c, D) for o, c in row.items()} for ins, row in table.items()}


def _compose_pairs(outer: Pair, slots: Sequence[Optional[Pair]]) -> Pair:
    """:func:`compose` on integer forms; the denominators multiply."""
    D, tables = outer[1], []
    for s in slots:
        if s is not None:
            D *= s[1]
            s = s[0]
        tables.append(s)
    return compose(outer[0], tables), D


def _sum_pairs(terms: Sequence[Pair]) -> Pair:
    """Sum of the tables  numerators / D, each rescaled to the lcm of the
    D's; the result is divided by the gcd of its numerators and
    denominator."""
    L = lcm(*(D for _t, D in terms))
    acc: Table = {}
    for t, D in terms:
        add_into(acc, t, L // D)
    if L > 1:
        g = gcd(L, *(c for row in acc.values() for c in row.values()))
        if g > 1:
            L //= g
            acc = {ins: {o: c // g for o, c in row.items()} for ins, row in acc.items()}
    return acc, L


def compositions(n: int, k: int) -> List[Tuple[int, ...]]:
    """All (n_1, ..., n_k) with every n_t >= 1 and sum n."""
    if k == 1:
        return [(n,)] if n >= 1 else []
    return [(a,) + rest for a in range(1, n - k + 2) for rest in compositions(n - a, k - 1)]


# ---------------------------------------------------------------------------
# structure relation
# ---------------------------------------------------------------------------


def relation_defect(A: AInftyStructure, n: int) -> MultilinearOp:
    """Left-hand side of the arity-n structure relation as an operation.

    Zero (to the stored precision of its entries) iff the relation holds
    at arity n.  The output has shift 3 - n.  eps(l, j) reads only the
    inputs a_0, ..., a_{l-1} ahead of the inner slot, which the identity
    slots pass through unchanged, so it sits on the rows of m_i.
    """
    deg = A.basis.degrees
    pairs = _integral({k: A.ops[k].entries for k in range(1, n + 1) if k in A.ops and A.ops[k].entries})
    terms: List[Pair] = []
    for j in range(1, n + 1):
        i = n - j + 1
        if not (i in pairs and j in pairs):
            continue
        rows, D = pairs[i]
        for l in range(0, i):
            const = l * (j - 1) + j * (i - 1) + i * j
            outer = rows
            if j % 2 or const % 2:
                outer = signed(rows, lambda ins: -1 if (j * sum(deg[a] for a in ins[:l]) + const) % 2 else 1)
            slots = [None] * i
            slots[l] = pairs[j]
            terms.append(_compose_pairs((outer, D), slots))
    acc = _rational(*_sum_pairs(terms))
    return MultilinearOp(n, A.basis, A.basis, 3 - n, acc, check_degrees=False)


# ---------------------------------------------------------------------------
# morphism relation
# ---------------------------------------------------------------------------


def morphism_defect(F: AInftyMorphismData, n: int) -> MultilinearOp:
    """LHS minus RHS of the arity-n morphism equation; zero iff it holds.

    Signs are the ones induced by the coalgebra formulation: a morphism is
    a degree-0 map of shifted tensor coalgebras commuting with the
    codifferentials, and every sign below is the suspension bookkeeping of
    translating that statement back to unshifted operations.  At arities
    <= 2 this reduces to the familiar chain-map / multiplicativity signs.

    LHS term for a composition  m_i(f_{k_1} x ... x f_{k_i}):
        (-1)^{ S(w_1..w_i) + sum_t S(block_t) }
    RHS term for an insertion  f_s(..., m_r(...), ...) at position j:
        (-1)^{ sum_{t<j}(deg a_t - 1) + S(block) + S(new inputs) }
    where S is the suspension exponent :func:`suspended_coefficient` and
    w_t is the degree of f_{k_t}(block_t).  Each factor reads the inputs of
    one table, so it sits on that table's rows: S(w) on m_i^W, S(block_t)
    on f_{k_t}, S(block) on m_r^V, and the rest (with the minus of the
    RHS) on f_s, once per position.  w_t is read as the degree of the
    W-label f_{k_t} outputs, which is the degree rule that
    :class:`MultilinearOp` checks by default and every operation this
    package builds satisfies.
    """
    V, W = F.source, F.target
    degV, degW = V.basis.degrees, W.basis.degrees

    ops = {"mW": W.m, "mV": V.m, "f": F.f}
    pairs = _integral({(X, k): op(k).entries for X, op in ops.items() for k in range(1, n + 1)})
    terms: List[Pair] = []

    def rows(key, deg, exponent=lambda ins: 0) -> Pair:
        # (-1)^{exponent(inputs) + S(inputs)} on the rows of pairs[key]
        t, D = pairs[key]
        return signed(t, lambda ins: -1 if (exponent(ins) + suspended_coefficient(ins, deg)) % 2 else 1), D

    # LHS: sum over block sizes of  m_i^W(f_{k_1}(..), ..., f_{k_i}(..))
    f_susp = {k: rows(("f", k), degV) for k in range(1, n + 1)}
    for i in range(1, n + 1):
        if not pairs["mW", i][0]:
            continue
        mi = rows(("mW", i), degW)
        for ks in compositions(n, i):
            fs = [f_susp[k] for k in ks]
            if all(f[0] for f in fs):
                terms.append(_compose_pairs(mi, fs))

    # RHS (subtracted): insertions f_s(a_1, ..., m_r^V(...), ..., a_n)
    for r in range(1, n + 1):
        s = n - r + 1
        if not (pairs["f", s][0] and pairs["mV", r][0]):
            continue
        mr = rows(("mV", r), degV)
        for l in range(0, s):
            # the leading 1 subtracts the RHS
            fs = rows(("f", s), degV, lambda ins: 1 + sum(degV[a] - 1 for a in ins[:l]))
            slots = [None] * s
            slots[l] = mr
            terms.append(_compose_pairs(fs, slots))

    acc = _rational(*_sum_pairs(terms))
    return MultilinearOp(n, V.basis, W.basis, 2 - n, acc, check_degrees=False)


# ---------------------------------------------------------------------------
# bar construction cross-check
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    ok: bool
    failures: List[str] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def suspended_coefficient(op_inputs: Tuple[Label, ...], deg) -> int:
    """Exponent of the suspension sign for b_n vs m_n on the given inputs:
    sum_q (n - q) * (deg(a_q) - 1), q = 1..n."""
    n = len(op_inputs)
    return sum((n - q) * (deg[a] - 1) for q, a in enumerate(op_inputs, start=1))


def _apply_coderivation(
    tables: List[Tuple[int, Table]], deg: Dict[Label, int], word: Tuple[Label, ...]
) -> Dict[Tuple[Label, ...], Scalar]:
    """One application of the coderivation induced by the b_n on a tensor
    word in the shifted space, with coefficient 1; ``tables`` holds the
    nonempty m_n tables by increasing n.  Koszul signs use deg - 1."""
    out: Dict[Tuple[Label, ...], Scalar] = {}
    w = len(word)
    for nn, table in tables:
        if nn > w:
            break
        for l in range(0, w - nn + 1):
            block = word[l : l + nn]
            row = table.get(block)
            if not row:
                continue
            kos = sum(deg[x] - 1 for x in word[:l])
            odd = (kos + suspended_coefficient(block, deg)) % 2
            for o, c in row.items():
                new = word[:l] + (o,) + word[l + nn :]
                out[new] = out.get(new, 0) + (-c if odd else c)
    return out


def bar_check(A: AInftyStructure, max_word: int) -> CheckReport:
    """Verify d^2 = 0 for the induced coderivation on words of length <=
    max_word.  Rational tables are scaled by the lcm L of all their
    denominators, so d^2 is judged on integers and a failing value is
    printed as numerator / L^2; Novikov tables pass through with L = 1."""
    failures = []
    labels, deg = A.basis.labels, A.basis.degrees
    tables = [(n, op.entries) for n, op in sorted(A.ops.items()) if op.entries]
    entries = [c for _n, t in tables for row in t.values() for c in row.values()]
    L = 1
    if not any(isinstance(c, NovikovElem) for c in entries):
        L = lcm(*{c.denominator for c in entries})
        tables = [
            (n, {ins: {o: c.numerator * (L // c.denominator) for o, c in row.items()} for ins, row in t.items()})
            for n, t in tables
        ]
    # d(mid) of each word some d(word) reaches; words reached by no d are
    # not kept, so the memo stays as sparse as the tables
    memo: Dict[Tuple[Label, ...], Dict[Tuple[Label, ...], Scalar]] = {}
    for w in range(1, max_word + 1):
        for word in product(labels, repeat=w):
            twice: Dict[Tuple[Label, ...], Scalar] = {}
            for mid, c in _apply_coderivation(tables, deg, word).items():
                if mid not in memo:
                    memo[mid] = _apply_coderivation(tables, deg, mid)
                for fin, c2 in memo[mid].items():
                    twice[fin] = twice.get(fin, 0) + c * c2
            for fin, c in twice.items():
                if not is_zero_scalar(c):
                    failures.append(f"word length {w}: d^2({word}) has {fin}: {c if L == 1 else Fraction(c, L * L)}")
    return CheckReport(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# pre-category assembly
# ---------------------------------------------------------------------------


def assemble_sequence(
    seq: Tuple[Hashable, ...],
    hom_spaces: Dict[Tuple[Hashable, Hashable], GradedBasis],
    compositions: Dict[Tuple[Hashable, ...], MultilinearOp],
) -> AInftyStructure:
    """Direct-sum structure on  A = (+)_{i<j} Hom(X_i, X_j)  for one sequence.

    Labels are (i, j, hom label).  m_n is nonzero only on chained inputs
    (i_0,i_1), (i_1,i_2), ..., and is given by the composition map of the
    corresponding object subsequence.  The objects of seq are distinct, and
    the objects of each composition appear in seq in the same order.
    """
    N = len(seq)
    position = {x: i for i, x in enumerate(seq)}
    if len(position) != N:
        raise ValueError(f"repeated object in sequence {seq}")
    basis = GradedBasis(tuple(
        ((a, b, l), d) for a in range(N) for b in range(a + 1, N)
        if (seq[a], seq[b]) in hom_spaces for l, d in hom_spaces[seq[a], seq[b]].elements))
    tables: Dict[int, Table] = {}
    for objs, comp in compositions.items():
        n = comp.arity
        chain = tuple(position.get(x, -1) for x in objs)
        if min(chain) < 0 or any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(f"composition objects {objs} are not a subsequence of {seq}")
        table = tables.setdefault(n, {})
        for ins, out_row in comp.entries.items():
            key = tuple((chain[t], chain[t + 1], ins[t]) for t in range(n))
            dst = table.setdefault(key, {})
            for o, c in out_row.items():
                lab = (chain[0], chain[-1], o)
                dst[lab] = dst.get(lab, 0) + c
    built = {
        n: MultilinearOp(n, basis, basis, 2 - n, tab) for n, tab in tables.items()
    }
    return AInftyStructure(basis, built)
