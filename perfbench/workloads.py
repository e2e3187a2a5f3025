"""Seeded inputs and exact checks for the four benchmark workloads.

Each workload is an endless stream of *rounds*, each a fixed mix of
checks; a run does whole rounds, so its mix does not depend on where it
stops.  One-off heavy checks (the 3D mirror triple, the Fukaya sequence)
come early in the first round, so every run does them once.  Inputs come from the workload seed alone and never repeat within a
process (a shared ``seen`` set skips repeats), because several layers
cache by input (``morse.critical_points`` is an unbounded ``lru_cache``).
The reference corpus is drawn from a fixed seed: it is the warm-up, and
the SHA-256 digests of its exact outputs are compared with
``expected_digests.json``.

A check is a callable taking the counters dict; it raises ``CheckFailed``
on a wrong verdict or an undetected negative control, and returns the
digest of its exact output (or ``None`` for floating-point checks).
Only public names of ``torusmirror`` are used, so the benchmark stays
comparable while the package is refactored underneath it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, count, product
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from torusmirror import ainfty, fukaya_oh, mirror, monge, morse, randomgen, transfer
from torusmirror.ainfty import AInftyStructure, GradedBasis, MultilinearOp
from torusmirror.fukaya_oh import AffineLagrangian
from torusmirror.novikov import NovikovElem


class CheckFailed(Exception):
    """A wrong verdict, or a negative control that went undetected."""


@dataclass
class Check:
    kind: str
    run: Callable[[Dict[str, float]], Optional[str]]


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def fresh(seen: set, draw: Callable, key: Callable = lambda x: x):
    """Call draw() until key(result) is not in seen; record and return it."""
    while True:
        x = draw()
        k = key(x)
        if k not in seen:
            seen.add(k)
            return x


# ---------------------------------------------------------------------------
# canonical digests of exact outputs
# ---------------------------------------------------------------------------


def _canon(x):
    if isinstance(x, NovikovElem):
        return {"nov": x.to_obj()}
    if isinstance(x, (int, F)):
        return str(F(x))
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    return x


def _op_rows(op: MultilinearOp) -> list:
    rows = [
        [_canon(ins), _canon(out), _canon(c)]
        for ins, row in op.entries.items()
        for out, c in row.items()
    ]
    return sorted(rows, key=lambda r: json.dumps(r))


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def _structure_rows(A: AInftyStructure) -> dict:
    return {str(n): _op_rows(op) for n, op in sorted(A.ops.items())}


def _op_entry_count(op: MultilinearOp) -> int:
    return sum(len(row) for row in op.entries.values())


# ---------------------------------------------------------------------------
# mirror: Floer triangle products against theta multiplication
# ---------------------------------------------------------------------------

SHIFTS = (F(0), F(1, 2), F(1, 3), F(1, 4))
CUTOFF_1D, CUTOFF_2D, CUTOFF_3D = F(25), F(6), F(3)
# convex-ordered 1D slope triples with shifts: 10 * 64 = 640 distinct inputs
ONE_D = [
    (slopes, shifts)
    for slopes in combinations(range(5), 3)
    for shifts in product(SHIFTS, repeat=3)
]
# 2D slope increments A_1 - A_0 and A_2 - A_1; only the shifts vary, so
# every 2D check costs about the same and the tail rank is stable
TWO_D_INCREMENT = ((1, 0), (0, 1))
TWO_D_INCREMENT_2 = ((2, 1), (1, 1))


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _zero(n):
    return tuple((0,) * n for _ in range(n))


def _identity(n, k=1):
    return tuple(tuple(k if i == j else 0 for j in range(n)) for i in range(n))


def mirror_check(slopes, shifts, cutoff, pick: float, lam: F) -> Check:
    """mirror_compare must say EQUAL; the same tables with one theta
    coefficient perturbed by q^lam must say DIFFER at that entry."""
    n = len(slopes[0])

    def run(counters):
        ls = [AffineLagrangian(a, b) for a, b in zip(slopes, shifts)]
        rep = mirror.mirror_compare(*ls, cutoff)
        require(rep.equal, f"mirror_compare {rep.status} on {slopes} {shifts}")
        theta = dict(rep.theta_table)
        keys = sorted(theta)
        key = keys[int(pick * len(keys))]
        theta[key] = theta[key] + NovikovElem.q_power(lam, 1)
        neg = mirror.compare_tables(dict(rep.triangle_table), theta, cutoff)
        require(
            neg.status == "DIFFER" and neg.first_discrepancy[0] == key,
            f"perturbed theta entry {key} not detected",
        )
        return digest(
            {
                "triangle": _canon(list(rep.triangle_table)),
                "theta": _canon(list(rep.theta_table)),
            }
        )

    return Check(f"mirror{n}d", run)


class Mirror:
    """Rounds of six 1D checks and one 2D check; one 3D check early in the
    first round.  The 1D checks set the median, the 2D checks the tail."""

    pool_rounds = 10

    def _one_d(self, rng, one_d: list, seen: set) -> Optional[Check]:
        while one_d:
            s, b = one_d.pop()
            key = ("1d", s, b)
            if key not in seen:
                seen.add(key)
                return mirror_check(tuple(((x,),) for x in s), tuple((y,) for y in b),
                                    CUTOFF_1D, rng.random(), F(rng.randint(0, 4), 2))
        return None

    def _shifted(self, rng, seen, slopes, shift_set, cutoff, lam) -> Check:
        n = len(slopes[0])
        shifts = fresh(
            seen,
            lambda: tuple(tuple(rng.choice(shift_set) for _ in range(n)) for _ in slopes),
            key=lambda shifts: (slopes, shifts),
        )
        return mirror_check(slopes, shifts, cutoff, rng.random(), lam)

    def _two_d(self, rng, seen: set) -> Check:
        slopes = (_zero(2), TWO_D_INCREMENT, _mat_add(TWO_D_INCREMENT, TWO_D_INCREMENT_2))
        return self._shifted(rng, seen, slopes, SHIFTS, CUTOFF_2D, F(1, 2))

    def _three_d(self, rng, seen: set) -> Check:
        slopes = (_zero(3), _identity(3), _identity(3, 2))
        return self._shifted(rng, seen, slopes, SHIFTS[:2], CUTOFF_3D, F(1))

    def reference(self, seen: set) -> List[Tuple[str, Check]]:
        rng = random.Random("mirror-reference")
        one_d = rng.sample(ONE_D, 4)
        out = [(f"1d-{i}", self._one_d(rng, one_d, seen)) for i in range(4)]
        out.append(("2d-0", self._two_d(rng, seen)))
        return out

    def rounds(self, seed: int, seen: set) -> Iterator[List[Check]]:
        rng = random.Random(f"mirror-{seed}")
        one_d = list(ONE_D)
        rng.shuffle(one_d)
        for r in count():
            batch = [c for c in (self._one_d(rng, one_d, seen) for _ in range(6)) if c]
            if len(batch) < 6:
                return  # the 640 one-dimensional inputs are used up
            batch.insert(3, self._two_d(rng, seen))
            if r == 0:
                batch.insert(1, self._three_d(rng, seen))
            yield batch


# ---------------------------------------------------------------------------
# transfer: homotopy transfer, relation vs bar construction, Fukaya relation
# ---------------------------------------------------------------------------


def massey_dga() -> AInftyStructure:
    """Non-formal dga: du = ab, dv = bc, a.b = ab, b.c = bc, u.c = a.v = w.
    The Massey product <a, b, c> = w is nonzero, so m3 on cohomology is."""
    B = GradedBasis(
        (("a", 1), ("b", 1), ("c", 1), ("u", 1), ("v", 1), ("ab", 2), ("bc", 2), ("w", 2))
    )
    d = MultilinearOp(1, B, B, 1, {("u",): {"ab": F(1)}, ("v",): {"bc": F(1)}})
    m = MultilinearOp(
        2, B, B, 0,
        {
            ("a", "b"): {"ab": F(1)},
            ("b", "c"): {"bc": F(1)},
            ("u", "c"): {"w": F(1)},
            ("a", "v"): {"w": F(1)},
        },
    )
    return AInftyStructure(B, {1: d, 2: m})


def _invert(m: List[List[F]]) -> Optional[List[List[F]]]:
    """Gauss-Jordan inverse over Q; None when singular."""
    n = len(m)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def conjugate(A: AInftyStructure, rng: random.Random) -> Tuple[AInftyStructure, tuple]:
    """Apply a seeded invertible degree-0 change of basis g to every m_n:
    m'(a_1, ..., a_n) = g^{-1} m(g a_1, ..., g a_n).  Returns g as a key."""
    labels = A.basis.labels
    deg = A.basis.degrees
    g: Dict = {}  # label -> {label: coeff}, the columns of g
    ginv: Dict = {}
    for d in sorted(set(deg.values())):
        block = [l for l in labels if deg[l] == d]
        while True:
            m = [[F(rng.randint(-2, 2)) for _ in block] for _ in block]
            inv = _invert(m)
            if inv is not None:
                break
        for j, a in enumerate(block):
            g[a] = {block[i]: m[i][j] for i in range(len(block)) if m[i][j]}
            ginv[a] = {block[i]: inv[i][j] for i in range(len(block)) if inv[i][j]}
    ops = {}
    for n, op in A.ops.items():
        table = {}
        for ins in product(labels, repeat=n):
            mid: Dict = {}
            for combo in product(*(g[a].items() for a in ins)):
                coeff = math.prod(c for _l, c in combo)
                for o, v in op.entries.get(tuple(l for l, _c in combo), {}).items():
                    mid[o] = mid.get(o, 0) + coeff * v
            row: Dict = {}
            for o, v in mid.items():
                for o2, w in ginv[o].items():
                    row[o2] = row.get(o2, 0) + v * w
            row = {o: v for o, v in row.items() if v}
            if row:
                table[ins] = row
        ops[n] = MultilinearOp(n, A.basis, A.basis, op.shift, table)
    key = tuple(sorted((a, tuple(sorted(col.items()))) for a, col in g.items()))
    return AInftyStructure(A.basis, ops), key


def transfer_checks(r: transfer.RetractionData, massey: bool) -> List[Check]:
    """Two checks on one retraction.  The first transfers to arity 5,
    checks the relations for n <= 5 and that the branch recursion equals
    the planar-tree sum for n <= 4 (as in the unit tests; the arity-5 tree
    sum alone takes about 2 s on a Massey input); a Massey input must
    transfer to a nonzero m_3, m_4 or m_5.  The second checks the
    comparison morphism's equations for n <= 4."""
    kind = "massey" if massey else "transfer"

    def structure(counters):
        B = transfer.transfer_structure(r, 5)
        for n in range(1, 6):
            require(ainfty.relation_defect(B, n).is_zero(), f"transferred relation n={n}")
        T = transfer.transfer_structure_by_trees(r, 4)
        for n in range(1, 5):
            require(B.m(n).entries == T.m(n).entries, f"recursion != tree sum at n={n}")
        higher = sum(_op_entry_count(B.m(n)) for n in (3, 4, 5))
        counters["transfer.higher_entries"] += higher
        if massey:
            require(higher > 0, "Massey input transferred to zero higher products")
        return digest(_structure_rows(B))

    def morphism(counters):
        Fm = transfer.transfer_morphism(r, 4)
        for n in range(1, 5):
            require(ainfty.morphism_defect(Fm, n).is_zero(), f"morphism equation n={n}")
        return digest({str(n): _op_rows(op) for n, op in sorted(Fm.components.items())})

    return [Check(kind, structure), Check(f"{kind}-morphism", morphism)]


def relation_bar_check(A: AInftyStructure, corrupted: bool) -> Check:
    """relation_defect and bar_check must both pass a valid dga and both
    fail a corrupted one."""

    def run(counters):
        rel_ok = all(ainfty.relation_defect(A, n).is_zero() for n in (1, 2, 3))
        bar_ok = ainfty.bar_check(A, 3).ok
        if corrupted:
            require(not rel_ok and not bar_ok, "corrupted structure not detected")
        else:
            require(rel_ok and bar_ok, "valid structure flagged")
        return None

    return Check("relbar-corrupt" if corrupted else "relbar", run)


def fukaya_sequence(slopes, shifts, cutoff) -> AInftyStructure:
    """Direct-sum structure of a 1D affine Fukaya sequence from its
    intersection points and triangle products."""
    ls = [AffineLagrangian(((s,),), (b,)) for s, b in zip(slopes, shifts)]
    pts, hom, comps = {}, {}, {}
    for i, j in combinations(range(len(ls)), 2):
        pts[i, j] = fukaya_oh.intersections(ls[i], ls[j])
        hom[i, j] = GradedBasis(tuple((p.coset, p.degree) for p in pts[i, j]))
    for i, j, k in combinations(range(len(ls)), 3):
        table = {}
        for x0 in pts[i, j]:
            for x1 in pts[j, k]:
                out = fukaya_oh.m2(ls[i], ls[j], ls[k], x0, x1, cutoff)
                row = {x2.coset: v for x2, v in out.items()}
                if row:
                    table[(x0.coset, x1.coset)] = row
        comps[i, j, k] = MultilinearOp(2, hom[i, j], hom[i, k], 0, table, check_degrees=False)
    return ainfty.assemble_sequence(tuple(range(len(ls))), hom, comps)


def fukaya_check(slopes, shifts, cutoff) -> Check:
    """Arity-3 relation of a 5-object Fukaya sequence with Novikov
    coefficients, judged after truncation at the requested cutoff."""

    def run(counters):
        A = fukaya_sequence(slopes, shifts, cutoff)
        d = ainfty.relation_defect(A, 3)
        raw = [v for row in d.entries.values() for v in row.values()]
        counters["ainfty.defect_raw_nonzero"] += len(raw)
        bad = [v for v in raw if not v.truncate(cutoff).is_zero()]
        require(not bad, f"Fukaya relation fails below cutoff {cutoff}: {bad[:1]}")
        return None

    return Check("fukaya", run)


# gap orders (g1..g4) of slopes 0 < s1 < ... < s4 = 10 with hom dimension 50
FUKAYA_GAPS = [
    (1, 2, 3, 4), (4, 2, 3, 1), (1, 3, 2, 4), (4, 3, 2, 1),
    (2, 1, 4, 3), (3, 1, 4, 2), (2, 4, 1, 3), (3, 4, 1, 2),
]


class Transfer:
    """Rounds of one Massey retraction and four randomgen retractions (two
    checks each: transfer, then comparison morphism) and two
    relation-vs-bar checks (one corrupted); one Fukaya-sequence relation
    early in the first round.  The randomgen checks set the median; the
    Massey checks, two per round, set the tail."""

    pool_rounds = 4

    def _massey(self, rng, seen) -> List[Check]:
        A, _g = fresh(seen, lambda: conjugate(massey_dga(), rng),
                      key=lambda conj: ("massey", conj[1]))
        return transfer_checks(randomgen.retraction_onto_cohomology(A, rng), True)

    def _random(self, rng, seen) -> List[Check]:
        r = fresh(
            seen,
            lambda: randomgen.retraction_onto_cohomology(randomgen.random_dg_algebra(rng), rng),
            key=lambda r: ("transfer", digest(r.to_obj())),
        )
        return transfer_checks(r, False)

    def _relbar(self, rng, seen, corrupted) -> Check:
        def draw():
            A = randomgen.random_dg_algebra(rng)
            return randomgen.corrupt_structure(A, rng) if corrupted else A

        A = fresh(seen, draw, key=lambda A: ("relbar", corrupted, digest(_structure_rows(A))))
        return relation_bar_check(A, corrupted)

    def _fukaya(self, rng, seen) -> Check:
        def draw():
            gaps = rng.choice(FUKAYA_GAPS)
            slopes = tuple(sum(gaps[:i]) for i in range(5))
            return "fukaya", slopes, (F(0),) + tuple(rng.choice(SHIFTS) for _ in range(4))

        _, slopes, shifts = fresh(seen, draw)
        return fukaya_check(slopes, shifts, F(12))

    def reference(self, seen: set) -> List[Tuple[str, Check]]:
        rng = random.Random("transfer-reference")
        massey, massey_morphism = self._massey(rng, seen)
        rand, rand_morphism = self._random(rng, seen)
        return [
            ("massey-0", massey),
            ("massey-morphism-0", massey_morphism),
            ("transfer-0", rand),
            ("transfer-morphism-0", rand_morphism),
            ("relbar-0", self._relbar(rng, seen, False)),
            ("relbar-corrupt-0", self._relbar(rng, seen, True)),
        ]

    def rounds(self, seed: int, seen: set) -> Iterator[List[Check]]:
        rng = random.Random(f"transfer-{seed}")
        for r in count():
            batch = self._massey(rng, seen)
            for _ in range(4):
                batch.extend(self._random(rng, seen))
            batch.append(self._relbar(rng, seen, False))
            batch.append(self._relbar(rng, seen, True))
            if r == 0:
                batch.insert(2, self._fukaya(rng, seen))
            yield batch


# ---------------------------------------------------------------------------
# morse: certified Morse products on the circle
# ---------------------------------------------------------------------------


def _rand_trig(rng):
    return morse.TrigPolynomial.from_dicts(
        {k: F(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
        {k: F(rng.randint(-4, 4), rng.randint(1, 3)) for k in (1, 2)},
    )


def morse_check(draw_seed: str, seen: set) -> Check:
    """Draw seeded trig triples until one is transversal, then check the
    assembled relations for arity <= 3, ranks (1, 1), and that the
    weighted m2 specializes to the unweighted one at q = 1."""

    def run(counters):
        rng = random.Random(draw_seed)
        while True:
            triple = (_rand_trig(rng), _rand_trig(rng), _rand_trig(rng))
            if triple in seen:
                continue
            seen.add(triple)
            counters["morse.draws"] += 1
            if morse.transversal_triple(*triple):
                break
        counters["morse.transversal"] += 1
        f0, f1, f2 = triple
        hom = {
            (0, 1): morse.critical_points(f0 - f1).basis(),
            (1, 2): morse.critical_points(f1 - f2).basis(),
            (0, 2): morse.critical_points(f0 - f2).basis(),
        }
        comps = {
            (0, 1): morse.morse_differential(f0, f1),
            (1, 2): morse.morse_differential(f1, f2),
            (0, 2): morse.morse_differential(f0, f2),
            (0, 1, 2): morse.m2(f0, f1, f2),
        }
        A = ainfty.assemble_sequence((0, 1, 2), hom, comps)
        for n in (1, 2, 3):
            require(ainfty.relation_defect(A, n).is_zero(), f"Morse relation n={n}")
        for key in ((0, 1), (1, 2), (0, 2)):
            require(morse.cohomology_ranks(comps[key]) == (1, 1), f"ranks on {key}")
        weighted = morse.m2(f0, f1, f2, weighted=True)
        plain = comps[(0, 1, 2)]
        for ins in set(plain.entries) | set(weighted.entries):
            p_row, w_row = plain.entries.get(ins, {}), weighted.entries.get(ins, {})
            for out in set(p_row) | set(w_row):
                w = w_row.get(out, NovikovElem.zero())
                at_one = sum((c for _l, c in w.terms), F(0))
                require(at_one == p_row.get(out, 0), f"weighted m2 at q=1 differs at {ins}")
                require(all(l >= 0 for l, _c in w.terms), "negative triangle weight")
        return digest({str(k): _op_rows(op) for k, op in
                       list(comps.items()) + [("weighted", weighted)]})

    return Check("morse", run)


class Morse:
    """Rounds of 20 checks, each on its own seeded stream of draws."""

    pool_rounds = 12

    def reference(self, seen: set) -> List[Tuple[str, Check]]:
        return [(f"triple-{i}", morse_check(f"morse-reference-{i}", seen)) for i in range(2)]

    def rounds(self, seed: int, seen: set) -> Iterator[List[Check]]:
        for r in count():
            yield [morse_check(f"morse-{seed}-{r}-{i}", seen) for i in range(20)]


# ---------------------------------------------------------------------------
# legendre: discrete Legendre duality (floating point)
# ---------------------------------------------------------------------------

C_BOUND = 1.0  # errors must stay below C h^2, as in acceptance criterion 8
MIN_ORDER = 1.8
LADDER_1D = (F(1, 16), F(1, 32), F(1, 64))
LADDER_2D = (F(1, 12), F(1, 16))


class _Ladder:
    """One potential on a ladder of grids, one check per grid: involution
    and Hessian-duality errors below C h^2, and on the finest grid of a
    1D ladder the observed orders of both."""

    def __init__(self, f, box, dual_box, grids, orders: bool):
        self.f, self.box, self.dual_box, self.grids = f, box, dual_box, grids
        self.orders = orders
        self.errors: Dict[F, Tuple[float, float]] = {}

    def checks(self) -> List[Check]:
        return [Check(f"legendre{len(self.box)}d", self._grid(h)) for h in self.grids]

    def _grid(self, h):
        def run(counters):
            K = monge.ConvexGridFunction.sample(self.f, self.box, h)
            e_inv = monge.involution_error(K, self.dual_box, h)
            e_det = monge.hessian_duality_check(K, self.dual_box, h, margin=0.1).max_det_error
            for name, e in (("involution", e_inv), ("det product", e_det)):
                require(e <= C_BOUND * float(h) ** 2, f"{name} error {e} at h={h}")
            self.errors[h] = (e_inv, e_det)
            if self.orders and h == self.grids[-1]:
                h0 = self.grids[0]
                for i, name in enumerate(("involution", "det")):
                    order = math.log2(self.errors[h0][i] / self.errors[h][i]) / math.log2(h0 / h)
                    require(order >= MIN_ORDER, f"{name} order {order:.2f} < {MIN_ORDER}")
            return None
        return run


def quartic_ladder(tilt: F, offset: F) -> _Ladder:
    """K(x) = x^4/4 + tilt x + offset on [1/2, 1]; the tilt shifts the dual box."""
    t, c = float(tilt), float(offset)
    return _Ladder(
        lambda x: 0.25 * x**4 + t * x + c,
        [(F(1, 2), F(1))],
        [(F(1, 4) + tilt, F(3, 4) + tilt)],
        LADDER_1D,
        orders=True,
    )


def convex_2d(tilt: Tuple[F, F]) -> _Ladder:
    """K = x^2/2 + x^4/12 + x y / 10 + y^2/2 + y^4/12 + <tilt, (x, y)> on
    [-1, 1]^2.  A tilt translates the transform exactly, so every 2D input
    costs the same and only the rounding differs."""
    t0, t1 = float(tilt[0]), float(tilt[1])
    return _Ladder(
        lambda x, y: 0.5 * x * x + x**4 / 12 + 0.1 * x * y + 0.5 * y * y + y**4 / 12 + t0 * x + t1 * y,
        [(F(-1), F(1)), (F(-1), F(1))],
        [(F(-1, 2) + tilt[0], F(1, 2) + tilt[0]), (F(-1, 2) + tilt[1], F(1, 2) + tilt[1])],
        LADDER_2D,
        orders=False,
    )


class Legendre:
    """Rounds of 24 one-dimensional quartic ladders (3 checks each) and one
    2D potential (2 checks), about 10.5 s each, so a 15 s run does two
    rounds even if the round time moves by 25% either way.  A run has fewer than
    eleven 2D checks, so the tail rank lies among the h = 1/64 quartic
    checks, not between the two 2D grid sizes."""

    pool_rounds = 2

    def _quartic(self, rng, seen) -> _Ladder:
        _, tilt, offset = fresh(seen, lambda: (
            "1d", F(rng.randint(-64, 64), 64), F(rng.randint(0, 15), 8)))
        return quartic_ladder(tilt, offset)

    def _convex(self, rng, seen) -> _Ladder:
        _, t0, t1 = fresh(seen, lambda: (
            "2d", F(rng.randint(-8, 8), 32), F(rng.randint(-8, 8), 32)))
        return convex_2d((t0, t1))

    def reference(self, seen: set) -> List[Tuple[str, Check]]:
        rng = random.Random("legendre-reference")
        checks = self._quartic(rng, seen).checks()
        return [(f"quartic-{i}", c) for i, c in enumerate(checks)]

    def rounds(self, seed: int, seen: set) -> Iterator[List[Check]]:
        rng = random.Random(f"legendre-{seed}")
        while True:
            two_d = self._convex(rng, seen).checks()
            batch = []
            for i in range(24):
                batch.extend(self._quartic(rng, seen).checks())
                if i in (7, 15):
                    batch.append(two_d.pop(0))
            yield batch


WORKLOADS = {"mirror": Mirror, "transfer": Transfer, "morse": Morse, "legendre": Legendre}
