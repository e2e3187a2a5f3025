"""Command-line entry point with deterministic JSON reports.

Subcommands drive the library end to end: structure-relation checks on
serialized A-infinity data, homotopy transfer of retraction fixtures, Morse
data on the circle, Fukaya products and their associativity, the mirror
comparison, discrete Legendre duality, and a consolidated `suite` run.

Reports are dataclasses serialized with sorted keys and exact rational
scalars, so repeated runs on identical inputs produce byte-identical JSON;
wall-clock timing is kept out of the serialized report (it is printed to
stderr) precisely to preserve that guarantee.  The exit code is 0 iff the
status is PASS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

DEFAULT_SEED = 20240901
# exceptions that malformed or unusable input raises; they give an ERROR report
_INPUT_ERRORS = (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    command: str
    inputs_digest: str
    status: str  # PASS | FAIL | ERROR
    payload: dict
    timing: float

    def to_obj(self) -> dict:
        # timing excluded: serialized reports must be byte-identical across
        # runs on identical inputs
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "status": self.status,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _frac_obj(x: Fraction) -> List[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _frac(v) -> Fraction:
    """A rational from JSON or the command line: [numerator, denominator] or
    anything Fraction reads; a zero denominator is a ValueError."""
    try:
        return Fraction(v[0], v[1]) if isinstance(v, list) else Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v}") from None


def _slope_inputs(slopes, shifts, cutoff) -> dict:
    return {
        "slopes": [_frac_obj(s) for s in slopes],
        "shifts": [_frac_obj(s) for s in shifts],
        "cutoff": _frac_obj(cutoff),
    }


def _label_str(label) -> str:
    return json.dumps(label, default=str)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def cmd_check_ainfty(path: str, max_arity: Optional[int]) -> RunReport:
    from .ainfty import AInftyStructure, bar_check, relation_defect

    with open(path) as f:
        obj = json.load(f)
    A = AInftyStructure.from_obj(obj)
    top = max_arity or A.max_arity() + 1
    defects = []
    ok = True
    for n in range(1, top + 1):
        d = relation_defect(A, n)
        entry = {"arity": n, "zero": d.is_zero()}
        if not d.is_zero():
            ok = False
            ins, out, c = next(d.nonzero_entries())
            entry["first_failure"] = {
                "inputs": [_label_str(l) for l in ins],
                "output": _label_str(out),
            }
        defects.append(entry)
    bar = bar_check(A, min(top, 4))
    payload = {
        "max_arity": top,
        "defects": defects,
        "bar_check": {"ok": bar.ok, "failures": sorted(bar.failures)},
    }
    return RunReport(
        "check-ainfty", _digest(obj), "PASS" if ok and bar.ok else "FAIL", payload, 0.0
    )


def cmd_transfer(path: str, max_arity: int) -> RunReport:
    from .ainfty import relation_defect
    from .transfer import RetractionData, transfer_structure, validate

    with open(path) as f:
        obj = json.load(f)
    r = RetractionData.from_obj(obj)
    rep = validate(r)
    if not rep.ok:
        return RunReport(
            "transfer",
            _digest(obj),
            "ERROR",
            {"validation": sorted(rep.failures)},
            0.0,
        )
    B = transfer_structure(r, max_arity=max_arity)
    defects = []
    ok = True
    for n in range(1, max_arity + 1):
        d = relation_defect(B, n)
        defects.append({"arity": n, "zero": d.is_zero()})
        ok = ok and d.is_zero()
    payload = {
        "sub_dimension": len(r.sub_basis),
        "transferred": B.to_obj(),
        "defects": defects,
    }
    return RunReport("transfer", _digest(obj), "PASS" if ok else "FAIL", payload, 0.0)


def _trig_from_obj(obj):
    from .morse import TrigPolynomial

    def coeffs(part):
        return {int(k): _frac(v) for k, v in obj.get(part, {}).items()}

    return TrigPolynomial.from_dicts(coeffs("cos"), coeffs("sin"))


def cmd_morse(sub: str, path: str, weighted: bool, cutoff: Optional[str]) -> RunReport:
    from . import morse

    with open(path) as f:
        obj = json.load(f)
    cut = _frac(cutoff) if cutoff is not None else None
    if sub == "crit":
        f0 = _trig_from_obj(obj["f0"])
        f1 = _trig_from_obj(obj.get("f1", {}))
        crit = morse.critical_points(f0 - f1)
        payload = {
            "points": [
                {
                    "label": p.label,
                    "index": p.index,
                    "y_interval": [_frac_obj(p.y_interval[0]), _frac_obj(p.y_interval[1])],
                }
                for p in crit.points
            ]
        }
    elif sub == "diff":
        op = morse.morse_differential(_trig_from_obj(obj["f0"]), _trig_from_obj(obj["f1"]))
        payload = {
            "entries": [
                [list(ins), out, int(c)] for ins, out, c in op.nonzero_entries()
            ],
            "cohomology_ranks": list(morse.cohomology_ranks(op)),
        }
    elif sub == "m2":
        op = morse.m2(
            _trig_from_obj(obj["f0"]),
            _trig_from_obj(obj["f1"]),
            _trig_from_obj(obj["f2"]),
            weighted=weighted,
            cutoff=cut,
        )
        payload = {
            "weighted": weighted,
            "entries": [
                [list(ins), out, c.to_obj() if weighted else int(c)]
                for ins, out, c in op.nonzero_entries()
            ],
        }
    else:  # pragma: no cover
        raise ValueError(sub)
    return RunReport(
        f"morse-{sub}", _digest(obj), "PASS", payload, 0.0
    )


def cmd_fo(slopes: List[Fraction], shifts: List[Fraction], cutoff: Optional[Fraction]) -> RunReport:
    from .ainfty import relation_defect
    from .criteria import SIZES, circle_sections
    from .fukaya_oh import fukaya_sequence, mk_vanishing_certificate

    cutoff = SIZES["acceptance"]["fo"]["cutoff"] if cutoff is None else cutoff
    inputs = _slope_inputs(slopes, shifts, cutoff)
    if len(slopes) != 4:
        return RunReport("fo", _digest(inputs), "ERROR", {"error": "need 4 slopes"}, 0.0)
    ls = circle_sections(slopes, shifts)
    d = relation_defect(fukaya_sequence(ls, cutoff), 3)
    defect = {ins for ins, _out, _c in d.nonzero_entries()}
    cert = mk_vanishing_certificate(ls, 3)
    payload = {
        "associative": not defect,
        "defect_count": len(defect),
        "m3_certificate": {
            "certified": cert.certified,
            "reason": cert.reason,
            "generator_degrees": list(cert.generator_degrees),
        },
    }
    status = "PASS" if not defect and cert.certified else "FAIL"
    return RunReport("fo", _digest(inputs), status, payload, 0.0)


def cmd_mirror(slopes: List[Fraction], shifts: List[Fraction], cutoff: Optional[Fraction]) -> RunReport:
    from .criteria import SIZES, circle_sections
    from .mirror import mirror_compare

    cutoff = SIZES["acceptance"]["mirror"]["cutoff"] if cutoff is None else cutoff
    inputs = _slope_inputs(slopes, shifts, cutoff)
    if len(slopes) != 3:
        return RunReport("mirror", _digest(inputs), "ERROR", {"error": "need 3 slopes"}, 0.0)
    try:
        rep = mirror_compare(*circle_sections(slopes, shifts), cutoff)
    except ValueError as e:
        return RunReport("mirror", _digest(inputs), "ERROR", {"error": str(e)}, 0.0)
    payload = {
        "status": rep.status,
        "table_size": len(rep.triangle_table),
    }
    if rep.first_discrepancy is not None:
        key, a, b = rep.first_discrepancy
        payload["first_discrepancy"] = {
            "key": _label_str(key),
            "triangle": a.to_obj(),
            "theta": b.to_obj(),
        }
    return RunReport(
        "mirror", _digest(inputs), "PASS" if rep.equal else "FAIL", payload, 0.0
    )


def cmd_legendre(path: str, tol: float) -> RunReport:
    from .monge import (
        ConvexGridFunction,
        hessian_duality_check,
        involution_error,
        legendre,
        ma_residual,
    )

    with open(path) as f:
        obj = json.load(f)

    import numpy as np

    box = [(_frac(lo), _frac(hi)) for lo, hi in obj["box"]]
    h = _frac(obj["h"])
    dual_box = [(_frac(lo), _frac(hi)) for lo, hi in obj["dual_box"]]
    dual_h = _frac(obj["dual_h"])
    try:
        K = ConvexGridFunction(tuple(box), h, np.array(obj["values"], dtype=float))
        inv = involution_error(K, dual_box, dual_h)
        dual = legendre(K, dual_box, dual_h)
        duality = hessian_duality_check(K, dual_box, dual_h)
        payload = {
            "involution_error": inv,
            "ma_residual": ma_residual(K),
            "dual_ma_residual": ma_residual(dual),
            "max_det_error": duality.max_det_error,
            "max_metric_error": duality.max_metric_error,
            "matched_points": duality.matched_points,
            "tolerance": tol,
        }
    except ValueError as e:
        return RunReport("legendre", _digest(obj), "ERROR", {"error": str(e)}, 0.0)
    ok = inv <= tol and duality.max_det_error <= tol
    return RunReport("legendre", _digest(obj), "PASS" if ok else "FAIL", payload, 0.0)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _print_cases(name: str, out, elapsed: float) -> None:
    """One module's case lines, figures and failures, on stderr."""
    lines = [*out.cases, *(f"{k} = {v:.4g}" for k, v in out.figures.items()),
             *(f"FAILED {f}" for f in out.failures)]
    print(*(f"{name}  {line}" for line in lines),
          f"{name}: {len(out.cases)} cases, {len(out.failures)} failures, {elapsed:.1f}s",
          sep="\n", file=sys.stderr)


def cmd_suite(seed: int, modules: Optional[List[str]], scale: str = "suite",
              cases: bool = False) -> RunReport:
    from . import criteria

    sizes = criteria.SIZES[scale]
    selected = modules or sorted(sizes)
    unknown = [m for m in selected if m not in sizes]
    cutoff = max(s["cutoff"] for s in sizes.values() if "cutoff" in s)
    inputs = {"seed": seed, "cutoff": _frac_obj(cutoff), "modules": sorted(selected)}
    if unknown:
        return RunReport(
            "suite", _digest(inputs), "ERROR", {"error": f"unknown modules {unknown}"}, 0.0
        )

    def run(name) -> dict:
        # whatever a module raises is that module's result; the others still report
        start = time.perf_counter()
        try:
            out = criteria.run_module(name, scale, seed)
        except Exception as e:
            return {"error": f"{type(e).__name__}: {e}", "status": "ERROR"}
        if cases:
            _print_cases(name, out, time.perf_counter() - start)
        extra = {"corrupted": sizes[name]["corrupted"]} if name == "signs" else {}
        status = "PASS" if out.ok else "FAIL"
        return {"count": len(out.cases), "failures": out.failures, "status": status, **extra}

    payload = {name: run(name) for name in sorted(selected)}
    statuses = {result["status"] for result in payload.values()}
    status = "ERROR" if "ERROR" in statuses else "FAIL" if "FAIL" in statuses else "PASS"
    return RunReport("suite", _digest(inputs), status, payload, 0.0)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _fraction_list(s: str) -> List[Fraction]:
    return [_frac(x) for x in s.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusmirror")
    p.add_argument("--json-out", metavar="FILE", help="write the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-ainfty", help="verify structure relations on a JSON structure")
    s.add_argument("file")
    s.add_argument("--max-arity", type=int, default=None)

    s = sub.add_parser("transfer", help="transfer a retraction fixture and verify")
    s.add_argument("file")
    s.add_argument("--max-arity", type=int, default=4)

    s = sub.add_parser("morse", help="Morse data on the circle")
    s.add_argument("sub", choices=["crit", "diff", "m2"])
    s.add_argument("file")
    s.add_argument("--weighted", action="store_true")
    s.add_argument("--cutoff", default=None)

    s = sub.add_parser("fo", help="Fukaya product associativity for a slope quadruple")
    s.add_argument("--slopes", type=_fraction_list, required=True)
    s.add_argument("--shifts", type=_fraction_list, default=None)
    s.add_argument("--cutoff", type=_frac, default=None,
                   help="default: the acceptance cutoff of criteria.SIZES")

    s = sub.add_parser("mirror", help="triangle products vs theta multiplication")
    s.add_argument("--slopes", type=_fraction_list, required=True)
    s.add_argument("--shifts", type=_fraction_list, default=None)
    s.add_argument("--cutoff", type=_frac, default=None,
                   help="default: the acceptance cutoff of criteria.SIZES")

    s = sub.add_parser("legendre", help="discrete Legendre duality checks on a JSON grid")
    s.add_argument("file")
    s.add_argument("--tol", type=float, default=1e-6)

    s = sub.add_parser("suite", help="consolidated acceptance matrix")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--modules", type=lambda v: v.split(","), default=None)
    s.add_argument("--scale", choices=["suite", "acceptance"], default="suite",
                   help="the sizes of criteria.SIZES to run at")
    s.add_argument("--cases", action="store_true",
                   help="print each module's cases and figures to stderr")

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "check-ainfty":
            report = cmd_check_ainfty(args.file, args.max_arity)
        elif args.command == "transfer":
            report = cmd_transfer(args.file, args.max_arity)
        elif args.command == "morse":
            report = cmd_morse(args.sub, args.file, args.weighted, args.cutoff)
        elif args.command == "fo":
            shifts = args.shifts or [Fraction(0)] * len(args.slopes)
            report = cmd_fo(args.slopes, shifts, args.cutoff)
        elif args.command == "mirror":
            shifts = args.shifts or [Fraction(0)] * len(args.slopes)
            report = cmd_mirror(args.slopes, shifts, args.cutoff)
        elif args.command == "legendre":
            report = cmd_legendre(args.file, args.tol)
        elif args.command == "suite":
            report = cmd_suite(args.seed, args.modules, args.scale, args.cases)
        else:  # pragma: no cover
            raise SystemExit(2)
    except _INPUT_ERRORS as e:
        report = RunReport(
            args.command, "", "ERROR", {"error": f"{type(e).__name__}: {e}"}, 0.0
        )
    report.timing = time.perf_counter() - start
    out = report.to_json()
    sys.stdout.write(out)
    print(f"{report.status} in {report.timing:.2f}s", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(out)
    return 0 if report.status == "PASS" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
