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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

DEFAULT_SEED = 20240901
# exceptions that malformed or unusable input raises; they give an ERROR report
_INPUT_ERRORS = (OSError, json.JSONDecodeError, AttributeError, KeyError, IndexError, TypeError,
                 ValueError)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    command: str
    inputs_digest: str
    status: str  # PASS | FAIL | ERROR
    payload: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _report(command: str, inputs, status: str, payload: dict) -> RunReport:
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True, default=str).encode())
    return RunReport(command, digest.hexdigest()[:16], status, payload)


def _load(path: str):
    with open(path) as f:
        return json.load(f)


def _frac_obj(x: Fraction) -> List[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def rational(v) -> Fraction:
    """A rational from JSON or the command line: [numerator, denominator] or
    anything Fraction reads; a zero denominator or an infinite float (JSON
    reads 1e400 and Infinity as one) is a ValueError."""
    try:
        return Fraction(v[0], v[1]) if isinstance(v, list) else Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v}") from None
    except OverflowError:
        raise ValueError(f"infinite number {v}") from None


def rational_list(s: str) -> List[Fraction]:
    return [rational(x) for x in s.split(",") if x]


def _label_str(label) -> str:
    return json.dumps(label, default=str)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def cmd_check_ainfty(path: str, max_arity: Optional[int]) -> RunReport:
    from .ainfty import AInftyStructure, bar_check, relation_defect

    obj = _load(path)
    A = AInftyStructure.from_obj(obj)
    top = max_arity or A.max_arity() + 1
    defects = []
    for n in range(1, top + 1):
        d = relation_defect(A, n)
        entry = {"arity": n, "zero": d.is_zero()}
        if not d.is_zero():
            ins, out, _c = next(d.nonzero_entries())
            entry["first_failure"] = {
                "inputs": [_label_str(l) for l in ins],
                "output": _label_str(out),
            }
        defects.append(entry)
    ok = all(entry["zero"] for entry in defects)
    bar = bar_check(A, min(top, 4))
    payload = {
        "max_arity": top,
        "defects": defects,
        "bar_check": {"ok": bar.ok, "failures": sorted(bar.failures)},
    }
    return _report("check-ainfty", obj, "PASS" if ok and bar.ok else "FAIL", payload)


def cmd_transfer(path: str, max_arity: int) -> RunReport:
    from .ainfty import relation_defect
    from .transfer import RetractionData, transfer_structure, validation

    obj = _load(path)
    r = RetractionData.from_obj(obj)
    rep = validation(r)
    if not rep.ok:
        return _report("transfer", obj, "ERROR", {"validation": sorted(rep.failures)})
    B = transfer_structure(r, max_arity=max_arity)
    defects = [{"arity": n, "zero": relation_defect(B, n).is_zero()}
               for n in range(1, max_arity + 1)]
    payload = {
        "sub_dimension": len(r.sub_basis),
        "transferred": B.to_obj(),
        "defects": defects,
    }
    ok = all(entry["zero"] for entry in defects)
    return _report("transfer", obj, "PASS" if ok else "FAIL", payload)


def _trig_from_obj(obj):
    from .morse import TrigPolynomial

    def coeffs(part):
        return {int(k): rational(v) for k, v in obj.get(part, {}).items()}

    return TrigPolynomial.from_dicts(coeffs("cos"), coeffs("sin"))


def cmd_morse(sub: str, path: str, weighted: bool, cutoff: Optional[Fraction]) -> RunReport:
    from . import morse

    obj = _load(path)
    if sub == "crit":
        f0 = _trig_from_obj(obj["f0"])
        f1 = _trig_from_obj(obj.get("f1", {}))
        crit = morse.critical_points(f0 - f1)
        payload = {"points": [
            {"label": p.label, "index": p.index, "y_interval": [_frac_obj(y) for y in p.y_interval]}
            for p in crit.points
        ]}
    elif sub == "diff":
        op = morse.morse_differential(_trig_from_obj(obj["f0"]), _trig_from_obj(obj["f1"]))
        payload = {
            "entries": [[list(ins), out, int(c)] for ins, out, c in op.nonzero_entries()],
            "cohomology_ranks": list(morse.cohomology_ranks(op)),
        }
    else:  # m2; argparse's choices admit nothing else
        fs = (_trig_from_obj(obj[k]) for k in ("f0", "f1", "f2"))
        op = morse.m2(*fs, weighted=weighted, cutoff=cutoff)
        payload = {
            "weighted": weighted,
            "entries": [
                [list(ins), out, c.to_obj() if weighted else int(c)]
                for ins, out, c in op.nonzero_entries()
            ],
        }
    return _report(f"morse-{sub}", obj, "PASS", payload)


def _slope_report(command: str, count: int, slopes: List[Fraction],
                  shifts: Optional[List[Fraction]], cutoff: Optional[Fraction],
                  check) -> RunReport:
    """The report of `fo` or `mirror`: the shifts default to zeros and the
    cutoff to the acceptance cutoff of criteria.SIZES; a slope count other
    than `count`, or a shift count other than the slope count, is an ERROR,
    and otherwise check(slopes, shifts, cutoff) gives the status and the
    payload."""
    from .criteria import SIZES

    shifts = shifts or [Fraction(0)] * len(slopes)
    cutoff = SIZES["acceptance"][command]["cutoff"] if cutoff is None else cutoff
    inputs = {
        "slopes": [_frac_obj(s) for s in slopes],
        "shifts": [_frac_obj(s) for s in shifts],
        "cutoff": _frac_obj(cutoff),
    }
    if len(slopes) != count:
        return _report(command, inputs, "ERROR", {"error": f"need {count} slopes"})
    if len(shifts) != count:
        return _report(command, inputs, "ERROR",
                       {"error": f"{count} slopes but {len(shifts)} shifts"})
    return _report(command, inputs, *check(slopes, shifts, cutoff))


def cmd_fo(slopes: List[Fraction], shifts: Optional[List[Fraction]],
           cutoff: Optional[Fraction]) -> RunReport:
    def check(slopes, shifts, cutoff):
        from .ainfty import relation_defect
        from .criteria import circle_sections
        from .fukaya_oh import fukaya_sequence, mk_vanishing_certificate

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
        return ("PASS" if not defect and cert.certified else "FAIL"), payload

    return _slope_report("fo", 4, slopes, shifts, cutoff, check)


def cmd_mirror(slopes: List[Fraction], shifts: Optional[List[Fraction]],
               cutoff: Optional[Fraction]) -> RunReport:
    def check(slopes, shifts, cutoff):
        from .criteria import circle_sections
        from .mirror import mirror_compare

        try:
            rep = mirror_compare(*circle_sections(slopes, shifts), cutoff)
        except ValueError as e:
            return "ERROR", {"error": str(e)}
        payload = {"status": rep.status, "table_size": len(rep.triangle_table)}
        if rep.first_discrepancy is not None:
            key, a, b = rep.first_discrepancy
            payload["first_discrepancy"] = {
                "key": _label_str(key),
                "triangle": a.to_obj(),
                "theta": b.to_obj(),
            }
        return ("PASS" if rep.equal else "FAIL"), payload

    return _slope_report("mirror", 3, slopes, shifts, cutoff, check)


def cmd_legendre(path: str, tol: float) -> RunReport:
    from .monge import (ConvexGridFunction, hessian_duality_check, involution_error, legendre,
                        ma_residual)

    obj = _load(path)
    box = [(rational(lo), rational(hi)) for lo, hi in obj["box"]]
    h = rational(obj["h"])
    dual_box = [(rational(lo), rational(hi)) for lo, hi in obj["dual_box"]]
    dual_h = rational(obj["dual_h"])
    try:
        K = ConvexGridFunction(tuple(box), h, obj["values"])
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
        return _report("legendre", obj, "ERROR", {"error": str(e)})
    ok = inv <= tol and duality.max_det_error <= tol
    return _report("legendre", obj, "PASS" if ok else "FAIL", payload)


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
        return _report("suite", inputs, "ERROR", {"error": f"unknown modules {unknown}"})

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
    return _report("suite", inputs, status, payload)


# ---------------------------------------------------------------------------
# argument parsing: each subcommand's arguments and its handler, args -> RunReport
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusmirror")
    p.add_argument("--json-out", metavar="FILE", help="write the report as JSON")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-ainfty", help="verify structure relations on a JSON structure")
    s.add_argument("file")
    s.add_argument("--max-arity", type=int, default=None)
    s.set_defaults(run=lambda a: cmd_check_ainfty(a.file, a.max_arity))

    s = sub.add_parser("transfer", help="transfer a retraction fixture and verify")
    s.add_argument("file")
    s.add_argument("--max-arity", type=int, default=4)
    s.set_defaults(run=lambda a: cmd_transfer(a.file, a.max_arity))

    s = sub.add_parser("morse", help="Morse data on the circle")
    s.add_argument("sub", choices=["crit", "diff", "m2"])
    s.add_argument("file")
    s.add_argument("--weighted", action="store_true")
    s.add_argument("--cutoff", type=rational, default=None)
    s.set_defaults(run=lambda a: cmd_morse(a.sub, a.file, a.weighted, a.cutoff))

    for name, cmd, summary in (
        ("fo", cmd_fo, "Fukaya product associativity for a slope quadruple"),
        ("mirror", cmd_mirror, "triangle products vs theta multiplication"),
    ):
        s = sub.add_parser(name, help=summary)
        s.add_argument("--slopes", type=rational_list, required=True)
        s.add_argument("--shifts", type=rational_list, default=None)
        s.add_argument("--cutoff", type=rational, default=None,
                       help="default: the acceptance cutoff of criteria.SIZES")
        s.set_defaults(run=lambda a, cmd=cmd: cmd(a.slopes, a.shifts, a.cutoff))

    s = sub.add_parser("legendre", help="discrete Legendre duality checks on a JSON grid")
    s.add_argument("file")
    s.add_argument("--tol", type=float, default=1e-6)
    s.set_defaults(run=lambda a: cmd_legendre(a.file, a.tol))

    s = sub.add_parser("suite", help="consolidated acceptance matrix")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--modules", type=lambda v: v.split(","), default=None)
    s.add_argument("--scale", choices=["suite", "acceptance"], default="suite",
                   help="the sizes of criteria.SIZES to run at")
    s.add_argument("--cases", action="store_true",
                   help="print each module's cases and figures to stderr")
    s.set_defaults(run=lambda a: cmd_suite(a.seed, a.modules, a.scale, a.cases))

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.run(args)
    except _INPUT_ERRORS as e:
        report = RunReport(args.command, "", "ERROR", {"error": f"{type(e).__name__}: {e}"})
    out = report.to_json()
    sys.stdout.write(out)
    print(f"{report.status} in {time.perf_counter() - start:.2f}s", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(out)
    return 0 if report.status == "PASS" else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
