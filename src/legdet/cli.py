"""Command-line front end: compute invariants, verify the identity catalog,
and run resumable prime-range scans with machine-readable output.

Exit codes: 0 all checks passed, 1 a proved statement failed (implementation
bug), 2 usage error, 3 internal error, 4 only conjecture checks failed
(a mathematical finding, preserved in the output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterable

from . import verify as _verify
from .charmat import MatrixKind, build
from .errors import InternalError
from .exactla import IntPoly, charpoly, det
from .ntheory import (
    PrimeInvariants,
    is_prime,
    prime_invariants,
    primes_in_range,
    require_hneg_prime,
)
from .realquad import class_number_real, fundamental_unit
from .verify import CheckId, CheckResult, ScanRecord, check, exit_code_for, scan

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CONJECTURE = 4

SCHEMA_VERSION = 1

COMPUTE_FIELDS = (
    "dp",
    "cp",
    "qp",
    "hneg",
    "det-aplus",
    "det-aminus",
    "charpoly-aplus",
    "charpoly-aminus",
    "unit",
    "hreal",
)
# the fields read from one PrimeInvariants record
_INVARIANT_FIELDS = frozenset({"dp", "cp", "qp", "hneg"})


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def _poly_json(poly: IntPoly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _compute_field(name: str, p: int, inv: PrimeInvariants | None):
    """(text value, json value) for one compute field; inv is p's invariant
    record, needed only by the fields in _INVARIANT_FIELDS."""
    if name == "dp":
        v = str(inv.d_p)
        return v, v
    if name == "cp":
        v = str(inv.c_p)
        return v, v
    if name == "qp":
        v = f"{inv.q_p.numerator}/{inv.q_p.denominator}"
        return v, v
    if name == "hneg":
        v = str(inv.h_neg)
        return v, v
    if name == "det-aplus":
        v = str(det(build(MatrixKind.aplus(), p)))
        return v, v
    if name == "det-aminus":
        v = str(det(build(MatrixKind.aminus(), p)))
        return v, v
    if name == "charpoly-aplus":
        poly = charpoly(build(MatrixKind.aplus(), p))
        return str(poly), _poly_json(poly)
    if name == "charpoly-aminus":
        poly = charpoly(build(MatrixKind.aminus(), p))
        return str(poly), _poly_json(poly)
    if name == "unit":
        v = str(fundamental_unit(p))
        return v, v
    if name == "hreal":
        v = str(class_number_real(p))
        return v, v
    raise ValueError(f"unknown field {name!r}; known fields: {', '.join(COMPUTE_FIELDS)}")


def _cmd_compute(args) -> int:
    p = args.prime
    _require_odd_prime(p)
    inv = None  # computed once, on the first field that reads it
    out = {}
    for name in args.what:
        if name == "hneg":
            require_hneg_prime(p)
        if inv is None and name in _INVARIANT_FIELDS:
            inv = prime_invariants(p)
        out[name] = _compute_field(name, p, inv)
    if args.json:
        print(json.dumps({k: v[1] for k, v in out.items()}))
    else:
        for k, v in out.items():
            print(v[0])
    return EXIT_OK


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int) and abs(obj) >= 2**53:
        return str(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, int):
        return obj
    return str(obj)


def _parse_ids(raw: str) -> list[CheckId]:
    if raw == "all":
        return list(CheckId)
    ids = []
    for name in raw.split(","):
        name = name.strip()
        if name not in CheckId.__members__:
            raise ValueError(f"unknown check id {name!r}")
        ids.append(CheckId[name])
    return ids


def _cmd_verify(args) -> int:
    ids = _parse_ids(args.suite)
    if args.prime is not None:
        _require_odd_prime(args.prime)
        primes = [args.prime]
    elif args.p_from is not None and args.p_to is not None:
        if not 3 <= args.p_from <= args.p_to:
            raise ValueError(f"need 3 <= from <= to, got [{args.p_from}, {args.p_to}]")
        primes = primes_in_range(max(3, args.p_from), args.p_to)
    else:
        raise ValueError("verify needs --prime or both --from and --to")

    prime_ids = [i for i in ids if i not in _verify.RANDOM_IDS]
    random_ids = [i for i in ids if i in _verify.RANDOM_IDS]
    # a single explicitly named check on a single prime surfaces the residue
    # class error instead of silently skipping
    strict = len(ids) == 1 and len(primes) == 1 and args.suite != "all"

    results: list[CheckResult] = []
    skipped = 0
    for p in primes:
        for cid in prime_ids:
            if not _verify.applicable(cid, p):
                if strict:
                    check(cid, p, args.seed)  # raises the usage error
                skipped += 1
                continue
            results.append(check(cid, p, args.seed))
    for cid in random_ids:
        results.append(check(cid, seed=args.seed))

    failures = [r for r in results if not r.passed]
    code = exit_code_for(r.id for r in failures)
    if args.json:
        payload = {
            "results": [
                {
                    "id": r.id.name,
                    "p": r.p,
                    "passed": r.passed,
                    "witness": _json_safe(r.witness),
                }
                for r in results
            ],
            "summary": {
                "passed": len(results) - len(failures),
                "failed": len(failures),
                "skipped": skipped,
            },
            "exit_code": code,
        }
        print(json.dumps(payload))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            where = f" p={r.p}" if r.p is not None else ""
            line = f"{mark} {r.id.name}{where} ({r.elapsed * 1000:.1f} ms)"
            note = r.witness.get("note")
            if note and not r.passed:
                line += f"  [{note}]"
            print(line)
        print(
            f"summary: {len(results) - len(failures)} passed, "
            f"{len(failures)} failed, {skipped} skipped"
        )
    return code


def record_to_json(rec: ScanRecord) -> str:
    """One scan record as a single JSON line (big values as decimal strings)."""
    inv = rec.invariants
    invd = {
        "c_p": str(inv.c_p),
        "d_p": str(inv.d_p),
        "q_p_num": str(inv.q_p.numerator),
        "q_p_den": str(inv.q_p.denominator),
    }
    if inv.h_neg is not None:
        invd["h_neg"] = str(inv.h_neg)
    invd["sum_half"] = str(inv.sum_half)
    invd["N"] = str(inv.N)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "p": rec.p,
        "invariants": invd,
        "checks": rec.checks,
    }
    return json.dumps(obj, separators=(",", ":"))


def record_to_csv_rows(rec: ScanRecord) -> list[str]:
    return [
        f"{rec.p},{name},{'true' if entry['passed'] else 'false'},{rec.invariants.d_p}"
        for name, entry in rec.checks.items()
    ]


CSV_HEADER = "p,check,passed,d_p"


def _read_resume(path: str, lo: int, hi: int, names: Iterable[str]):
    """Parse an existing scan file: returns (primes present, counts for the
    in-range records).  Raises InternalError naming the first bad line, and
    ValueError when an in-range record lacks a requested check that applies
    to its prime, since resuming would then report that check as skipped."""
    done: set[int] = set()
    pre_passed = pre_failed = pre_skipped = 0
    pre_failures: list[tuple[int, str]] = []
    names = list(names)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                obj = json.loads(line)
                p = obj["p"]
                if obj["schema_version"] != SCHEMA_VERSION or not isinstance(p, int):
                    raise ValueError("bad record")
                checks = obj.get("checks", {})
            except Exception:
                raise InternalError(f"corrupt resume file {path!r} at line {lineno}") from None
            done.add(p)
            if lo <= p <= hi:
                for name in names:
                    entry = checks.get(name)
                    if entry is None:
                        if _verify.applicable(CheckId[name], p):
                            raise ValueError(
                                f"resume file {path!r} has no {name} result for p={p} "
                                f"(line {lineno}); write the new checks to another file"
                            )
                        pre_skipped += 1
                    elif entry.get("passed"):
                        pre_passed += 1
                    else:
                        pre_failed += 1
                        pre_failures.append((p, name))
    return done, pre_passed, pre_failed, pre_skipped, pre_failures


def _cmd_scan(args) -> int:
    if args.p_from is None or args.p_to is None:
        raise ValueError("scan needs both --from and --to")
    if not 3 <= args.p_from <= args.p_to:
        raise ValueError(f"need 3 <= from <= to, got [{args.p_from}, {args.p_to}]")
    ids = _parse_ids(args.ids)
    names = sorted(i.name for i in ids)
    if args.resume and args.format == "csv":
        raise ValueError("--resume is only supported with the jsonl format")

    done: set[int] = set()
    pre = (0, 0, 0)
    pre_failures: list[tuple[int, str]] = []
    if args.resume and os.path.exists(args.out):
        done, p0, f0, s0, pre_failures = _read_resume(
            args.out, args.p_from, args.p_to, names
        )
        pre = (p0, f0, s0)

    mode = "a" if args.resume and os.path.exists(args.out) else "w"
    start = time.perf_counter()
    new_lines = 0
    with open(args.out, mode, encoding="utf-8") as fh:
        if args.format == "csv" and mode == "w":
            fh.write(CSV_HEADER + "\n")

        def sink(rec: ScanRecord) -> None:
            nonlocal new_lines
            if args.format == "csv":
                for row in record_to_csv_rows(rec):
                    fh.write(row + "\n")
                    new_lines += 1
            else:
                fh.write(record_to_json(rec) + "\n")
                new_lines += 1
            fh.flush()

        summary = scan(
            ids,
            args.p_from,
            args.p_to,
            sink,
            seed=args.seed,
            jobs=args.jobs,
            skip=done,
        )
    elapsed = time.perf_counter() - start
    passed = summary.passed + pre[0]
    failed = summary.failed + pre[1]
    skipped = summary.skipped + pre[2]
    failures = pre_failures + summary.failures
    code = exit_code_for(name for _, name in failures)
    if args.json:
        print(
            json.dumps(
                {
                    "passed": passed,
                    "failed": failed,
                    "skipped": skipped,
                    "new_records": new_lines,
                    "failures": [[p, n] for p, n in failures],
                    "exit_code": code,
                }
            )
        )
    else:
        print(
            f"scan [{args.p_from}, {args.p_to}] ids={','.join(names)}: "
            f"passed={passed} failed={failed} skipped={skipped} "
            f"({elapsed:.2f} s, {new_lines} new records)"
        )
        for p, name in failures:
            print(f"  FAIL {name} at p={p}")
    return code


def _cmd_charpoly(args) -> int:
    args.what = ["charpoly-aplus", "charpoly-aminus"]
    return _cmd_compute(args)


def _comma_list(raw: str) -> list[str]:
    return [t.strip() for t in raw.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legdet",
        description=(
            "Exact determinants, characteristic polynomials, and identity "
            "checks for half-range Legendre-symbol matrices."
        ),
        epilog=(
            "The LEGDET_MODULI_BITS environment variable (20..62) overrides "
            "the CRT modulus size; diagnostics only."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("compute", help="print invariants of one prime")
    p_c.add_argument("--prime", type=int, required=True)
    p_c.add_argument(
        "--what",
        type=_comma_list,
        required=True,
        help=f"comma-separated fields from: {', '.join(COMPUTE_FIELDS)}",
    )
    p_c.add_argument("--json", action="store_true")
    p_c.set_defaults(func=_cmd_compute)

    p_v = sub.add_parser("verify", help="run catalog checks on a prime or range")
    p_v.add_argument("--prime", type=int)
    p_v.add_argument("--from", dest="p_from", type=int)
    p_v.add_argument("--to", dest="p_to", type=int)
    p_v.add_argument("--suite", default="all", help="'all' or comma-separated check ids")
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--json", action="store_true")
    p_v.set_defaults(func=_cmd_verify)

    p_s = sub.add_parser("scan", help="scan a prime range, one record per prime")
    p_s.add_argument("--from", dest="p_from", type=int, required=True)
    p_s.add_argument("--to", dest="p_to", type=int, required=True)
    p_s.add_argument("--ids", required=True, help="'all' or comma-separated check ids")
    p_s.add_argument("--out", required=True)
    p_s.add_argument("--resume", action="store_true")
    p_s.add_argument("--jobs", type=int, default=None, help="default: logical cores")
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--format", choices=("json", "csv"), default="json")
    p_s.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_s.set_defaults(func=_cmd_scan)

    p_p = sub.add_parser("charpoly", help="characteristic polynomials of A+ and A-")
    p_p.add_argument("--prime", type=int, required=True)
    p_p.add_argument("--json", action="store_true")
    p_p.set_defaults(func=_cmd_charpoly)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
