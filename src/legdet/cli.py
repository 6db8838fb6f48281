"""Command-line front end: compute invariants, verify the identity catalog,
and run resumable prime-range scans with machine-readable output.  `verify`
(where --prime P is the range [P, P]) and `scan` both run their primes
through `verify.run_range` and write each prime's output as soon as it is
done; each compute field is one entry of `_COMPUTE`, and every field's
name, residue class and size limit is checked before any is computed.

Exit codes: 0 all checks passed, 1 a proved statement failed (implementation
bug), 2 usage error, 3 internal error or out of memory, 4 only conjecture
checks failed (a mathematical finding, preserved in the output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable

from . import verify as _verify
# MATRIX_DIM_MAX stays a name of the CLI: its matrix fields obey it
from .charmat import MATRIX_DIM_MAX, PrimeRecord, at, require_matrix_prime
from .errors import InternalError
from .exactla import IntPoly
from .ntheory import require_hneg_prime, require_odd_prime
from .realquad import class_number_real, fundamental_unit, require_1mod4_prime
from .verify import CheckId, CheckResult, ScanRecord, check, exit_code_for, json_safe, scan

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_CONJECTURE = 4

SCHEMA_VERSION = 1

# each compute field as a function of p's record (`charmat.at`), which
# computes each invariant, determinant and charpoly once
_COMPUTE: dict[str, Callable[[PrimeRecord], object]] = {
    "dp": lambda rec: rec.invariants.d_p,
    "cp": lambda rec: rec.invariants.c_p,
    "qp": lambda rec: f"{rec.invariants.q_p.numerator}/{rec.invariants.q_p.denominator}",
    "hneg": lambda rec: rec.invariants.h_neg,
    "det-aplus": lambda rec: rec.dets("aplus")[0],
    "det-aminus": lambda rec: rec.dets("aminus")[0],
    "charpoly-aplus": lambda rec: rec.charpoly("aplus"),
    "charpoly-aminus": lambda rec: rec.charpoly("aminus"),
    "unit": lambda rec: fundamental_unit(rec.p),
    "hreal": lambda rec: class_number_real(rec.p),
}
COMPUTE_FIELDS = tuple(_COMPUTE)
_MATRIX_FIELDS = frozenset({"det-aplus", "det-aminus", "charpoly-aplus", "charpoly-aminus"})

def _cmd_compute(args) -> int:
    p = args.prime
    require_odd_prime(p)
    if not args.what:
        raise ValueError(f"--what names no field; known fields: {', '.join(COMPUTE_FIELDS)}")
    for name in args.what:
        if name not in _COMPUTE:
            raise ValueError(f"unknown field {name!r}; known fields: {', '.join(COMPUTE_FIELDS)}")
        if name == "hneg":
            require_hneg_prime(p)
        if name in _MATRIX_FIELDS:
            require_matrix_prime(p)
    if {"unit", "hreal"} & set(args.what):
        require_1mod4_prime(p)
    rec = at(p)
    # the determinants the fields need, det and charpoly alike, in one batch
    rec.dets(*(m for m in ("aplus", "aminus") if {f"det-{m}", f"charpoly-{m}"} & set(args.what)))
    out = {name: _COMPUTE[name](rec) for name in args.what}
    if args.json:
        print(json.dumps({
            k: [str(c) for c in v.coeffs] if isinstance(v, IntPoly) else str(v)
            for k, v in out.items()
        }))
    else:
        for v in out.values():
            print(v)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ids = _verify.parse_ids(args.suite)
    if args.prime is not None:
        if args.p_from is not None or args.p_to is not None:
            raise ValueError("verify takes --prime or --from and --to, not both")
        require_odd_prime(args.prime)
        args.p_from = args.p_to = args.prime
    if args.p_from is None or args.p_to is None:
        raise ValueError("verify needs --prime or both --from and --to")
    prime_ids = [i for i in ids if i not in _verify.RANDOM_IDS]
    _verify.require_range(args.p_from, args.p_to, prime_ids)
    shown = 0  # results written so far
    last = None  # the last prime worked on

    def show(results: list[CheckResult]) -> None:
        # the JSON form streams json.dumps' bytes of the whole payload
        nonlocal shown
        for r in results:
            if args.json:
                entry = {"id": r.id.name, "p": r.p, "passed": r.passed, "witness": json_safe(r.witness)}
                sys.stdout.write(('{"results": [' if shown == 0 else ", ") + json.dumps(entry))
            else:
                where = f" p={r.p}" if r.p is not None else ""
                note = f"  [{r.witness['note']}]" if r.witness.get("note") and not r.passed else ""
                print(f"{'PASS' if r.passed else 'FAIL'} {r.id.name}{where} ({r.elapsed * 1000:.1f} ms){note}")
            shown += 1
        sys.stdout.flush()

    def work(p: int):
        nonlocal last
        last = p
        return _verify.checks_at(p, prime_ids, args.seed)

    summary = _verify.run_range(args.p_from, args.p_to, work, show)
    # a single explicitly named check on a single prime surfaces the residue
    # class error instead of silently skipping
    if len(ids) == 1 and args.suite != "all" and summary.primes == 1 and summary.skipped:
        check(ids[0], last, args.seed)  # raises the usage error
    for cid in ids:
        if cid in _verify.RANDOM_IDS:  # the seed-only suites, once, after the primes
            r = check(cid, seed=args.seed)
            summary.count(None, cid.name, r.passed)
            show([r])
    code = exit_code_for(name for _, name in summary.failures)
    if args.json:
        tally = {"passed": summary.passed, "failed": summary.failed, "skipped": summary.skipped}
        print(('{"results": [' if shown == 0 else "")
              + f'], "summary": {json.dumps(tally)}, "exit_code": {json.dumps(code)}}}')
    else:
        print(f"summary: {summary.passed} passed, {summary.failed} failed, {summary.skipped} skipped")
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
    invd["sum_half"] = str(inv.c_p)
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


def _open_out(path: str, mode: str, **kw):
    """Open the --out file; a path that cannot be opened is a usage error."""
    try:
        return open(path, mode, **kw)
    except OSError as exc:
        raise ValueError(f"cannot open --out {path!r}: {exc.strerror}") from None


def _read_resume(path: str, lo: int, hi: int, names: list[str]):
    """Parse an existing scan file: returns (primes present, the tally of the
    in-range records).  Raises InternalError naming the first bad line, and
    ValueError when an in-range record lacks a requested check that applies
    to its prime, since resuming would then report that check as skipped.

    A last line with no newline is a write cut short: if it does not parse,
    it is truncated away with a warning on stderr, and its prime is computed
    again; if it does, the missing newline is written."""
    done: set[int] = set()
    tally = _verify.ScanSummary()
    with _open_out(path, "rb+") as fh:
        end = 0  # bytes up to the end of the last good line
        for lineno, line in enumerate(fh, 1):
            try:
                obj = json.loads(line)
                p, checks = obj["p"], obj.get("checks", {})
                if (obj["schema_version"] != SCHEMA_VERSION or not isinstance(p, int)
                        or not all(isinstance(e, dict) for e in checks.values())):
                    raise ValueError("bad record")
            except Exception:
                if line.endswith(b"\n"):
                    raise InternalError(f"corrupt resume file {path!r} at line {lineno}") from None
                fh.truncate(end)
                print(
                    f"warning: resume file {path!r} ended in a torn line {lineno}; "
                    "dropped it, so its prime is computed again",
                    file=sys.stderr,
                )
                break
            end += len(line)
            if not line.endswith(b"\n"):
                fh.write(b"\n")
            done.add(p)
            if lo <= p <= hi:
                for name in names:
                    if name not in checks and _verify.applicable(CheckId[name], p):
                        raise ValueError(
                            f"resume file {path!r} has no {name} result for p={p} "
                            f"(line {lineno}); write the new checks to another file"
                        )
                tally.add(p, [(n, bool(checks[n].get("passed")) if n in checks else None)
                              for n in names])
    return done, tally


def _cmd_scan(args) -> int:
    ids = _verify.parse_ids(args.ids)
    _verify.require_range(args.p_from, args.p_to, ids)  # before --out is opened, and maybe truncated
    names = sorted(i.name for i in ids)
    if args.resume and args.format == "csv":
        raise ValueError("--resume is only supported with the jsonl format")

    done: set[int] = set()
    pre = _verify.ScanSummary()
    resume = args.resume and os.path.exists(args.out)
    if resume:
        done, pre = _read_resume(args.out, args.p_from, args.p_to, names)

    mode = "a" if resume else "w"
    start = time.perf_counter()
    new_lines = 0
    with _open_out(args.out, mode, encoding="utf-8") as fh:
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

        summary = scan(ids, args.p_from, args.p_to, sink, seed=args.seed, jobs=args.jobs, skip=done)
    elapsed = time.perf_counter() - start
    passed = summary.passed + pre.passed
    failed = summary.failed + pre.failed
    skipped = summary.skipped + pre.skipped
    failures = pre.failures + summary.failures
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


def _comma_list(raw: str) -> list[str]:
    return [t.strip() for t in raw.split(",") if t.strip()]


def _jobs(raw: str) -> int:
    try:
        jobs = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legdet",
        description=(
            "Exact determinants, characteristic polynomials, and identity "
            "checks for half-range Legendre-symbol matrices."
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
    p_s.add_argument(
        "--jobs", type=_jobs, default=None,
        help="worker processes, at most one per core and per prime (default: logical cores)",
    )
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--format", choices=("json", "csv"), default="json")
    p_s.add_argument("--json", action="store_true", help="print the summary as JSON")
    p_s.set_defaults(func=_cmd_scan)

    p_p = sub.add_parser("charpoly", help="characteristic polynomials of A+ and A-")
    p_p.add_argument("--prime", type=int, required=True)
    p_p.add_argument("--json", action="store_true")
    p_p.set_defaults(func=_cmd_compute, what=["charpoly-aplus", "charpoly-aminus"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # big integers (a unit at p near 10^9 has 30,000 digits) print in full;
    # --prime was parsed under the interpreter's digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
