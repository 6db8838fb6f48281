#!/usr/bin/env python3
"""Benchmark for legdet: fixed workloads driven through its public entry points.

    python3 bench/run.py --workload scan --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a source checkout; legdet is imported from ./src.
One process, no worker pool.  Each run sets up (import plus one warm-up op,
timed in fresh interpreters), then repeats whole rounds of the workload's
ops until --seconds of measured time have passed, then checks every op's
output against the independent oracles in euler.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, from spans
recorded around calls into legdet (see spans.py).  bench/README.md says what
each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from functools import lru_cache
from pathlib import Path

import euler
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 150

SCAN_TO = 5_000
SCAN_IDS = "T13_DPMOD4,CONJ11_DP"
SCAN_DOUBLE_SUM_SAMPLES = 3
SCAN_DOUBLE_SUM_MAX_P = 400
# the first fourteen primes p ≡ 3 (mod 4) above 10^6; a run takes a seeded
# handful of them
LARGE_POOL = (
    1000003, 1000039, 1000099, 1000151, 1000159, 1000171, 1000183,
    1000187, 1000199, 1000211, 1000231, 1000291, 1000303, 1000367,
)
LARGE_PER_ROUND = 3
CATALOG_PRIMES = (97, 101, 103, 107)
MATRIX_PRIMES = (397, 419)  # n = 198 and n = 209

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

TRACED = (
    ("ntheory", ("prime_invariants", "legendre_table", "factorial_half_mod",
                 "class_number_neg", "primes_in_range")),
    ("charmat", ("build",)),
    ("exactla", ("det", "det_bareiss", "charpoly", "param_det_expand",
                 "adjugate_apply", "crt_symmetric")),
    ("realquad", ("unit_power_coeffs", "fundamental_unit", "class_number_real")),
    ("verify", ("scan",)),
    ("cli", ("record_to_json", "main")),
)

CHECK_IDS = (
    "T11_CHARPOLY_1MOD4", "T11_DET_1MOD4", "T11_DET_3MOD4", "T12_I", "T12_II",
    "COR_AFTER_T12", "EQ_38II_QP", "T13_DPMOD4", "CONJ11_DP", "L21_QUADSUM",
    "L22_GRAM", "L23_EIGVECS", "L24_EIGSPACE", "L25_AP_NEG", "L25_EIGS", "ATHETA",
    "EQ_DP_U1AU0", "L41_SUMS", "EQ_DCOUNT", "T31_RANDOM", "MDL_RANDOM",
    "SUN_C31_I", "SUN_C31_II", "MORDELL",
)
RANDOM_CHECKS = frozenset({"T31_RANDOM", "MDL_RANDOM"})

# which catalog checks apply to p, as the catalog states them
_APPLIES = {
    "1mod4": lambda p: p % 4 == 1,
    "3mod4": lambda p: p % 4 == 3,
    "3mod4_gt3": lambda p: p % 4 == 3 and p > 3,
    "gt3": lambda p: p > 3,
    "all": lambda p: True,
}
CHECK_CLASS = {
    "T11_CHARPOLY_1MOD4": "1mod4", "T11_DET_1MOD4": "1mod4", "T11_DET_3MOD4": "3mod4_gt3",
    "T12_I": "1mod4", "T12_II": "3mod4_gt3", "COR_AFTER_T12": "3mod4_gt3",
    "EQ_38II_QP": "3mod4_gt3", "T13_DPMOD4": "all", "CONJ11_DP": "gt3",
    "L21_QUADSUM": "all", "L22_GRAM": "all", "L23_EIGVECS": "1mod4",
    "L24_EIGSPACE": "1mod4", "L25_AP_NEG": "3mod4", "L25_EIGS": "3mod4",
    "ATHETA": "3mod4", "EQ_DP_U1AU0": "3mod4", "L41_SUMS": "all", "EQ_DCOUNT": "all",
    "SUN_C31_I": "gt3", "SUN_C31_II": "all", "MORDELL": "3mod4_gt3",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order.  Counts and
    times are per round: one pass over the workload's input set."""
    out = [("bench.traced_ops_per_s", "1/s")]
    for layer, fns in TRACED:
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.ms", "ms"),
                    (f"{layer}.{fn}.self_ms", "ms")]
    out += [
        ("ntheory.prime_invariants.calls_per_op", "count"),
        ("ntheory.legendre_table.calls_per_op", "count"),
        ("exactla.crt_symmetric.residues", "count"),
    ]
    for cid in CHECK_IDS:
        out += [(f"verify.check.{cid}.ms", "ms"), (f"verify.check.{cid}.dets", "count")]
    return out


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def import_legdet():
    """Import legdet from this checkout's src/, never from elsewhere."""
    if not (SRC / "legdet" / "__init__.py").is_file():
        sys.exit(f"bench: no legdet sources at {SRC / 'legdet'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import legdet.cli

    if Path(legdet.__file__).resolve().parent != (SRC / "legdet").resolve():
        sys.exit(f"bench: imported legdet from {legdet.__file__}, not from {SRC}")
    return legdet.cli


def cache_clearers(keep) -> list:
    """Every lru_cache in legdet except those in `keep`.  Clearing them
    before each CLI op gives every op the cost of a fresh `legdet` process;
    what `keep` holds (the CRT moduli list) is lazy set-up, paid once."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "legdet" or name.startswith("legdet."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and obj not in keep and obj not in out:
                    out.append(obj)
    return [obj.cache_clear for obj in out]


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Op:
    """One op's input (key) and outcome: wall time, exit code and standard
    output, or the error that kept it from completing."""

    __slots__ = ("key", "ms", "code", "output", "error")

    def __init__(self, key, ms=None, code=None, output=None, error=None):
        self.key, self.ms, self.code, self.output, self.error = key, ms, code, output, error


class CliOps:
    """A workload whose op is one `legdet ...` command line."""

    def __init__(self, name, seed):
        self.rng = random.Random(f"legdet-bench|{name}|{seed}")

    def round(self, cli, fresh, next_op) -> list[Op]:
        ops = []
        for key, argv in self.argvs:
            fresh()
            next_op()
            t0 = time.perf_counter()
            try:
                code, text = call_cli(cli, argv)
            except Exception:
                ops.append(Op(key, error=traceback.format_exc()))
                continue
            ops.append(Op(key, (time.perf_counter() - t0) * 1000, code, text))
        return ops


class InvariantsLarge(CliOps):
    why = "O(p) symbol sums at p just above 10^6: memory-bound ntheory, the only workload where peak RSS moves"
    warmup = ["compute", "--prime", "1019", "--what", "dp,cp,qp,hneg", "--json"]

    def __init__(self, seed):
        super().__init__("invariants_large", seed)
        primes = self.rng.sample(LARGE_POOL, LARGE_PER_ROUND)
        self.argvs = [
            (p, ["compute", "--prime", str(p), "--what", "dp,cp,qp,hneg", "--json"]) for p in primes
        ]

    def check(self, op: Op) -> bool:
        inv = invariants(op.key)
        q = inv.q_p
        want = {"dp": str(inv.d_p), "cp": str(inv.c_p), "qp": f"{q.numerator}/{q.denominator}",
                "hneg": str(inv.h_neg)}
        return op.code == 0 and json.loads(op.output) == want


class VerifyCatalog(CliOps):
    why = "the whole check catalog at n of about 50: CRT determinants, param_det_expand, charmat.build, realquad units"
    warmup = ["verify", "--prime", "13", "--suite", "all", "--json"]

    def __init__(self, seed):
        super().__init__("verify_catalog", seed)
        vseed = str(self.rng.randrange(2**31))
        self.argvs = [
            (p, ["verify", "--prime", str(p), "--suite", "all", "--seed", vseed, "--json"])
            for p in CATALOG_PRIMES
        ]

    def check(self, op: Op) -> bool:
        p = op.key
        if op.code != 0:
            return False
        out = json.loads(op.output)
        res = {r["id"]: r for r in out["results"]}
        want_ids = {c for c in CHECK_IDS if c in RANDOM_CHECKS or _APPLIES[CHECK_CLASS[c]](p)}
        if (
            out["exit_code"] != 0
            or len(res) != len(out["results"])
            or set(res) != want_ids
            or not all(r["passed"] for r in res.values())
            or any(r["p"] != (None if c in RANDOM_CHECKS else p) for c, r in res.items())
            or out["summary"] != {"passed": len(want_ids), "failed": 0,
                                  "skipped": len(CHECK_IDS) - len(want_ids)}
        ):
            return False
        inv = invariants(p)
        d_plus = euler.det_theorem(p, True, inv.h_neg, inv.chi2)
        d_minus = euler.det_theorem(p, False, inv.h_neg, inv.chi2)
        if p % 4 == 1:
            w = res["T11_DET_1MOD4"]["witness"]
            return w["det_aplus"] == str(d_plus) and w["det_aminus"] == str(d_minus)
        w = res["T11_DET_3MOD4"]["witness"]
        w12 = res["T12_II"]["witness"]
        return (
            w["det_aplus"] == w["det_aminus"] == str(d_plus)
            and w["h_neg"] == inv.h_neg
            and w12["det"] == str(d_plus)
            and w12["c_p"] == inv.c_p
            and w12["d_p"] == inv.d_p
        )


class MatrixLarge(CliOps):
    why = "charpolys of A+ and A- at n = 198 and 209: exactla above the float64 crossover and below the numpy cap"
    warmup = ["charpoly", "--prime", "53", "--json"]

    def __init__(self, seed):
        super().__init__("matrix_large", seed)
        self.argvs = [(p, ["charpoly", "--prime", str(p), "--json"]) for p in MATRIX_PRIMES]
        # evaluation point and a prime modulus above 2^30, outside the
        # program's CRT moduli (primes just below 2^bits, bits in 20..62)
        self.x0 = self.rng.randrange(-10**6, 10**6)
        q = 2**30 + self.rng.randrange(10**5)
        while not euler.is_prime_trial(q):
            q += 1
        self.q = q

    def check(self, op: Op) -> bool:
        p, q = op.key, self.q
        if op.code != 0:
            return False
        out = json.loads(op.output)
        if set(out) != {"charpoly-aplus", "charpoly-aminus"}:
            return False
        inv = invariants(p)
        chi = euler.euler_symbols(p)
        closed = euler.charpoly_closed_forms(p) if p % 4 == 1 else (None, None)
        for plus, key, want in ((True, "charpoly-aplus", closed[0]),
                                (False, "charpoly-aminus", closed[1])):
            coeffs = [int(c) for c in out[key]]
            n = inv.n
            if len(coeffs) != n + 1 or coeffs[-1] != 1:
                return False
            if coeffs[0] != (-1) ** n * euler.det_theorem(p, plus, inv.h_neg, inv.chi2):
                return False
            if want is not None and coeffs != want:
                return False
            a = euler.half_matrix(p, plus, chi)
            if euler.poly_eval_mod(coeffs, self.x0, q) != euler.charpoly_value_mod(a, self.x0, q):
                return False
        return True


class Scan:
    """Op: one prime's JSONL record from `legdet scan --from 3 --to SCAN_TO
    --jobs 1`.  One round is one scan; an op's time runs from the previous
    record (or the start of the scan) to its own record_to_json."""

    why = "the conjecture hunt over 3..5000, serial, many scans a run: small- and medium-p ntheory where per-call overhead counts"
    warmup = ["scan", "--from", "30000", "--to", "30300", "--ids", SCAN_IDS,
              "--out", str(OUT / "warmup-scan.jsonl"), "--jobs", "1"]

    def __init__(self, seed):
        rng = random.Random(f"legdet-bench|scan|{seed}")
        self.path = OUT / "scan.jsonl"
        self.argv = ["scan", "--from", "3", "--to", str(SCAN_TO), "--ids", SCAN_IDS,
                     "--out", str(self.path), "--jobs", "1", "--seed", str(rng.randrange(2**31))]
        self.primes = euler.primes_upto(SCAN_TO)[1:]
        small = [p for p in self.primes if p <= SCAN_DOUBLE_SUM_MAX_P]
        self.double_sum_primes = set(rng.sample(small, SCAN_DOUBLE_SUM_SAMPLES))
        self._verdicts: dict[str, bool] = {}
        # one copy of each distinct record, so that peak RSS does not grow
        # with the number of scans a run holds
        self._lines: dict[str, str] = {}
        self._want_code = None

    def round(self, cli, fresh, next_op) -> list[Op]:
        stamps = []
        original = cli.record_to_json

        def stamped(rec):
            line = original(rec)
            stamps.append(time.perf_counter())
            next_op()
            return line

        fresh()
        next_op()
        self.path.unlink(missing_ok=True)
        cli.record_to_json = stamped
        t0 = time.perf_counter()
        try:
            code, _ = call_cli(cli, self.argv)
            error = None
        except Exception:
            code, error = None, traceback.format_exc()
        finally:
            cli.record_to_json = original
        lines = self.path.read_text(encoding="utf-8").splitlines() if self.path.exists() else []
        lines = [self._lines.setdefault(line, line) for line in lines]
        times = [t0] + stamps
        ops = []
        for i, p in enumerate(self.primes):
            if i < len(stamps) and i < len(lines) and error is None:
                ops.append(Op(p, (times[i + 1] - times[i]) * 1000, code, lines[i]))
            else:
                ops.append(Op(p, error=error or "no record"))
        if len(lines) > len(self.primes):
            ops[-1].error = f"{len(lines) - len(self.primes)} records beyond the sieve's primes"
        return ops

    def check(self, op: Op) -> bool:
        if self._want_code is None:
            self._want_code = 0 if all(conj11(p) for p in self.primes if p > 3) else 4
        if op.code != self._want_code:
            return False
        # rounds repeat the same primes: a line already judged keeps its verdict
        verdict = self._verdicts.get(op.output)
        if verdict is None:
            verdict = self._verdicts[op.output] = self._check_line(op.key, op.output)
        return verdict

    def _check_line(self, p: int, line: str) -> bool:
        rec = json.loads(line)
        inv = invariants(p)
        if not euler.t13_holds(inv):
            raise euler.OracleError(f"oracle contradicts Theorem 1.3 at p={p}")
        want_inv = {"c_p": str(inv.c_p), "d_p": str(inv.d_p),
                    "q_p_num": str(inv.q_p.numerator), "q_p_den": str(inv.q_p.denominator)}
        if inv.h_neg is not None:
            want_inv["h_neg"] = str(inv.h_neg)
        want_inv.update(sum_half=str(inv.sum_half), N=str(inv.N))
        checks = rec.get("checks", {})
        want_checks = {"T13_DPMOD4": True}
        if p > 3:
            want_checks["CONJ11_DP"] = conj11(p)
        if p in self.double_sum_primes:
            want_inv["d_p"] = str(euler.dp_double_sum(p))
        return (
            rec.get("p") == p
            and rec.get("invariants") == want_inv
            and set(checks) == set(want_checks)
            and all(checks[k].get("passed") is v for k, v in want_checks.items())
        )


WORKLOADS = {
    "scan": Scan,
    "invariants_large": InvariantsLarge,
    "verify_catalog": VerifyCatalog,
    "matrix_large": MatrixLarge,
}


@lru_cache(maxsize=None)
def invariants(p: int) -> euler.Invariants:
    return euler.invariants(p)


@lru_cache(maxsize=None)
def conj11(p: int) -> bool:
    return euler.conj11_holds(invariants(p))


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def warm_up(cli, wl) -> None:
    code, _ = call_cli(cli, wl.warmup)
    if code != 0:
        sys.exit(f"bench: warm-up {' '.join(wl.warmup)} exited {code}")


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, warm up, print the clock."""
    cli = import_legdet()
    OUT.mkdir(exist_ok=True)
    warm_up(cli, WORKLOADS[workload](seed))
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh interpreters, of interpreter start to the end of
    the warm-up op."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def install_tracing(recorder: Recorder) -> None:
    import legdet

    def residue_count(a, kw):
        return len(a[0] if a else kw["residues"])

    for layer, fns in TRACED:
        for fn in fns:
            count_of = residue_count if (layer, fn) == ("exactla", "crt_symmetric") else None
            recorder.install(getattr(legdet, layer), fn, f"{layer}.{fn}", count_of=count_of)

    def check_name(a, kw):
        cid = a[0] if a else kw["check_id"]
        return f"verify.check.{getattr(cid, 'name', cid)}"

    recorder.install(legdet.verify, "check", "verify.check", check_name)


def measure(cli, wl, seconds: float, clearers, recorder: Recorder | None):
    """Whole rounds until `seconds` of round time have passed."""

    def fresh():
        for clear in clearers:
            clear()

    def next_op():
        if recorder is not None:
            recorder.op += 1

    ops: list[Op] = []
    busy, rounds = 0.0, 0
    while busy < seconds:
        t0 = time.perf_counter()
        ops += wl.round(cli, fresh, next_op)
        busy += time.perf_counter() - t0
        rounds += 1
    return ops, busy, rounds


def check_all(wl, ops: list[Op]) -> tuple[int, bool]:
    """(failed, correct): failed counts ops that raised, produced no output,
    or produced a wrong one; correct is false if any output was wrong."""
    failed, correct = 0, True
    for op in ops:
        if op.error is not None:
            print(f"bench: op {op.key} failed:\n{op.error}", file=sys.stderr)
            failed += 1
            continue
        try:
            ok = wl.check(op)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # malformed output
            ok = False
            print(f"bench: output of op {op.key} unreadable: {exc!r}", file=sys.stderr)
        if not ok:
            print(f"bench: op {op.key} gave a wrong output (exit {op.code})", file=sys.stderr)
            failed += 1
            correct = False
    return failed, correct


def layer_metrics(recorder: Recorder, ops: int, rounds: int, busy: float) -> dict:
    agg, dets = recorder.totals("verify.check.", "exactla.det")
    zero = [0, 0, 0, 0]
    out = {"bench.traced_ops_per_s": ops / busy}
    for layer, fns in TRACED:
        for fn in fns:
            calls, busy_ns, self_ns, _ = agg.get(f"{layer}.{fn}", zero)
            out[f"{layer}.{fn}.calls"] = calls / rounds
            out[f"{layer}.{fn}.ms"] = busy_ns / 1e6 / rounds
            out[f"{layer}.{fn}.self_ms"] = self_ns / 1e6 / rounds
    out["ntheory.prime_invariants.calls_per_op"] = agg.get("ntheory.prime_invariants", zero)[0] / ops
    out["ntheory.legendre_table.calls_per_op"] = agg.get("ntheory.legendre_table", zero)[0] / ops
    out["exactla.crt_symmetric.residues"] = agg.get("exactla.crt_symmetric", zero)[3] / rounds
    for cid in CHECK_IDS:
        name = f"verify.check.{cid}"
        out[f"{name}.ms"] = agg.get(name, zero)[1] / 1e6 / rounds
        out[f"{name}.dets"] = dets.get(name, 0) / rounds
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_legdet()
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed)
    warm_up(cli, wl)
    setup = None if trace else setup_seconds(workload, seed)
    clearers = cache_clearers(keep=[sys.modules["legdet.exactla"].moduli])

    recorder = None
    if trace:
        recorder = Recorder()
        install_tracing(recorder)
    ops, busy, rounds = measure(cli, wl, seconds, clearers, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    completed = [op for op in ops if op.error is None]
    if not completed:
        sys.exit(f"bench: none of the {len(ops)} ops of {workload} completed")

    failed, correct = check_all(wl, ops)
    if trace:
        recorder.write(OUT / f"spans-{workload}.jsonl")
        values = layer_metrics(recorder, len(completed), rounds, busy)
        units = dict(per_layer_metrics())
    else:
        values = {
            "setup_s": setup,
            "ops_per_s": len(completed) / busy,
            "op_p50_ms": statistics.median(op.ms for op in completed),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    print(f"{workload}: seed {seed}, {rounds} round(s), {len(ops)} ops attempted, "
          f"{failed} failed, correct {str(correct).lower()}, {busy:.2f} s measured")
    for name, unit in units.items():
        print(f"  {name:<46} {values[name]:>14.6g} {unit}")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {workload} exited {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
