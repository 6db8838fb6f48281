"""Compare legdet's command-line outputs with another source tree's.

    python tests/parity.py PARENT_SRC [--quick]

PARENT_SRC is the `src` directory of the tree to compare with, a checkout
of the parent commit, say.  Each command line of ARGVS runs once per side,
as `python -m legdet.cli ...` in a fresh interpreter with PYTHONPATH set to
that side's `src`, and the two runs must agree on stdout, stderr, the exit
code and the file that `--out` names, if any.  Printed timings are masked
on both sides by the golden tests' `_mask`.  One line per command gives the
verdict and both wall times; the exit status is 1 on any difference.  The
last line gives each tree's `legdet` line count, the size to track.
`--quick` runs the commands marked quick, a short subset for iterating.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The token of an argv that each side replaces by a path of its own.
OUT = "{out}"


class Case(NamedTuple):
    argv: tuple[str, ...]
    quick: bool = False


def _case(line: str, quick: bool = False) -> Case:
    return Case(tuple(line.split()), quick)


#: The command lines kept byte-identical across changes: every output, exit
#: code included, of a valid or refused call that a change must not move.
ARGVS: tuple[Case, ...] = (
    *(_case(f"verify --from 3 --to 199 --suite all --seed {seed}{form}")
      for seed in (0, 7) for form in ("", " --json")),
    _case("verify --from 3 --to 60 --suite all --json", quick=True),
    _case("verify --prime 101", quick=True),
    _case("verify --prime 103 --suite all --seed 7 --json", quick=True),
    _case("verify --prime 397 --suite all --json"),
    _case("verify --prime 397 --suite SUN_C31_I,SUN_C31_II --json"),
    _case("verify --from 3 --to 199 --suite SUN_C31_I,SUN_C31_II --json --seed 7"),
    _case("verify --prime 397 --suite T11_CHARPOLY_1MOD4 --json"),
    _case("verify --prime 13 --suite T31_RANDOM,MDL_RANDOM --seed 5 --json"),
    *(_case(f"scan --from 3 --to 150 --ids all --jobs {jobs} --json --out {OUT}", quick=jobs == 1)
      for jobs in (1, 2)),
    _case(f"scan --from 3 --to 20000 --ids T13_DPMOD4,CONJ11_DP --jobs 1 --json --out {OUT}"),
    _case(f"scan --from 999000 --to 1000000 --ids T13_DPMOD4,CONJ11_DP --jobs 2 --json --out {OUT}"),
    _case("verify --prime 10007 --suite T13_DPMOD4,CONJ11_DP,L21_QUADSUM,L41_SUMS,EQ_DCOUNT,MORDELL --json"),
    _case("verify --prime 419 --suite EQ_DP_U1AU0 --json"),
    _case("verify --prime 419 --suite T12_II,EQ_DP_U1AU0 --json"),
    _case("verify --prime 419 --suite EQ_38II_QP --json"),
    _case("verify --prime 397 --suite T12_I --json"),
    # sorted by name, so COR_AFTER_T12 computes A+'s expansion first
    _case(f"scan --from 3 --to 300 --ids COR_AFTER_T12,EQ_38II_QP,EQ_DP_U1AU0,T12_II --jobs 1 --json --out {OUT}"),
    _case("verify --prime 1000003 --suite L21_QUADSUM,L41_SUMS,EQ_DCOUNT --json"),
    *(_case(f"charpoly --prime {p} --json", quick=p == 103) for p in (101, 103, 397, 419, 1031)),
    _case("compute --prime 1019 --what dp,cp,qp,hneg,det-aplus,det-aminus --json", quick=True),
    _case("compute --prime 1000003 --what dp,cp,qp,hneg --json"),
    _case("compute --prime 109 --what unit,hreal,det-aplus,charpoly-aminus --json", quick=True),
    *(_case(f"compute --prime {p} --what unit,hreal{form}")
      for p in (5, 13, 17, 229, 1381, 2017, 1000033) for form in ("", " --json")),
    # refused calls: wrong residue class of a named check, an empty range,
    # a repeated id, a seed-only suite, a composite, no prime or range, the
    # real-quadratic fields at p ≡ 3 (mod 4), and a matrix above the limit
    _case("verify --prime 13 --suite T11_DET_3MOD4", quick=True),
    _case("verify --from 24 --to 28 --suite all --json"),
    _case("verify --prime 7 --suite T13_DPMOD4,T13_DPMOD4"),
    _case("verify --prime 13 --suite T31_RANDOM,MDL_RANDOM --seed 3"),
    _case("verify --prime 15", quick=True),
    _case("verify --suite all"),
    _case("compute --prime 7 --what unit"),
    _case("compute --prime 419 --what charpoly-aplus,hreal"),
    _case("compute --prime 103 --what dp,unit"),
    _case("compute --prime 4099 --what det-aplus"),
)


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out: bytes | None  # the --out file, None if there is none
    seconds: float


def run(src: Path, argv: Sequence[str], workdir: Path) -> Run:
    """argv through `python -m legdet.cli` with legdet from `src`, in workdir."""
    out = workdir / "out"
    argv = [str(out) if a == OUT else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "legdet.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    return Run(proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None, seconds)


def differences(a: Run, b: Run) -> list[str]:
    """The parts in which two runs differ, timings masked."""
    from test_golden import _mask

    diffs = []
    if a.code != b.code:
        diffs.append(f"exit {a.code} != {b.code}")
    for name in ("stdout", "stderr"):
        if _mask(getattr(a, name)) != _mask(getattr(b, name)):
            diffs.append(name)
    if a.out != b.out:
        diffs.append("--out file")
    return diffs


def _echo(line: str) -> None:
    print(line, flush=True)


def compare(parent_src: Path, cases: Sequence[Case], this_src: Path = SRC, echo=_echo) -> int:
    """Run each case on both sides and echo one line per case; 1 if any differs."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(cases):
            sides = []
            for side, src in (("parent", parent_src), ("this", this_src)):
                workdir = Path(tmp) / f"{i}-{side}"
                workdir.mkdir()
                sides.append(run(src, case.argv, workdir))
            diffs = differences(*sides)
            failed += bool(diffs)
            verdict = "DIFF " + ", ".join(diffs) if diffs else "same"
            echo(f"{verdict:<8} {sides[0].seconds:7.2f} s {sides[1].seconds:7.2f} s  {' '.join(case.argv)}")
    echo(f"{len(cases) - failed} of {len(cases)} the same (wall times: parent, this tree)")
    return 1 if failed else 0


def legdet_lines(src: Path) -> int:
    """Lines of Python in the `legdet` package under src."""
    return sum(len(f.read_bytes().splitlines()) for f in (src / "legdet").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the src directory of the tree to compare with")
    parser.add_argument("--quick", action="store_true", help="run the quick subset only")
    args = parser.parse_args(argv)
    if not (args.parent_src / "legdet" / "cli.py").is_file():
        parser.error(f"no legdet/cli.py under {args.parent_src}")
    sys.path.insert(0, str(SRC))  # the golden tests' module imports legdet
    cases = [c for c in ARGVS if c.quick or not args.quick]
    code = compare(args.parent_src.resolve(), cases)
    _echo(f"src/legdet lines: {legdet_lines(args.parent_src)} parent, {legdet_lines(SRC)} this tree")
    return code


if __name__ == "__main__":
    sys.exit(main())
