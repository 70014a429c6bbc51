"""Command-line interface.

Commands: solve, verify, family, blob, gen, difftest, check-p5free.
Exit codes: 0 success, 1 mismatch or failed verification, 2 bad flags or
unparsable input, 3 input not P5-free (the witness path is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from fractions import Fraction
from pathlib import Path

from .blob import build_blob_graph, solve_full
from .connected import solve_connected_case
from .family import build_family
from .generators import GenSpec, GenerationError, generate, trial_spec
from .graph import NotP5FreeError, find_induced_p5
from .mwis import solve_mwis
from .oracle import OracleSizeError, oracle_solve
from .pattern import Instance, verify_solution
from .textio import (
    ParseError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

__all__ = ["main"]


def _frac_str(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def instance_digest(inst: Instance) -> str:
    """Stable hex digest of the canonical serialization (12 chars)."""
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:12]


def _read_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _cmd_solve(args) -> int:
    for flag, given, needs in (("--force-connected", args.force_connected, "paper"),
                               ("--budget", args.budget is not None, "paper"),
                               ("--force", args.force, "oracle")):
        if given and args.algorithm != needs:
            print(f"{flag} requires --algorithm {needs}", file=sys.stderr)
            return 2
    inst = _read_instance(args.file)
    start = time.perf_counter()
    if args.algorithm == "oracle":
        sol = oracle_solve(inst, force=args.force)
        exhaustive = True
        name = "oracle"
    elif args.force_connected:
        res = solve_connected_case(inst, budget=args.budget)
        sol, exhaustive = res.solution, res.exhaustive
        name = "paper-connected"
    else:
        res = solve_full(inst, budget=args.budget)
        sol, exhaustive = res.solution, res.exhaustive
        name = "paper"
    elapsed = time.perf_counter() - start
    violation = verify_solution(inst, sol)
    if violation is not None:
        print(f"internal verification failed: {violation}", file=sys.stderr)
        return 1
    pairs = " ".join(f"{v}:{sol.coloring[v]}" for v in sorted(sol.chosen))
    print(f"algorithm: {name}")
    print(f"instance: {instance_digest(inst)}")
    print(f"weight: {_frac_str(sol.weight)}")
    print(f"vertices: {pairs}".rstrip())
    print(f"time: {elapsed:.3f}s")
    print(f"exhaustive: {'true' if exhaustive else 'false'}")
    if args.check:
        print("verified: ok")
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.instance)
    sol = parse_solution(Path(args.solution).read_text(encoding="utf-8"))
    try:
        violation = verify_solution(inst, sol)
    except ValueError as exc:  # a chosen vertex outside the graph
        violation = exc
    if violation is None:
        print("ok")
        return 0
    print(f"violation: {violation}")
    return 1


def _cmd_family(args) -> int:
    inst = _read_instance(args.file)
    fam = build_family(inst, budget=args.budget)
    for member in fam.members:
        print(" ".join(str(v) for v in sorted(member)))
    return 0


def _cmd_blob(args) -> int:
    inst = _read_instance(args.file)
    fam = build_family(inst, budget=args.budget)
    blob = build_blob_graph(inst, fam)
    for i, member in enumerate(blob.members, start=1):
        ids = " ".join(str(v) for v in sorted(member))
        print(f"member {i}: {ids} | weight {_frac_str(blob.weights[i])}")
    for u, v in blob.graph.edges():
        print(f"edge {u} {v}")
    return 0


def _cmd_gen(args) -> int:
    family = "random-p5free" if args.family == "random" else args.family
    spec = GenSpec(
        family=family,
        n=args.n,
        k=args.k,
        seed=args.seed,
        density=Fraction(args.density),
        pattern=args.pattern,
        list_density=Fraction(args.list_density),
        weight_range=(args.weight_lo, args.weight_hi),
        max_tries=args.max_tries,
    )
    sys.stdout.write(serialize_instance(generate(spec)))
    return 0


def _cmd_check_p5free(args) -> int:
    inst = _read_instance(args.file)
    witness = find_induced_p5(inst.g)
    if witness is None:
        print("P5-free")
        return 0
    print("induced P5: " + " ".join(str(v) for v in witness))
    return 3


# -- difftest ----------------------------------------------------------------

def _difftest_trial(seed, index, max_n, pattern, k, list_density):
    """One trial: generate, run both solvers, compare.  Returns the
    failure messages and the finding file's text, or None.

    solve_full skips the family when its greedy meets the cover bound,
    so the family route (family, blob graph, MWIS) is weighed on every
    trial as well and held to the same rules as the pipeline."""
    spec = trial_spec(seed * 1000003 + index, seed * 7919 + index, index, max_n,
                      pattern, k, list_density)
    inst = generate(spec)
    pipeline = solve_full(inst)
    routed = solve_mwis(build_blob_graph(inst, build_family(inst)))[1]
    oracle = oracle_solve(inst, force=True)
    failures = []
    v1 = verify_solution(inst, pipeline.solution)
    if v1 is not None:
        failures.append(f"pipeline output failed verification: {v1}")
    v2 = verify_solution(inst, oracle)
    if v2 is not None:
        failures.append(f"oracle output failed verification: {v2}")
    complete = inst.h.is_complete
    gap = False
    for label, weight in (("pipeline", pipeline.solution.weight), ("family route", routed)):
        if weight > oracle.weight:
            failures.append(f"{label} weight {weight} exceeds oracle {oracle.weight}")
        elif weight < oracle.weight:
            gap = True
            if complete:
                failures.append(
                    f"complete pattern mismatch: {label} {weight} < oracle {oracle.weight}"
                )
    finding = None
    if gap and not complete and not failures:
        finding = (
            f"# difftest finding: trial {index}, pipeline "
            f"{_frac_str(pipeline.solution.weight)}, family route {_frac_str(routed)}, "
            f"oracle {_frac_str(oracle.weight)}\n"
            + serialize_instance(inst)
            + "# pipeline solution:\n"
            + "".join("# " + ln + "\n" for ln in
                      serialize_solution(pipeline.solution).splitlines())
            + "# oracle solution:\n"
            + "".join("# " + ln + "\n" for ln in
                      serialize_solution(oracle).splitlines())
        )
    return failures, finding


def _cmd_difftest(args) -> int:
    name, _, karg = args.pattern.partition(":")
    if name not in ("complete", "path") or not karg.isdigit() or int(karg) < 1:
        print(f"bad --pattern {args.pattern!r}; expected complete:K or path:K, K >= 1",
              file=sys.stderr)
        return 2
    for flag, value, least in (("--trials", args.trials, 1), ("--max-n", args.max_n, 2)):
        if value < least:
            print(f"bad {flag} {value}; expected at least {least}", file=sys.stderr)
            return 2
    k = int(karg)
    list_density = Fraction(args.list_density)
    bad = 0
    findings = 0
    findings_dir = Path(args.findings_dir)
    for index in range(args.trials):
        failures, finding = _difftest_trial(args.seed, index, args.max_n, name, k, list_density)
        for msg in failures:
            print(f"trial {index}: {msg}")
            bad += 1
        if finding is not None:
            findings_dir.mkdir(parents=True, exist_ok=True)
            (findings_dir / f"trial_{index:05d}.txt").write_text(finding, encoding="utf-8")
            findings += 1
    print(
        f"trials={args.trials} failures={bad} findings={findings}"
        + (f" (dir {findings_dir})" if findings else "")
    )
    return 1 if bad else 0


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="p5hom", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument("--budget", type=int, default=None,
                       help="cap on the guesses of the whole run (default: uncapped)")

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=("paper", "oracle"), default="paper")
    p.add_argument("--force-connected", action="store_true",
                   help="run only the connected-promise stage (needs --algorithm paper)")
    p.add_argument("--check", action="store_true",
                   help="report the self-verification explicitly")
    p.add_argument("--force", action="store_true",
                   help="let the oracle run above its size cap (needs --algorithm oracle)")
    add_budget(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="verify a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("family", help="print the component family, one member per line")
    p.add_argument("file")
    add_budget(p)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("blob", help="print the blob graph: members, weights, edges")
    p.add_argument("file")
    add_budget(p)
    p.set_defaults(fn=_cmd_blob)

    p = sub.add_parser("gen", help="generate a seeded P5-free instance to stdout")
    p.add_argument("--family", choices=("cograph", "split", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", choices=("complete", "path"), default="complete")
    p.add_argument("--density", default="0.5")
    p.add_argument("--list-density", default="1", dest="list_density")
    p.add_argument("--weight-lo", type=int, default=1)
    p.add_argument("--weight-hi", type=int, default=1)
    p.add_argument("--max-tries", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("difftest", help="differential test against the oracle")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--pattern", required=True, help="complete:K or path:K")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--list-density", default="0.7", dest="list_density")
    p.add_argument("--findings-dir", default="findings", dest="findings_dir")
    p.set_defaults(fn=_cmd_difftest)

    p = sub.add_parser("check-p5free", help="exit 0 if P5-free, else print a witness")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check_p5free)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GenerationError, OracleSizeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotP5FreeError as exc:
        print("induced P5: " + " ".join(str(v) for v in exc.witness), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
