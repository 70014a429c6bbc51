"""Layered solve benchmark for p5hom.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload family-sparse --seed 1 --seconds 32 --trace 0

It sets up the workload's seeded corpus (corpus.py), asks the oracle for
every instance's optimum, then solves the whole corpus with
p5hom.blob.solve_full (serial, uncapped) in passes until --seconds have
gone by, setting the corpus up afresh before each pass and checking every
answer.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it runs one untraced pass, then traced passes (tracing.py), and reports
the per-layer metrics.  The last line of standard output is one JSON
object; the spans and per-instance records go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, time_kernel
from corpus import WORKLOADS, draw_instance, set_up
from tracing import Tracer

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# set-ups after each pass, each scaled by that pass's speed factor
SETUPS_PER_PASS = 3
# instances drawn under the next seed, which must change the counts
OTHER_SEED_INSTANCES = 3
OUT_DIR = Path("perfbench") / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check(p5, inst, result, oracle_weight) -> str | None:
    """Why one pipeline answer fails the gate, or None."""
    sol = result.solution
    if not result.exhaustive:
        return "exhaustive false on an uncapped run"
    violation = p5.verify_solution(inst, sol)
    if violation is not None:
        return f"verify_solution: {violation}"
    if sol.weight > oracle_weight:
        return f"weight {sol.weight} beats the oracle's {oracle_weight}"
    if inst.h.is_complete and sol.weight != oracle_weight:
        return f"complete pattern: weight {sol.weight} != oracle {oracle_weight}"
    return None


def solve_one(p5, inst, oracle_weight, tracer=None):
    """(seconds, weight, serialized solution, failure); the last three
    are None, None and a message when solve_full raises."""
    t0 = perf_counter()
    try:
        if tracer is None:
            result = p5.solve_full(inst)
        else:
            with tracer.span("solve"):
                result = p5.solve_full(inst)
    except Exception as exc:  # a raising instance is counted, not fatal
        return perf_counter() - t0, None, None, f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    sol = result.solution
    return seconds, sol.weight, p5.serialize_solution(sol), check(p5, inst, result, oracle_weight)


def run_pass(p5, corpus, oracle_weights, tracer=None, base_id=0):
    """solve_one records for the corpus, and the pass's speed factor: the
    calibration kernel's reference time over its mean time in the pass,
    timed once before each solve."""
    gc.collect()
    records = []
    kernel_s = 0.0
    for i, inst in enumerate(corpus):
        kernel_s += time_kernel()
        if tracer is not None:
            tracer.instance = base_id + i
        records.append(solve_one(p5, inst, oracle_weights[i], tracer))
    return records, REFERENCE_S * len(corpus) / kernel_s


def metric(value, unit):
    return {"value": value, "unit": unit}


def short_digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "p5hom" / "__init__.py").is_file():
        print("perfbench: src/p5hom not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    name = args.workload

    first = set_up(name, args.seed)
    if not Path(first.p5.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported p5hom from {first.p5.__file__}, not {src}", file=sys.stderr)
        return 2
    from p5hom.cli import instance_digest

    n = len(first.corpus)
    digests = [instance_digest(inst) for inst in first.corpus]
    problems: list[str] = []

    oracle_weights = []
    oracle_s = 0.0
    for i, inst in enumerate(first.corpus):
        t0 = perf_counter()
        sol = first.p5.oracle_solve(inst, force=True)
        oracle_s += perf_counter() - t0
        if first.p5.verify_solution(inst, sol) is not None:
            problems.append(f"instance {i}: the oracle's answer fails verification")
        oracle_weights.append(sol.weight)

    tracer = Tracer() if args.trace else None
    ready = first
    setup_s = []  # set-up times at the reference speed
    generate_s = [first.generate_s]
    parse_s = [first.parse_s]
    passes = []  # one list of solve_one records per pass
    factors = []  # one speed factor per pass
    start = perf_counter()
    while True:
        traced = tracer is not None and passes != []
        if traced:
            tracer.install(ready.p5)
        records, factor = run_pass(
            ready.p5, ready.corpus, oracle_weights, tracer if traced else None, len(passes) * n
        )
        if traced:
            tracer.remove()
        passes.append(records)
        factors.append(factor)
        if len(passes) == 1:
            setup_s.append(first.setup_s * factor)
        for _ in range(SETUPS_PER_PASS):
            ready = set_up(name, args.seed)
            setup_s.append(ready.setup_s * factor)
            generate_s.append(ready.generate_s)
            parse_s.append(ready.parse_s)
            if not ready.round_trip_ok:
                problems.append("the text round trip changed an instance")
            if ready.texts != first.texts:
                problems.append("a later set-up gave another corpus")
        if tracer is None:
            done = len(passes) >= MIN_PASSES
        else:
            done = len(passes) - 1 >= MIN_TRACED_PASSES
        # stop before a pass that would end after the window
        longest = max(sum(r[0] for r in records) for records in passes)
        if done and perf_counter() - start + longest > args.seconds:
            break

    if not first.round_trip_ok:
        problems.append("the text round trip changed an instance")

    # correctness gate, and determinism across passes
    attempted = failed = 0
    for p, records in enumerate(passes):
        for i, (_, _, sol_text, failure) in enumerate(records):
            attempted += 1
            if failure is not None:
                failed += 1
                problems.append(f"pass {p} instance {i} ({digests[i]}): {failure}")
            elif sol_text != passes[0][i][2]:
                problems.append(f"pass {p} instance {i}: solution differs from pass 0")
    exact = sum(1 for i, r in enumerate(passes[0]) if r[1] == oracle_weights[i])

    lines = [
        f"workload {name} seed {args.seed}: {n} instances (corpus {short_digest(digests)}), "
        f"{len(passes)} passes{', the first untraced' if tracer else ''}",
        f"fail_share = {failed / attempted} ({failed} of {attempted} solves)",
        f"exact_share = {exact / n} ({exact} of {n} instances equal the oracle)",
    ]
    if tracer is None:
        # times at the reference speed: each pass scaled by its own factor
        scaled = [[r[0] * f for r in records] for records, f in zip(passes, factors)]
        per_instance = [statistics.median(s[i] for s in scaled) for i in range(n)]
        wall = statistics.median(sum(r[0] for r in records) for records in passes)
        lines += [
            f"speed factors {' '.join(f'{f:.3f}' for f in factors)}; "
            f"unscaled solve wall time {wall} s (median pass)",
            f"instance_s.p50 over {n} instances, each its median of {len(passes)} passes",
        ]
        if n >= 100:
            p90 = statistics.quantiles(per_instance, n=10)[8]
            lines.append(f"instance_s.p90 = {p90} s ({n} samples; not gated)")
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "solve_s": metric(statistics.median(sum(s) for s in scaled), "s"),
            "instance_s.p50": metric(statistics.median(per_instance), "s"),
            "exact_share": metric(exact / n, "share"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    else:
        traced_passes = range(1, len(passes))
        totals = []  # per traced pass, with times at the reference speed
        for p in traced_passes:
            t = tracer.layer_totals(set(range(p * n, p * n + n)))
            totals.append({k: v * factors[p] if k.endswith("_s") else v for k, v in t.items()})
        fps = tracer.fingerprints()
        ref = [fps.get(n + i) for i in range(n)]
        for p in traced_passes:
            if [fps.get(p * n + i) for i in range(n)] != ref:
                problems.append(f"traced pass {p}: counts differ from traced pass 1")

        # the next seed must change the counts
        p5 = ready.p5
        tracer.install(p5)
        changed = False
        for i in range(min(OTHER_SEED_INSTANCES, n)):
            other = draw_instance(p5, ready.shapes[i], args.seed + 1, name, i)
            tracer.instance = -1 - i
            r = solve_one(p5, other, p5.oracle_solve(other, force=True).weight, tracer)
            if r[3] is not None:
                problems.append(f"seed {args.seed + 1} instance {i}: {r[3]}")
            changed |= tracer.fingerprints().get(-1 - i) != ref[i] or r[2] != passes[0][i][2]
        tracer.remove()
        if not changed:
            problems.append(f"seed {args.seed + 1} gives the counts of seed {args.seed}")

        def med(key):
            return statistics.median(t[key] for t in totals)

        counts = totals[0]
        untraced_wall = sum(r[0] for r in passes[0])
        untraced_s = untraced_wall * factors[0]
        traced_s = med("solve_s")
        lines.append(
            "determinism: "
            + " ".join(f"{k}={counts[k]}" for k in ("family.members", "connected.calls", "blob.edges"))
            + f" weights={short_digest(str(r[1]) for r in passes[0])}"
        )
        metrics = {
            "family.self_s": metric(med("family.self_s"), "s"),
            "family.self_share": metric(med("family.self_s") / traced_s, "share"),
            "family.connected_calls": metric(counts["family.connected_calls"], "count"),
            "family.members": metric(counts["family.members"], "count"),
            "connected.time_s": metric(med("connected.time_s"), "s"),
            "connected.share": metric(med("connected.time_s") / traced_s, "share"),
            "connected.calls": metric(counts["connected.calls"], "count"),
            "connected.calls_per_top": metric(
                counts["connected.calls"] / max(1, counts["family.connected_calls"]), "ratio"
            ),
            "mwis.base_calls": metric(counts["mwis.base_calls"], "count"),
            "mwis.base_s": metric(med("mwis.base_s"), "s"),
            "blob.build_s": metric(med("blob.build_s"), "s"),
            "blob.vertices": metric(counts["blob.vertices"], "count"),
            "blob.edges": metric(counts["blob.edges"], "count"),
            "mwis.blob_s": metric(med("mwis.blob_s"), "s"),
            "pattern.color_s": metric(med("pattern.color_s"), "s"),
            "pattern.verify_s": metric(med("pattern.verify_s"), "s"),
            "graph.p5check_s": metric(med("graph.p5check_s"), "s"),
            "oracle.time_s": metric(oracle_s, "s"),
            "oracle.ratio": metric(untraced_wall / oracle_s, "ratio"),
            "generators.generate_s": metric(statistics.median(generate_s), "s"),
            "textio.parse_s": metric(statistics.median(parse_s), "s"),
            "trace.solve_s": metric(traced_s, "s"),
            "trace.overhead": metric(traced_s / untraced_s - 1, "share"),
        }

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "instances": [
            {
                "digest": digests[i],
                "shape": {k: str(v) for k, v in vars(first.shapes[i]).items()},
                "oracle_weight": str(oracle_weights[i]),
                "seconds": [records[i][0] for records in passes],
                "solution": passes[0][i][2],
            }
            for i in range(n)
        ],
        "speed_factors": factors,
        "problems": problems,
        "spans": tracer.records() if tracer else [],
    }
    out_path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(out) + "\n", encoding="utf-8")

    for line in lines + problems:
        print(line)
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
