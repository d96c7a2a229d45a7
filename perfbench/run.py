"""dualcurl benchmark.

    python3 perfbench/run.py --workload {paper-cli,sweep-high-N,many-rhs}
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Builds nothing and installs nothing: the program is imported from src/.
With --trace 0 it measures the end-to-end metrics of BENCHMARK.json with
tracing off; with --trace 1 it runs the same rounds untraced and then
traced and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results, the environment record and
the spans go to .perfbench/results/.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import common

common.pin_blas_threads()

METRIC_GROUPS_MS = (
    "basis1d.gll_nodes", "basis1d.legendre_eval", "basis1d.gauss_rule",
    "basis1d.lagrange_eval", "basis1d.lagrange_deriv", "basis1d.edge_eval",
    "operators2d.build_incidence", "operators2d.build_trace",
    "operators2d.side_dof_indices",
    "galerkin.GramSet", "galerkin.assemble_mass0", "galerkin.assemble_mass1",
    "galerkin.assemble_boundary_mass", "galerkin.gram_nodal_1d",
    "galerkin.gram_edge_1d", "galerkin.spd_solve", "galerkin.dense_inverse",
    "galerkin.psi_table",
    "curlcurl.Discretization", "curlcurl.project_boundary_data",
    "curlcurl.solve_both", "curlcurl.solve_neumann", "curlcurl.solve_dirichlet",
    "curlcurl.weak_curl", "curlcurl.norm_F", "curlcurl.norm_E",
    "curlcurl.reconstruct", "curlcurl.error_norms",
)
ROUND_COUNTS = (
    "basis1d.points_evaluated", "operators2d.incidence_bytes",
    "galerkin.cholesky_flops", "galerkin.table_bytes", "galerkin.solve_mass_columns",
)
QUALITY = (
    "curlcurl.neumann_residual", "curlcurl.dirichlet_residual",
    "curlcurl.equivalence_residual", "curlcurl.norm_gap",
    "curlcurl.rel_errF", "curlcurl.rel_errE",
)


def load_spec():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_rounds(workload, seed, tally, seconds=None, rounds=None, whole=False, tracer=None,
               between=None):
    """Closed loop of rounds, until `seconds` pass or `rounds` are done.

    Unless `whole` is set, a round may stop inside at the deadline.
    `between(walls)` runs after each round; the time it takes is added to
    the deadline, so the rounds still get `seconds` of their own.
    Returns the wall time of each round.
    """
    walls = []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    r = 0
    while (r < rounds) if rounds is not None else (r == 0 or time.perf_counter() < deadline):
        if tracer is not None:
            tracer.round = r
        start = time.perf_counter()
        workload.round(seed, r, tally, None if whole else deadline)
        walls.append(time.perf_counter() - start)
        r += 1
        if between is not None:
            paused = time.perf_counter()
            between(walls)
            if deadline is not None:
                deadline += time.perf_counter() - paused
    return walls


def end_to_end(workload, args, size, tally):
    import workloads

    # set-up probes spread over the run, so that their median does not
    # hang on the host's speed during one stretch of a few seconds
    wanted = size["setup_samples"]
    samples = [workloads.setup_probe(workload)]

    def probe_when_due(walls):
        if len(samples) < wanted and sum(walls) >= len(samples) * args.seconds / wanted:
            samples.append(workloads.setup_probe(workload))

    run_rounds(workload, args.seed, tally, seconds=args.seconds, between=probe_when_due)
    while len(samples) < wanted:
        samples.append(workloads.setup_probe(workload))
    lat = tally.latencies
    if workload.in_process:
        tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(samples), "peak_rss_mb": tally.peak_rss_mb}
    if lat:
        metrics.update({
            "ops_per_s": len(lat) / sum(lat),
            "latency_ms.p80": 1e3 * common.quantile(lat, 0.8),
        })
    notes = {
        "setup_samples_s": samples,
        "latency_samples": len(lat),
        "latency_ms_p50": 1e3 * common.quantile(lat, 0.5) if lat else None,
        "latencies_s": lat,
        "tts_s_median": {f"N{N}": statistics.median(v) for N, v in sorted(tally.tts.items())},
    }
    return metrics, notes


def per_layer(workload, args, size, tally):
    import spans
    import workloads

    import_s, deps_s = workloads.import_seconds(size["import_samples"])
    # the same whole rounds, first untraced and then traced
    plain = run_rounds(workload, args.seed, tally, seconds=args.seconds / 2, whole=True)
    tracer = spans.Tracer()
    if workload.in_process:
        tracer.install()
    else:
        workload.tracer = tracer
    try:
        traced = run_rounds(workload, args.seed, tally, rounds=len(plain), tracer=tracer)
    finally:
        tracer.remove()
        workload.tracer = None

    per_round = spans.self_times(tracer.spans)
    rounds = range(len(traced))

    def med(values):
        return statistics.median(list(values))

    metrics = {"cli.import_s": import_s, "cli.import_deps_s": deps_s}
    for g in METRIC_GROUPS_MS:
        metrics[g + "_ms"] = med(1e3 * per_round[r][g] for r in rounds)
        metrics[g + "_calls"] = med(tracer.counts[r][g + "_calls"] for r in rounds)
    for c in ROUND_COUNTS:
        metrics[c] = med(tracer.counts[r][c] for r in rounds)
    factorizations = sum(tracer.counts[r]["galerkin.factorizations"] for r in rounds)
    rhs = sum(tracer.counts[r]["curlcurl.rhs_solved"] for r in rounds)
    metrics["galerkin.factorizations_per_rhs"] = factorizations / rhs if rhs else 0.0
    for q in QUALITY:
        short = q.split(".", 1)[1]
        metrics[q] = tracer.maxima.get(q, tally.quality.get(short, 0.0))
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)

    table = {}
    for r in rounds:
        for name, t in per_round[r].items():
            row = table.setdefault(name, {"self_ms": [], "calls": []})
            row["self_ms"].append(1e3 * t)
            row["calls"].append(tracer.counts[r].get(
                spans.GROUPS.get(name, name) + "_calls", 0))
    notes = {
        "rounds": len(traced),
        "untraced_round_s": plain,
        "traced_round_s": traced,
        "span_table": {k: {"self_ms": med(v["self_ms"]), "calls": med(v["calls"])}
                       for k, v in sorted(table.items())},
    }
    return metrics, notes, tracer


def print_report(args, env, spec_metrics, result, notes, tally):
    print(f"dualcurl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, size {args.size}")
    print("env " + json.dumps(env))
    for m in spec_metrics:
        v = result["metrics"][m["name"]]
        print(f"  {m['name']:<40} {v['value']:>14.6g} {v['unit']}")
    if "span_table" in notes:
        print(f"  self time per round, median of {notes['rounds']} traced rounds:")
        rows = sorted(notes["span_table"].items(), key=lambda kv: -kv[1]["self_ms"])
        for name, row in rows:
            print(f"    {name:<38} {row['self_ms']:>12.3f} ms {row['calls']:>8g} calls")
    else:
        print(f"  latency samples {notes['latency_samples']}; "
              f"median {notes['latency_ms_p50']:.6g} ms")
        print("  set-up samples " + ", ".join(f"{s:.4f}" for s in notes["setup_samples_s"]) + " s")
        for N, t in notes["tts_s_median"].items():
            print(f"  tts_s.{N:<33} {t:>14.6g} s")
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"  error_rate {tally.failed}/{tally.attempted} = {rate:.3g}")
    for reason in tally.failures:
        print(f"  failure: {reason.splitlines()[0]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    spec = load_spec()
    common.use_source_tree()
    import dualcurl  # noqa: F401  (maps numpy's and scipy's BLAS for the record)
    import envinfo
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = envinfo.environment(args.seed)
    size = workloads.SIZES[args.size]
    workload = workloads.make(args.workload, args.size)
    tally = workloads.Tally()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tracer = None
    if args.trace:
        metrics, notes, tracer = per_layer(workload, args, size, tally)
    else:
        metrics, notes = end_to_end(workload, args, size, tally)
    correct = tally.failed == 0 and all(m["name"] in metrics for m in wanted)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }

    out = common.OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {"env": env, "args": vars(args), "result": result, "notes": notes,
         "failures": tally.failures}, indent=1))
    if tracer is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))

    print_report(args, env, [m for m in wanted if m["name"] in metrics], result, notes, tally)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
