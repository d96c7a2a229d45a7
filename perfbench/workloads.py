"""The three workloads, their correctness gates and their set-up probes.

Every workload is a closed loop: one caller in one process, the next
operation sent only after the previous one returned.  Work is grouped in
rounds, the unit a traced run repeats:

  paper-cli     one round = one `python -m dualcurl.cli` process (the
                paper reproduction); operation = that process.
  sweep-high-N  one round = one pass over the sweep degrees, each with a
                fresh Discretization and its own seeded field; operation
                = the pass, attempted = one per degree.
  many-rhs      one round = one Discretization(rule="gauss") and a batch
                of seeded fields; operation = one right-hand side.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import common
import fields

SIZES = {
    "full": dict(cli_max_degree=9, sweep_degrees=(16, 32, 40), rhs_degree=16,
                 rhs_per_round=128, error_every=8, setup_samples=5,
                 import_samples=3),
    # seconds-long path for the benchmark's own tests
    "smoke": dict(cli_max_degree=3, sweep_degrees=(11, 12), rhs_degree=12,
                  rhs_per_round=6, error_every=2, setup_samples=2,
                  import_samples=1),
}

# in-process gates; measured values stay below 1e-12 up to N=40
GATES = {
    "equivalence_residual": 1e-11,
    "norm_gap": 1e-11,
    "rel_errF": 1e-9,
    "rel_errE": 1e-9,
}

# the published Table 1 norms, truncated at the 8th decimal (criterion 1)
TABLE1 = (5.62334036, 6.28815932, 6.32851719, 6.32957061, 6.32958640,
          6.32958655, 6.32958656, 6.32958656, 6.32958656)
TABLE1_TOL = 1e-8
FIG2_TOL = 1e-13     # criterion 5
CHILD_TIMEOUT_S = 60


@dataclass
class Tally:
    """What a run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    latencies: list = field(default_factory=list)     # s per operation
    tts: dict = field(default_factory=lambda: defaultdict(list))  # N -> s
    quality: dict = field(default_factory=dict)       # name -> worst value
    peak_rss_mb: float = 0.0

    def fail(self, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)
            print(f"FAILED: {reason}", file=sys.stderr)

    def worst(self, name, value):
        self.quality[name] = max(self.quality.get(name, 0.0), float(value))


# -- in-process workloads ---------------------------------------------------

def check_solution(disc, sol, nF, nE, errors=None):
    """Gate values of one solved boundary data set."""
    ref = disc.gram.M1 @ disc.E10 @ sol.neumann
    q = {
        "equivalence_residual":
            float(np.linalg.norm(sol.dirichlet - ref) / np.linalg.norm(sol.dirichlet)),
        "norm_gap": abs(nF - nE) / nF,
    }
    if errors is not None:
        q["rel_errF"], q["rel_errE"] = errors[0] / nF, errors[1] / nE
    return q


def record_gates(tally, q, label):
    for name, value in q.items():
        tally.worst(name, value)
    bad = [f"{k}={q[k]:.3e} > {GATES[k]:.0e}" for k in GATES
           if k in q and not q[k] <= GATES[k]]
    if bad:
        tally.fail(f"{label}: " + ", ".join(bad))
    return not bad


class SweepHighN:
    name = "sweep-high-N"
    in_process = True

    def __init__(self, size, make_field=fields.exact_field):
        self.degrees = size["sweep_degrees"]
        self.make_field = make_field

    def setup_args(self):
        return ["--degrees", ",".join(map(str, self.degrees)), "--rule", "lobatto"]

    def round(self, seed, r, tally, deadline=None):
        from dualcurl import curlcurl as cc

        pass_s, ok = 0.0, True
        for N in self.degrees:
            tally.attempted += 1
            try:
                exact = self.make_field(fields.field_rng(seed, r, N))
                t0 = time.perf_counter()
                disc = cc.Discretization(N)
                bd = cc.project_boundary_data(exact, disc)
                sol = cc.solve_both(bd, disc)
                nF = cc.norm_F(sol.neumann, disc)
                nE = cc.norm_E(sol.dirichlet, bd, disc)
                errs = cc.error_norms(sol, exact, disc)
                dt = time.perf_counter() - t0
                q = check_solution(disc, sol, nF, nE, errs)
            except Exception:
                tally.fail(f"N={N} round {r}: {traceback.format_exc(limit=3)}")
                ok = False
                continue
            if record_gates(tally, q, f"N={N} round {r}"):
                tally.tts[N].append(dt)
                pass_s += dt
            else:
                ok = False
        if ok:
            tally.latencies.append(pass_s)


class ManyRhs:
    name = "many-rhs"
    in_process = True

    def __init__(self, size, make_field=fields.exact_field):
        self.degree = size["rhs_degree"]
        self.per_round = size["rhs_per_round"]
        self.error_every = size["error_every"]
        self.make_field = make_field

    def setup_args(self):
        return ["--degrees", str(self.degree), "--rule", "gauss"]

    def round(self, seed, r, tally, deadline=None):
        from dualcurl import curlcurl as cc

        disc = cc.Discretization(self.degree, rule="gauss")
        for i in range(self.per_round):
            if deadline is not None and time.perf_counter() > deadline and tally.latencies:
                return
            tally.attempted += 1
            label = f"rhs {i} round {r}"
            try:
                exact = self.make_field(fields.field_rng(seed, r, i))
                t0 = time.perf_counter()
                bd = cc.project_boundary_data(exact, disc)
                sol = cc.solve_both(bd, disc)
                nF = cc.norm_F(sol.neumann, disc)
                nE = cc.norm_E(sol.dirichlet, bd, disc)
                dt = time.perf_counter() - t0
                # error norms are sampled and kept out of the latency
                errs = cc.error_norms(sol, exact, disc) if i % self.error_every == 0 else None
                q = check_solution(disc, sol, nF, nE, errs)
            except Exception:
                tally.fail(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            if record_gates(tally, q, label):
                tally.latencies.append(dt)


# -- paper CLI --------------------------------------------------------------

def _csv_rows(path):
    """The numeric rows of a CSV file, header skipped."""
    with open(path) as fh:
        fh.readline()
        return [[float(v) for v in line.split(",")] for line in fh if line.strip()]


def check_cli_outputs(returncode, stdout, outdir, max_degree):
    """Gate the paper CLI run; returns (failure reasons, quality values)."""
    bad, q = [], {}
    if returncode != 0:
        bad.append(f"exit code {returncode}")
    lines = stdout.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    summary = [ln for ln in lines if ln.startswith("self-check:")]
    if not checks or any(ln.startswith("FAIL") for ln in checks):
        bad.append("self-check lines missing or FAIL")
    if len(summary) != 1 or not re.fullmatch(r"self-check: (\d+)/\1 passed", summary[0]):
        bad.append(f"self-check summary {summary!r}")
    for ln in checks:
        m = re.search(r"dual edge dofs equal M1 E10 F.*residual (\S+)", ln)
        if m:
            q["equivalence_residual"] = float(m.group(1))
    try:
        t1 = _csv_rows(outdir / "table1.csv")
        f3 = _csv_rows(outdir / "fig3.csv")
        grids = [_csv_rows(outdir / n) for n in ("fig2_xi.csv", "fig2_eta.csv")]
    except (OSError, ValueError) as exc:
        return bad + [f"unreadable output: {exc}"], q
    if [int(r[0]) for r in t1] != list(range(1, max_degree + 1)):
        bad.append("table1.csv degrees")
    dev = max((abs(v - ref) for r, ref in zip(t1, TABLE1) for v in r[1:3]),
              default=float("inf"))
    if not dev <= TABLE1_TOL:
        bad.append(f"table1 deviates by {dev:.2e} from the published norms")
    errF, errE = [r[1] for r in f3], [r[2] for r in f3]
    if len(f3) != max_degree or not all(
            b < a for e in (errF, errE) for a, b in zip(e, e[1:])):
        bad.append("fig3 errors do not decrease with N")
    fig2 = max((abs(v) for g in grids for row in g for v in row), default=float("inf"))
    if not fig2 <= FIG2_TOL:
        bad.append(f"fig2 max {fig2:.2e} > {FIG2_TOL:.0e}")
    if t1 and f3:
        q["norm_gap"] = max(r[3] / r[1] for r in t1)
        q["rel_errF"] = f3[-1][1] / t1[-1][1]
        q["rel_errE"] = f3[-1][2] / t1[-1][2]
    return bad, q


class PaperCli:
    name = "paper-cli"
    in_process = False

    def __init__(self, size):
        self.max_degree = size["cli_max_degree"]
        self.tracer = None   # set for a traced run; spans come back from the child

    def setup_args(self):
        return []

    def cli_args(self, out):
        return ["--max-degree", str(self.max_degree), "--emit", "table1,fig3,fig2",
                "--self-check", "--out", str(out)]

    def round(self, seed, r, tally, deadline=None):
        tracer = self.tracer
        tally.attempted += 1
        tmp = common.scratch_dir()
        try:
            out = tmp / "out"
            if tracer is None:
                argv = [sys.executable, "-m", "dualcurl.cli"]
            else:
                argv = [sys.executable, str(common.HERE / "traced_cli.py"), str(tmp / "spans.json")]
            with open(tmp / "stdout", "w") as so, open(tmp / "stderr", "w") as se:
                code, wall, rss = common.run_child(argv + self.cli_args(out),
                                                   CHILD_TIMEOUT_S, so, se)
            bad, q = check_cli_outputs(code, (tmp / "stdout").read_text(), out,
                                       self.max_degree)
            if tracer is not None and not bad:
                tracer.absorb(json.loads((tmp / "spans.json").read_text()), r)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for name, value in q.items():
            tally.worst(name, value)
        if bad:
            tally.fail(f"cli round {r}: " + "; ".join(bad))
            return
        tally.latencies.append(wall)
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss)


WORKLOADS = {w.name: w for w in (PaperCli, SweepHighN, ManyRhs)}
NAMES = tuple(WORKLOADS)


def make(name, size, **kwargs):
    return WORKLOADS[name](SIZES[size], **kwargs)


# -- set-up and import probes -----------------------------------------------

def setup_probe(workload):
    """Seconds of import + the workload's set-up in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(common.HERE / "probe.py")] + workload.setup_args(),
        capture_output=True, text=True, cwd=common.ROOT, env=common.child_env(),
        timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def parse_importtime(text):
    """(total, third-party) cumulative seconds of `import dualcurl`.

    Third-party time is the cumulative time of every module imported
    directly by a dualcurl module that is not itself part of dualcurl
    (numpy from basis1d, scipy.linalg from galerkin).
    """
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)))
    total = deps = 0.0
    for i, (cum, depth, name) in enumerate(rows):
        if name == "dualcurl":
            total = cum
        if name.startswith("dualcurl"):
            continue
        # importtime lists children before their parent
        parent = next((n for _, d, n in rows[i + 1:] if d < depth), "")
        if parent.startswith("dualcurl"):
            deps += cum
    return total, deps


def import_seconds(samples):
    runs = []
    for _ in range(samples):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dualcurl"],
            capture_output=True, text=True, cwd=common.ROOT, env=common.child_env(),
            timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{res.stderr}")
        runs.append(parse_importtime(res.stderr))
    return statistics.median([r[0] for r in runs]), statistics.median([r[1] for r in runs])
