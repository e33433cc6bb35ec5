"""Benchmark of the collective-mode CLI, end to end and per layer.

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from the seed (see workloads.py).  Every repetition runs
`collective_mode.cli.main` from `src/` in a fresh interpreter with BLAS
pinned to one thread, because CLI users pay the import on every call
and peak RSS is a per-process figure.  Repetitions run one at a time
until the next one would end more than --seconds after the first
import-only child started.

--trace 0 reports the end-to-end metrics (tracing off):
  wall_s       median time of the CLI command inside the child, after import
  setup_s      median time of `import collective_mode.cli` in a fresh
               interpreter, over the import-only children and every repetition
  peak_rss_mb  median ru_maxrss of the children that ran the command
  volterra_err Volterra-vs-exact L-inf relative to the kick scale P0/(m W0)
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead
as traced minus untraced wall_s.

Every repetition passes the output gate or counts as failed: exit code 0
(and `all_passed` for verify), strength-comb frequencies within 1e-8 of
the benchmark's own eigensolve, the sum rule within 1e-12 of hbar/2m, and
output files byte-identical to the first repetition's.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2        # import-only children per run, after one warm-up
CHILD_TIMEOUT_S = 120    # a hung repetition still ends the run within 180 s
# One BLAS thread is faster and steadier on this workload mix; numpy reads
# the cap when it loads, so it goes into each child's environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FREQ_RTOL = 1e-8
SUM_RULE_RTOL = 1e-12

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "volterra_err": "rel",
}

PER_LAYER = {
    "model.validate_model.self_s": "s",
    "model.build.total_s": "s",
    "model.phonon_spectrum.calls": "count",
    "model.phonon_spectrum.total_s": "s",
    "mapping.caldeira_leggett_form.calls": "count",
    "mapping.caldeira_leggett_form.total_s": "s",
    "mapping.interaction_in_phonon_basis.calls": "count",
    "mapping.interaction_in_phonon_basis.self_s": "s",
    "mapping.collective_sector_eigensystem.calls": "count",
    "mapping.collective_sector_eigensystem.total_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.qr.calls": "count",
    "linalg.eigh.n3": "count",
    "linalg.eigvalsh.n3": "count",
    "linalg.qr.n3": "count",
    "linalg.self_s": "s",
    "kernels.volterra_path.self_s": "s",
    "dynamics.solve_volterra.total_s": "s",
    "dynamics.evolve_exact.self_s": "s",
    "dynamics.damping_kernel.self_s": "s",
    "dynamics.reconstruct_full_trajectory.total_s": "s",
    "dynamics.total_energy.self_s": "s",
    "spectra.smoothed_spectrum.self_s": "s",
    "spectra.fdt_spectrum.self_s": "s",
    "spectra.convolution_power_spectrum.self_s": "s",
    "spectra.correlator_S.self_s": "s",
    "verify.run_checks.self_s": "s",
    "cli.write_table.self_s": "s",
    "cli.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def file_digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir()) if p.is_file()}


def changed_files(first, digests):
    return sorted(n for n in first.keys() | digests.keys()
                  if first.get(n) != digests.get(n))


def check_outputs(inputs, oracle, rc):
    """Gate one repetition's outputs; return (problems, volterra_err)."""
    if rc != 0:
        return [f"exit code {rc}"], None
    out = inputs.output
    problems = []
    try:
        if inputs.command == "verify":
            report = json.loads((out / "verification.json").read_text())
            checks = {c["name"]: c for c in report["checks"]}
            if not report["all_passed"]:
                failed = [n for n, c in checks.items() if not c["passed"]]
                problems.append(f"verify failed: {', '.join(failed)}")
            return problems, checks["dynamics.volterra_vs_exact"]["measured"]

        summary = json.loads((out / "summary.json").read_text())
        freqs = np.loadtxt(out / "strengths.csv", delimiter=",", skiprows=1,
                           ndmin=2)[:, 0]
        if freqs.shape != oracle.shape:
            problems.append(f"{freqs.size} strength lines, oracle has {oracle.size}")
        else:
            dev = float(np.abs(freqs - oracle).max() / oracle.max())
            if not dev <= FREQ_RTOL:
                problems.append(f"strength frequencies off the oracle by {dev:.3e}")
        rules = summary["sum_rules"]
        ref = rules["hbar_over_2m"]
        dev = abs(rules["strength_weight_times_freq"] - ref) / abs(ref)
        if not dev <= SUM_RULE_RTOL:
            problems.append(f"sum rule off by {dev:.3e}")
        kick_scale = workloads.P0 / (workloads.MASS * summary["omega0_sq"] ** 0.5)
        err = summary["cross_route_error"]["volterra_vs_exact_linf"] / kick_scale
        return problems, err
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable output: {exc!r}"], None


def child_env(root):
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args, root, env):
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def layer_metrics(table, output_bytes):
    """Per-layer metrics of one traced repetition (trace.* filled later)."""
    out = {}
    for name in PER_LAYER:
        if name == "model.build.total_s":
            value = sum(row["total_s"] for span, row in table.items()
                        if span.startswith("model.build_"))
        elif name == "linalg.self_s":
            value = sum(row["self_s"] for span, row in table.items()
                        if span.startswith("linalg."))
        elif name == "cli.output_bytes":
            value = output_bytes
        elif name.startswith("trace."):
            continue
        else:
            span, field = name.rsplit(".", 1)
            value = table.get(span, {}).get(field, 0.0 if field.endswith("_s") else 0)
        out[name] = value
    return out


def run_workload(workload, seed, seconds, trace, root):
    spec = workloads.SPECS[workload]
    work = root / ".perfbench_run" / workload
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.make_inputs(spec, seed, work)
    oracle = workloads.antisymmetric_frequencies(inputs.w_matrix, inputs.k_matrix)

    env = child_env(root)
    deadline = time.perf_counter() + seconds
    import_samples = []
    host = None
    for i in range(SETUP_SAMPLES + 1):
        rec = run_child(["--import-only"], root, env)
        if rec is None:
            raise RuntimeError("collective_mode.cli does not import")
        host = rec["host"]
        if i > 0:  # the first import also writes the bytecode caches
            import_samples.append(rec["import_s"])
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {workload} seed {seed}: {' '.join(inputs.argv())}")

    reps = []
    output_bytes = 0
    first_digests = None
    while True:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(inputs.output, ignore_errors=True)
        spans_path = work / f"spans-{len(reps)}.json"
        args = (["--trace", str(spans_path)] if traced else []) + ["--"] + inputs.argv()
        start = time.perf_counter()
        rec = run_child(args, root, env)
        elapsed = time.perf_counter() - start
        if rec is None:
            problems, err = ["child crashed"], None
        else:
            problems, err = check_outputs(inputs, oracle, rec["rc"])
            import_samples.append(rec["import_s"])
        if rec is not None and not problems:
            digests = file_digests(inputs.output)
            if first_digests is None:
                first_digests = digests
                output_bytes = sum((inputs.output / n).stat().st_size for n in digests)
            elif changed := changed_files(first_digests, digests):
                problems.append(f"output differs from the first repetition: {changed}")
        rep = {"traced": traced, "elapsed": elapsed, "problems": problems,
               "record": rec, "volterra_err": err}
        if traced and rec is not None:
            spans = json.loads(spans_path.read_text())["spans"]
            rep["table"] = tracer.layer_table(spans)
        reps.append(rep)
        wall = "-" if rec is None else f"{rec['wall_s']:.4f} cpu_s={rec['cpu_s']:.4f}"
        print(f"rep {len(reps)} {'traced' if traced else 'untraced'} wall_s={wall} "
              f"{'FAIL ' + '; '.join(problems) if problems else 'ok'}")
        enough = len(reps) >= (2 if trace else 1)
        typical = statistics.median(r["elapsed"] for r in reps)
        if enough and time.perf_counter() + typical > deadline:
            break

    failed = sum(1 for r in reps if r["problems"])
    good = [r for r in reps if not r["problems"]] or [r for r in reps if r["record"]]
    if not good:
        raise RuntimeError("no repetition produced a record")
    print(f"failed_frac = {failed}/{len(reps)} = {failed / len(reps):.4g}")

    def median_of(rows, key):
        return statistics.median(r["record"][key] for r in rows)

    if not trace:
        errs = [r["volterra_err"] for r in good if r["volterra_err"] is not None]
        if not errs:
            raise RuntimeError("no repetition reported the Volterra error")
        metrics = {
            "wall_s": median_of(good, "wall_s"),
            "setup_s": statistics.median(import_samples),
            "peak_rss_mb": median_of(good, "maxrss_mb"),
            "volterra_err": errs[0],
        }
        units = END_TO_END
        print(f"wall_s over {len(good)} repetitions, setup_s over "
              f"{len(import_samples)} imports")
    else:
        traced_reps = [r for r in good if r["traced"]]
        plain_reps = [r for r in good if not r["traced"]]
        if not traced_reps or not plain_reps:
            raise RuntimeError("need one traced and one untraced repetition")
        per_rep = [layer_metrics(r["table"], output_bytes) for r in traced_reps]
        # counts repeat exactly, so take a sample rather than a mean of two
        metrics = {name: (statistics.median if PER_LAYER[name] == "s"
                          else statistics.median_low)(m[name] for m in per_rep)
                   for name in per_rep[0]}
        metrics["trace.wall_s"] = median_of(traced_reps, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median_of(plain_reps, "wall_s")
        units = PER_LAYER
        table = traced_reps[0]["table"]
        print(f"span table of the first traced repetition ({len(table)} spans):")
        for span in sorted(table, key=lambda s: -table[s]["total_s"]):
            row = table[span]
            print(f"  {span:45s} calls={row['calls']:5d} total_s={row['total_s']:.4f} "
                  f"self_s={row['self_s']:.4f}" + (f" n3={row['n3']}" if row["n3"] else ""))
        print(f"traced {len(traced_reps)}, untraced {len(plain_reps)} repetitions")

    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "collective_mode" / "cli.py").is_file():
        print(f"no collective_mode sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
