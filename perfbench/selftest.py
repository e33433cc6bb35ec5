"""Fast self-test of the benchmark harness, at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks the self-time arithmetic on
synthetic nested spans, that the tracer wraps public functions only and
nests the linalg calls under package spans, that the output gate passes
a correct toy run and trips on each kind of wrong output, and that
BENCHMARK.json (when present) lists exactly the metrics run.py prints.
Exits 0 when every check passes.
"""

import json
import shutil
import sys
from pathlib import Path

import run
import tracer
import workloads

TOY_RUN = dict(command="run", kind="next_neighbor", n=16, t_max=8.0, steps=800)
TOY_VERIFY = dict(command="verify", kind="general", n=16, t_max=8.0, steps=800)


def check(condition, what):
    if not condition:
        raise AssertionError(what)
    print(f"ok  {what}")


def test_self_time_arithmetic():
    # root [0,100] > a [10,40] > eigh [15,25];  root > b [50,90] > a [60,70]
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["linalg.eigh", 15, 25, 1, 8],
        ["b", 50, 90, 0, None],
        ["a", 60, 70, 3, None],
    ]
    check(tracer.self_times_ns(spans) == [30, 20, 10, 30, 10],
          "self time is duration minus direct-child coverage")
    table = tracer.layer_table(spans)
    a = table["a"]
    check(a["calls"] == 2 and round(a["total_s"] * 1e9) == 40
          and round(a["self_s"] * 1e9) == 30, "per-name calls, total and self add up")
    check(table["linalg.eigh"]["n3"] == 8 and table["root"]["n3"] == 0,
          "n3 is summed for factorisations only")
    metrics = run.layer_metrics(table, output_bytes=5)
    check(round(metrics["linalg.self_s"] * 1e9) == 10 and metrics["cli.output_bytes"] == 5
          and metrics["verify.run_checks.self_s"] == 0.0,
          "layer metrics aggregate linalg and default absent spans to zero")


def run_toy(spec, root, work, traced=False):
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.make_inputs(spec, 7, work)
    spans = work / "spans.json"
    args = (["--trace", str(spans)] if traced else []) + ["--"] + inputs.argv()
    rec = run.run_child(args, root, run.child_env(root))
    return inputs, rec, spans


def test_tracer(root):
    _, rec, spans_path = run_toy(TOY_RUN, root, root / ".perfbench_run" / "selftest-trace",
                                 traced=True)
    spans = json.loads(spans_path.read_text())["spans"]
    names = {s[0] for s in spans}
    check(rec["rc"] == 0 and spans[0][0] == "cli.main" and spans[0][3] == -1,
          "traced toy run succeeds with cli.main as the root span")
    check({"kernels.volterra_path", "mapping.caldeira_leggett_form",
           "cli.write_table", "linalg.eigh", "linalg.qr"} <= names,
          "direct imports, the stepper and linalg entry points are traced")
    check(not any(n.rsplit(".", 1)[1].startswith("_") for n in names),
          "private helpers are not wrapped")
    check(all(0 <= s[3] < i for i, s in enumerate(spans[1:], 1)),
          "every span but the root has an earlier parent")
    check(all(spans[s[3]][0].split(".")[0] != "linalg"
              for s in spans if s[0].startswith("linalg.")),
          "linalg spans nest under package spans")


def test_gate(root):
    work = root / ".perfbench_run" / "selftest-gate"
    inputs, rec, _ = run_toy(TOY_RUN, root, work)
    oracle = workloads.antisymmetric_frequencies(inputs.w_matrix, inputs.k_matrix)
    problems, err = run.check_outputs(inputs, oracle, rec["rc"])
    check(problems == [] and 0 < err < 1e-4, "gate passes a correct toy run")
    check(run.check_outputs(inputs, oracle, 3)[0] != [], "gate trips on a nonzero exit code")

    first = run.file_digests(inputs.output)
    strengths = inputs.output / "strengths.csv"
    good = strengths.read_text()
    header, row, *rest = good.splitlines()
    omega, weight = row.split(",")
    strengths.write_text("\n".join([header, f"{float(omega) * (1 + 1e-6)!r},{weight}",
                                    *rest]) + "\n")
    check(any("oracle" in p for p in run.check_outputs(inputs, oracle, 0)[0]),
          "gate trips on a strength frequency 1e-6 off the oracle")
    check(run.changed_files(first, run.file_digests(inputs.output)) == ["strengths.csv"],
          "digest comparison names the changed file")
    strengths.write_text(good)

    summary_path = inputs.output / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["sum_rules"]["strength_weight_times_freq"] *= 1 + 1e-9
    summary_path.write_text(json.dumps(summary))
    check(any("sum rule" in p for p in run.check_outputs(inputs, oracle, 0)[0]),
          "gate trips on a sum rule 1e-9 off")

    work = root / ".perfbench_run" / "selftest-verify"
    inputs, rec, _ = run_toy(TOY_VERIFY, root, work)
    problems, err = run.check_outputs(inputs, None, rec["rc"])
    check(rec["rc"] == 0 and problems == [] and err > 0,
          "gate passes a toy verify on a disordered general model")
    report_path = inputs.output / "verification.json"
    report = json.loads(report_path.read_text())
    report["all_passed"] = False
    report["checks"][0]["passed"] = False
    report_path.write_text(json.dumps(report))
    check(run.check_outputs(inputs, None, 0)[0] != [], "gate trips on all_passed false")


def test_benchmark_json(root):
    path = root / "BENCHMARK.json"
    if not path.exists():
        print("skip BENCHMARK.json not found")
        return
    bench = json.loads(path.read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END and layers == run.PER_LAYER,
          "BENCHMARK.json lists exactly the metrics run.py prints")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.SPECS),
          "BENCHMARK.json lists exactly the workloads run.py runs")


def main():
    root = Path.cwd()
    test_self_time_arithmetic()
    test_tracer(root)
    test_gate(root)
    test_benchmark_json(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
