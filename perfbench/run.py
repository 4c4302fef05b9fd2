"""pushopt benchmark driver.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of ``BENCHMARK.json`` or ``all``.  Every measured
run is a fresh Python process (``perfbench/child.py``), launched one at a
time, which sets up the workload (import, config, network, costs) and then
makes one ``pushopt reproduce`` call.  The library is loaded from ``src/``
of the checkout the driver sits in; nothing is installed.

Each run is one instance of the workload: its scenario at the default
scenario seed, with the communication network drawn from ``net_seed``, one
of the INSTANCES draws recorded in ``perfbench/reference.json``.  With
``--trace 0`` the driver runs instances N, N+1, ... modulo INSTANCES
(``S // run_s`` of them, at least one) and reports the medians of
``wall_s`` (the reproduce call), ``setup_s`` and ``peak_rss_mb`` (the
child's ru_maxrss).  With
``--trace 1`` it makes one untraced run and then one traced run of instance
N, in which ``perfbench/layers.py`` wraps every public function of the
library's layers, reports the per-layer metrics, and keeps the spans and
call statistics in ``.perfbench_out/NAME-seedN.trace.json``.

Every run is checked: exit code 0, every ``report.json`` assertion passed,
every manifest file present and non-empty, and the key results equal to the
values in ``perfbench/reference.json`` (recorded from the library at the
commit that added this benchmark, for the instances listed there) within
the workload's tolerances.  A run that fails any check counts as failed; no
run is dropped or retried, and a run left out because the measurement would
pass its time limit counts as attempted and failed.  ``correct`` is false
when an output is wrong or missing.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
WORKLOADS_PATH = HERE / "workloads.json"
REFERENCE_PATH = HERE / "reference.json"

# a measurement must end well inside the driver's own 180 s limit
CHILD_LIMIT_S = 150.0
# network draws recorded in reference.json; instance numbers wrap round them
INSTANCES = 40


def load_workloads():
    """Workloads in ``BENCHMARK.json`` order, each with its ``workloads.json`` spec."""
    specs = json.loads(WORKLOADS_PATH.read_text())
    listed = json.loads(BENCHMARK_PATH.read_text())["workloads"]
    return {w["name"]: {**w, **specs[w["name"]]} for w in listed}


def load_reference():
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


# --- output check ----------------------------------------------------------

def key_results(figure, report, out_dir):
    """The values each workload compares against its reference."""
    c = report["constants"]
    if figure == "fig1":
        return {"alpha_pd": c["alpha_pd"], "final_sum_z_err": c["final_sum_z_err"]}
    if figure == "fig5":
        with open(Path(out_dir) / "fp_sweep.csv", newline="") as fh:
            errors = [float(row["fp_to_opt_err"]) for row in csv.DictReader(fh)]
        return {"fp_sweep_err": errors, "fixed_point_residual": c["fixed_point_residual"]}
    if figure == "fig4":
        return {"plateaus": c["plateaus"]}
    raise ValueError(f"no key results defined for {figure}")


def digests(report, out_dir):
    out = {}
    for name in report["manifest"]:
        out[name] = hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
    return out


def _differs(value, ref, kind, tol):
    if isinstance(ref, dict):
        return (not isinstance(value, dict) or value.keys() != ref.keys()
                or any(_differs(value[k], ref[k], kind, tol) for k in ref))
    if isinstance(ref, list):
        return (not isinstance(value, list) or len(value) != len(ref)
                or any(_differs(v, r, kind, tol) for v, r in zip(value, ref)))
    if kind == "exact":
        return value != ref
    if kind == "abs":
        return not abs(value - ref) <= tol
    return not abs(value - ref) <= tol * abs(ref)


def check_files(code, out_dir):
    """Check a run's exit code and files; returns (problems, report or None).

    Each problem is ``(kind, message)``.  Kind ``output`` means the outputs
    are incomplete: report or manifest file missing or empty; the report is
    None then.  Kind ``exit`` is a non-zero exit code and kind ``assertion``
    a failed inline scenario assertion; with those the outputs can still
    equal the reference, as on seeds where a scenario's own assertion fails
    at the reference commit too.
    """
    problems = []
    if code != 0:
        problems.append(("exit", f"exit code {code}"))
    report_path = Path(out_dir) / "report.json"
    if not report_path.exists():
        return problems + [("output", "report.json missing")], None
    report = json.loads(report_path.read_text())
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    if failed:
        problems.append(("assertion", f"assertions failed: {failed}"))
    missing = [name for name in report["manifest"]
               if not (Path(out_dir) / name).exists()
               or (Path(out_dir) / name).stat().st_size == 0]
    if missing:
        return problems + [("output", f"manifest files missing or empty: {missing}")], None
    return problems, report


def check_run(workload, instance, code, out_dir, reference):
    """Check one run; returns (problems, artifacts matching the reference digests).

    The problems are those of ``check_files`` and, as kind ``output``, a key
    result off its reference or no reference recorded for the instance.
    """
    problems, report = check_files(code, out_dir)
    if report is None:
        return problems, 0
    ref = reference.get("workloads", {}).get(workload["name"], {}).get(str(instance))
    if ref is None:
        return problems + [("output", f"no reference recorded for instance {instance}")], 0
    values = key_results(workload["figure"], report, out_dir)
    for key, (kind, tol) in workload["reference_tolerances"].items():
        if _differs(values[key], ref["values"][key], kind, tol):
            problems.append(("output", f"{key} {values[key]!r} differs from reference "
                                       f"{ref['values'][key]!r} ({kind} {tol:g})"))
    got = digests(report, out_dir)
    matching = sum(got.get(name) == sha for name, sha in ref["digests"].items())
    return problems, matching


# --- machine record --------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record():
    """Host facts; the child adds numpy and BLAS facts from its own process."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "PUSHOPT_THREADS": os.environ.get("PUSHOPT_THREADS"),
    }


# --- measured runs ---------------------------------------------------------

def child_env():
    env = dict(os.environ)
    # sequential unless the caller asks otherwise: BLAS threads spinning on a
    # small machine make wall times depend on what else it runs
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def instance_config(workload, instance):
    """The ``--config`` keys of one instance of a workload."""
    return {**workload.get("config", {}), "net_seed": instance}


def command_line(workload):
    """The reproduce call a workload's runs make, for the printed summary."""
    spec = {"figure": workload["figure"], "flags": workload["flags"], "out_dir": "DIR"}
    config = json.dumps(instance_config(workload, "INSTANCE"))
    return "pushopt " + " ".join(child.reproduce_argv(spec, "C")) + f", C = {config}"


def run_child(workload, instance, trace, run_dir, index, limit_s):
    """Launch one measured process and wait for it; returns its record."""
    out_dir = run_dir / f"run{index}"
    spec = {
        "figure": workload["figure"],
        "flags": workload["flags"],
        "config": instance_config(workload, instance),
        "out_dir": str(out_dir),
        "trace": bool(trace),
        "result": str(run_dir / f"run{index}.result.json"),
    }
    spec_path = run_dir / f"run{index}.spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / f"run{index}.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=str(ROOT))
        try:
            proc.wait(timeout=limit_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"code": None, "error": f"killed after {limit_s:.0f} s", "out_dir": out_dir}
    result_path = Path(spec["result"])
    if not result_path.exists():
        tail = (run_dir / f"run{index}.log").read_text(errors="replace").strip()[-300:]
        return {"code": proc.returncode, "out_dir": out_dir,
                "error": f"no result written (exit {proc.returncode}): {tail}"}
    result = json.loads(result_path.read_text())
    result["out_dir"] = out_dir
    return result


def instances(workload, seed, seconds, trace):
    """(instance, traced) of every run a measurement makes, in order.

    Untraced, instance ``seed + j`` for j < seconds // run_s (at least one),
    so the work a seed and run length stand for never depends on how fast
    the machine is.  Traced, one untraced and one traced run of ``seed``.
    Instances wrap round the INSTANCES recorded ones, so every run is
    compared with its reference.
    """
    if trace:
        return [(seed % INSTANCES, False), (seed % INSTANCES, True)]
    count = max(1, int(seconds // workload["run_s"]))
    return [((seed + j) % INSTANCES, False) for j in range(count)]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seed, seconds, trace, reference):
    """Measure one workload; returns (summary dict, result line dict)."""
    run_dir = OUT / f"{workload['name']}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    start = time.monotonic()
    runs = []
    try:
        # fills the bytecode caches under src/, which any later run finds warm
        subprocess.run([sys.executable, "-c", "import pushopt.cli"], env=child_env(),
                       cwd=str(ROOT), stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=60)
        for instance, traced in instances(workload, seed, seconds, trace):
            # a run that would pass the time limit is not made, and counts as failed;
            # it keeps the last run's time as the estimate for the next one
            if runs and time.monotonic() - start + runs[-1]["elapsed"] > CHILD_LIMIT_S:
                runs.append({"instance": instance, "traced": traced,
                             "elapsed": runs[-1]["elapsed"],
                             "artifacts_matching": 0,
                             "problems": [("time", f"not run: the measurement would pass "
                                                   f"{CHILD_LIMIT_S:.0f} s")]})
                continue
            runs.append(_one(workload, instance, traced, run_dir, len(runs), start,
                             reference))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [r for r in runs if r["problems"]]
    untraced = [r for r in runs if not r["traced"] and r.get("wall_s") is not None]
    summary = {"workload": workload["name"], "seed": seed, "runs": runs,
               "machine": next((r["machine"] for r in runs if "machine" in r), {})}
    metrics = {}
    if not trace:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            values = [r[name] for r in untraced]
            if values:
                q1, q3 = _quartiles(values)
                summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                 "samples": len(values), "unit": unit}
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        traced = runs[-1]
        if traced["traced"] and traced.get("trace") is not None and untraced:
            # spans and call statistics, kept for reading the trace afterwards
            (OUT / f"{workload['name']}-seed{seed}.trace.json").write_text(
                json.dumps(traced["trace"]))
            metrics = layers.layer_metrics(traced["trace"], traced["artifacts_matching"],
                                           statistics.median(r["wall_s"] for r in untraced))
    wrong = [r for r in runs if any(kind == "output" for kind, _ in r["problems"])]
    line = {"correct": not wrong, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}
    return summary, line


def _one(workload, instance, traced, run_dir, index, start, reference):
    limit = max(10.0, CHILD_LIMIT_S - (time.monotonic() - start))
    began = time.monotonic()
    result = run_child(workload, instance, traced, run_dir, index, limit)
    result["elapsed"] = time.monotonic() - began
    result["traced"] = traced
    result["instance"] = instance
    if "error" in result:
        result["problems"], result["artifacts_matching"] = [("output", result["error"])], 0
    else:
        result["problems"], result["artifacts_matching"] = check_run(
            workload, instance, result["code"], result["out_dir"], reference)
    return result


def _print_summary(summary, workload):
    print(f"{summary['workload']}: {command_line(workload)}")
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        m = summary.get(name)
        if m:
            print(f"{summary['workload']} seed={summary['seed']} {name}: median "
                  f"{m['median']:.4f} {m['unit']} (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, "
                  f"n={m['samples']})")
    for i, r in enumerate(summary["runs"]):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(m for _, m in r["problems"])
        traced = ", traced" if r["traced"] else ""
        timed = (f", wall {r['wall_s']:.3f} s, setup {r['setup_s']:.3f} s"
                 if r.get("wall_s") is not None else "")
        print(f"  run {i} (instance {r['instance']}{traced}{timed}): {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    workloads = load_workloads()
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pushopt" / "__init__.py").is_file():
        print(f"error: no pushopt sources under {SRC}", file=sys.stderr)
        return 2
    machine = machine_record()
    threads = machine["PUSHOPT_THREADS"]
    if threads is not None and threads.strip().isdigit() and int(threads) > machine["nproc"]:
        print(f"error: PUSHOPT_THREADS={threads} exceeds nproc={machine['nproc']}",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(workloads) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        summary, line = measure(workloads[name], args.seed, args.seconds, bool(args.trace), reference)
        machine.update(summary.pop("machine"))
        _print_summary(summary, workloads[name])
        lines[name] = line
    print("machine: " + json.dumps(machine))
    if len(lines) == 1:
        result = lines[names[0]]
    else:
        result = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}.{k}": v for n, l in lines.items() for k, v in l["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
