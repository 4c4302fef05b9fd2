"""Record the reference results the benchmark checks its runs against.

Usage: python3 perfbench/record_reference.py [INSTANCE ...]

Runs every workload once per instance (its ``net_seed``; by default every
one of the ``run.INSTANCES`` the benchmark uses), through the same child
process the benchmark measures, and stores each run's key results and the
sha256 of each manifest file in ``perfbench/reference.json``, merged into
what is there.  Runs whose scenario assertion fails are recorded too: their
outputs are still the reference for that instance.  Run this only at a
commit whose results are meant to be the reference.
"""

import json
import shutil
import sys

import run


def record_one(workload, instance):
    """The reference entry of one instance of a workload, from a fresh run."""
    run_dir = run.OUT / f"reference-{workload['name']}-instance{instance}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result = run.run_child(workload, instance, False, run_dir, 0, run.CHILD_LIMIT_S)
        problems, report = [], None
        if "error" not in result:
            problems, report = run.check_files(result["code"], result["out_dir"])
        if report is None:
            raise RuntimeError(f"{workload['name']} instance {instance}: no usable "
                               f"outputs: {result.get('error') or problems}")
        entry = {"values": run.key_results(workload["figure"], report, result["out_dir"]),
                 "digests": run.digests(report, result["out_dir"])}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{workload['name']} instance {instance}: wall {result['wall_s']:.3f} s, "
          f"{[m for _, m in problems] or 'ok'}", flush=True)
    return entry


def record(instances):
    reference = run.load_reference()
    reference.setdefault("workloads", {})
    for name, workload in run.load_workloads().items():
        for instance in instances:
            reference["workloads"].setdefault(name, {})[str(instance)] = record_one(
                workload, instance)
    for name, runs in reference["workloads"].items():
        reference["workloads"][name] = dict(sorted(runs.items(), key=lambda kv: int(kv[0])))
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    record([int(arg) for arg in sys.argv[1:]] or range(run.INSTANCES))
