"""One measured process: set up, then run one ``pushopt reproduce`` call.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``figure``, ``flags`` (reproduce flags as a mapping), ``config``
(keys passed through ``--config``, may be empty), ``out_dir``, ``trace``
and ``result``.  The set-up time covers importing pushopt, resolving the
workload's config and building its network and cost ensemble; the
reproduce call is timed after that, in the same process.  With ``trace``
set, the layer wrappers are installed between the two, so the set-up is
never traced.  The timings and the process's peak resident set size go to
the ``result`` file.
"""

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

SCENARIOS = {
    "fig1": "fig1_hybrid",
    "fig2": "fig2_contraction",
    "fig3": "fig3_case1",
    "fig4": "fig4_case1_sweep",
    "fig5": "fig5_case2",
    "fig6": "fig6_case2_sweep",
}


def reproduce_argv(spec, config_path):
    argv = ["reproduce", spec["figure"], "--out-dir", spec["out_dir"]]
    for key, value in spec["flags"].items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    return argv


def blas_info():
    """numpy version, BLAS library and the thread count BLAS will use."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    config_path = None
    if spec["config"]:
        config_path = Path(spec["out_dir"]).with_suffix(".config.json")
        config_path.write_text(json.dumps(spec["config"]))

    start = time.perf_counter()
    import pushopt.cli
    from pushopt import harness

    payload = {"scenario": SCENARIOS[spec["figure"]], **spec["config"], **spec["flags"]}
    cfg = harness.resolve_config(payload)
    net = harness.build_network(cfg)
    ensemble = harness.build_ensemble(cfg)
    setup_s = time.perf_counter() - start
    del net, ensemble

    recorder = None
    if spec["trace"]:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    argv = reproduce_argv(spec, config_path)
    start = time.perf_counter()
    code = pushopt.cli.cli_main(argv)
    wall_s = time.perf_counter() - start

    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"code": code, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "machine": blas_info(),
              "trace": recorder.to_dict() if recorder else None}
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
