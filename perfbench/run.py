"""End-to-end benchmark of the CALCioM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-figures --seed 1 \\
        --seconds 10 --trace 0

It builds nothing: the program is the pure-Python package under ``src``.
With ``--trace 0`` it measures set-up time in fresh processes, then runs
the workload untraced for ``--seconds`` and prints every end-to-end metric.
With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics instead (see ``README.md``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  This process imports nothing from the program; the work runs
in ``worker.py`` subprocesses, which are always reaped before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("paper-figures", "many-apps", "flow-flood", "service-replay")

#: Set-up is measured this many times per run (fresh processes), median.
SETUP_SAMPLES = 3
#: Hard limit on one worker process, well inside the 180 s run budget.
WORKER_TIMEOUT_S = 150.0

#: End-to-end metrics: (name, unit).  The times are CPU seconds, a pass's
#: at the yardstick's nominal host speed (``yardstick.py``): on a shared VM
#: steal and the neighbours' load move wall-clock and raw CPU figures by
#: 20-50% from one minute to the next (see README.md).  Both are printed in
#: the report.
END_TO_END = [
    ("setup_s", "s"),
    ("norm_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_core_s_in_io", "core-s"),
]


def fingerprint(rec: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": rec["numpy"]}


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM first, so the worker stops its daemons; SIGKILL if it
    lingers."""
    proc.terminate()
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def run_worker(argv) -> tuple:
    """Run one worker to completion; (start time, its JSON lines)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"worker {argv[:2]} timed out")
    finally:
        if proc.returncode is None:
            stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[:2]} exited {proc.returncode}")
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    return t0, records


def end_to_end(args) -> tuple:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        t0, records = run_worker(["setup", args.workload, str(args.seed)])
        setups.append((t0, records[0]))
    t0, records = run_worker(["run", args.workload, str(args.seed),
                              str(args.seconds), "0"])
    setups.append((t0, records[0]))
    rec = records[-1]
    service = args.workload == "service-replay"
    values = {
        "setup_s": statistics.median(s["setup_cpu_s"] for _, s in setups),
        "norm_cpu_s": rec["norm_cpu_s"],
        "peak_rss_mb": rec["daemon_rss_mb"] if service else rec["rss_mb"],
        "sim_core_s_in_io": rec["sim_core_s_in_io"],
    }
    report(args, rec, values,
           [s["setup_done"] - t0 for t0, s in setups])
    return rec, {name: {"value": values[name], "unit": unit}
                 for name, unit in END_TO_END}


def report(args, rec, values, setup_walls) -> None:
    """Human-readable lines, in the benchmark design's metric names."""
    q = round(100 * rec["tail_q"])
    lat = {"paper-figures": "exp",
           "service-replay": "pipelined"}.get(args.workload, "lat")
    print(f"# host {json.dumps(fingerprint(rec))}")
    print(f"# workload {args.workload} seed {args.seed}: {rec['passes']} "
          f"passes, {rec['lat_samples']} latency samples "
          f"({rec['operation']})")
    print(f"setup_s            {values['setup_s']:.4f} s CPU  (wall "
          f"{statistics.median(setup_walls):.4f} s; samples "
          f"{', '.join(f'{s:.3f}' for s in setup_walls)})")
    print(f"norm_cpu_s         {values['norm_cpu_s']:.4f} s CPU per pass at "
          "nominal host speed")
    print(f"cpu_s              {rec['cpu_s']:.4f} s CPU per pass")
    print(f"wall_s             {rec['wall_s']:.4f} s per pass")
    print(f"{lat}_p50_ms{' ' * (10 - len(lat))}{1e3 * rec['lat_p50_s']:.4f} ms")
    print(f"{lat}_p{q}_ms{' ' * (10 - len(lat))}{1e3 * rec['lat_tail_s']:.4f} ms")
    print(f"{lat}_p99_ms{' ' * (10 - len(lat))}{1e3 * rec['lat_p99_s']:.4f} ms")
    print(f"peak_rss_mb        {values['peak_rss_mb']:.1f} MB")
    print(f"sim_core_s_in_io   {values['sim_core_s_in_io']:.6g} core-s")
    if "open_loop" in rec:
        ol = rec["open_loop"]
        print(f"# open loop at {ol['rate']:.0f} exchanges/s, due time to ack:")
        for name in ("p50", "p90", "p99"):
            print(f"svc_{name}_ms         {1e3 * ol[name + '_s']:.4f} ms")
        print(f"generator          late p99 {1e3 * ol['late_p99_s']:.3f} ms, "
              f"max outstanding {ol['max_outstanding']}, backlog grows: "
              f"{ol['backlog_grows']}")
        print("svc_max_rate       see --trace 1 (service.loadgen.max_rate)")
    print(f"error_rate         {rec['failed'] / max(1, rec['attempted']):.6g}"
          f"  ({rec['failed']} of {rec['attempted']})")


def per_layer(args) -> tuple:
    t0, records = run_worker(["run", args.workload, str(args.seed),
                              str(args.seconds), "1"])
    rec = records[-1]
    from_layers = rec["per_layer"]
    print(f"# host {json.dumps(fingerprint(rec))}")
    print(f"# workload {args.workload} seed {args.seed}: {rec['passes']} "
          "passes (untraced and traced alternating)")
    for kind, s in rec["top_kinds"]:
        print(f"#   {s:10.4f} s  {kind}")
    if args.workload == "service-replay":
        print(f"svc_max_rate       {from_layers['service.loadgen.max_rate']:.0f}"
              " exchanges/s")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer"]}
    return rec, {name: {"value": from_layers[name], "unit": units[name]}
                 for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still reaps its workers (their finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        rec, metrics = (per_layer if args.trace else end_to_end)(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
