"""seqbundle benchmark: CLI-stage throughput on pinned workloads.

Run from the root of a seqbundle checkout:

    python3 perfbench/run.py --workload small-nets --seed 1 --seconds 32 --trace 0

The process pins BLAS/OpenMP threads to 1, then drives the real CLI in-process
through ``seqbundle.cli.main([...])`` and times each stage call. It repeats
the workload's pass of stages for about ``--seconds`` and pools the passes.
Times are corrected for the host's changing CPU speed: a probe (speed.py)
samples a fixed kernel while each stage runs, and the end-to-end times are
in reference seconds, the wall time the stage would take at a fixed speed of
that kernel. Raw wall times are in the detail line.
Every stage's outputs are checked; a nonzero exit code or a failed check is a
failed operation.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics: the
traced passes wrap seqbundle's public functions (see tracing.py), and the
untraced ones give the tracing overhead and the per-stage rates.

The last line of stdout is the result object; the line before it holds the
environment and the detail. Full records and the span file go to
``.bench_out/`` in the checkout; stage outputs live in ``.bench_work/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# None of these modules imports numpy or seqbundle at import time, so the thread
# variables can still be pinned in main() before either is loaded.
from speed import REFERENCE_KERNEL_S, SpeedProbe
from tracing import Instrumentation, Tracer, layer_table
from workloads import NUMPY_PROBE, WORKLOADS, CheckFailed, PassContext, RunState, stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 7

# One set-up as a user of the CLI pays it: interpreter start, import of the
# CLI and everything it imports, and a work directory. Before and after it the
# child times the speed probe's kernel and prints those timings and the
# probe's time.
SETUP_SNIPPET = """
import json, pathlib, shutil, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speed
kernels = speed.kernel_seconds(10)
t1 = time.perf_counter()
import seqbundle.cli
work = pathlib.Path(sys.argv[3])
work.mkdir(parents=True)
shutil.rmtree(work)
t2 = time.perf_counter()
kernels += speed.kernel_seconds(10)
print(json.dumps({"probe_s": t1 - t0 + time.perf_counter() - t2, "kernels": kernels}))
"""

# Rates: (count key, stage filter). See pooled_rates.
RATES = {
    "generate_sessions_per_s": ("sessions", lambda s: s["command"] == "generate"),
    "train_events_per_s": ("train_events", lambda s: s["command"] == "train"),
    "eval_events_per_s": ("scored", lambda s: s["command"] == "evaluate"),
    "load_sessions_per_s": ("sessions", lambda s: s["command"] == "summarize"),
    "realized_eval_events_per_s": ("scored", lambda s: s["kind"] == "realized"),
    "encoder_eval_events_per_s": ("scored", lambda s: s["kind"] == "encoder"),
    "rollouts_per_s": ("rollouts", lambda s: s["kind"] == "expected"),
    "attention_sessions_per_s": ("sessions", lambda s: s["command"] == "analyze-attention"),
    "export_prompts_per_s": ("prompts", lambda s: s["command"] == "export-prompts"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the harness smoke check only")
    return parser.parse_args(argv)


def measure_setup(src: Path, work: Path) -> tuple[list[float], list[float]]:
    """Wall seconds of each set-up, and the same less the probe at the reference speed."""
    walls, references = [], []
    for k in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET, str(src), str(HERE), str(work / f"setup{k}")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        # communicate() without a timeout blocks in the read and waitpid; with one it polls.
        out, _ = child.communicate()
        wall = time.perf_counter() - start
        if child.returncode != 0:
            raise RuntimeError(f"set-up child exited with code {child.returncode}")
        probe = json.loads(out)
        walls.append(wall)
        references.append((wall - probe["probe_s"]) * REFERENCE_KERNEL_S
                          / statistics.median(probe["kernels"]))
    return walls, references


def environment(seed: int) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": len(os.listdir("/proc/self/task")),
        "workload_seed": seed,
    }


def pooled_rates(passes: list[dict]) -> dict:
    """Rates over all stages of the given passes: summed counts over summed seconds.

    Summing rather than taking a median of per-pass rates uses every measured
    second, which matters for stages of a few tens of milliseconds.
    """
    stages = [s for p in passes for s in p["stages"]]
    out = {"pass_s": sum(s["seconds"] for s in stages) / len(passes)}
    for name, (key, select) in RATES.items():
        chosen = [s for s in stages if select(s)]
        seconds = sum(s["seconds"] for s in chosen)
        out[name] = sum(s["counts"].get(key, 0) for s in chosen) / seconds if chosen else None
    evals = [s for s in stages if s["command"] == "evaluate"]
    scored = sum(s["counts"].get("scored", 0) for s in evals)
    out["hit_rate"] = sum(s["counts"].get("hits", 0) for s in evals) / scored if scored else None
    return out


class Bench:
    def __init__(self, args, work: Path) -> None:
        from seqbundle import cli

        self.args = args
        self.work = work
        self.cli = cli
        self.state = RunState()
        self.tracer = Tracer()
        self.instrumentation = Instrumentation(self.tracer)
        self.log_path = work / "stages.log"

    def run_stage(self, stage, ctx) -> dict:
        # seconds: at the reference CPU speed (see speed.py) in untraced passes, and
        # wall seconds in traced ones, whose spans the probe would distort.
        record = {"command": stage.command, "kind": stage.kind, "seconds": 0.0, "wall_s": 0.0,
                  "ok": False, "counts": {}, "error": None}
        gc.collect()
        with open(self.log_path, "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            print(f"$ seqbundle {' '.join(stage.argv)}", flush=True)
            span = None
            probe = SpeedProbe(numpy_ops=self.args.workload in NUMPY_PROBE)
            if self.tracer.run_id:
                self.tracer.enabled = True
                span = self.tracer.open(f"cli.{stage.command}")
            else:
                probe.start()
            start = time.perf_counter()
            try:
                rc = self.cli.main(stage.argv)
            except Exception:
                rc = None
                record["error"] = traceback.format_exc(limit=4)
            finally:
                record["wall_s"] = time.perf_counter() - start
                probe.stop()
            if span is not None:
                self.tracer.close(span)
                self.tracer.enabled = False
                record["seconds"] = record["wall_s"]
            else:
                record["seconds"] = probe.reference_seconds(record["wall_s"])
                record["speed"] = record["seconds"] / record["wall_s"]
                record["probe_samples"] = len(probe.kernels)
        if rc != 0:
            record["error"] = record["error"] or f"exit code {rc}: {self._log_tail()}"
            return record
        try:
            record["counts"] = stage.check(ctx)
            record["ok"] = True
        except CheckFailed as exc:
            record["error"] = f"check failed: {exc}"
        except Exception:
            record["error"] = "check raised: " + traceback.format_exc(limit=4)
        return record

    def _log_tail(self) -> str:
        lines = self.log_path.read_text(encoding="utf-8").strip().splitlines()
        return " | ".join(lines[-3:])

    def run_pass(self, index: int, traced: bool) -> dict:
        pass_dir = self.work / f"pass{index}"
        ctx = PassContext(self.state, pass_dir / "data")
        first_span = len(self.tracer.spans)
        if traced:
            self.tracer.run_id = f"{self.args.workload}-seed{self.args.seed}-pass{index}"
            self.instrumentation.install()
        try:
            records = [self.run_stage(stage, ctx) for stage in
                       stages(self.args.workload, pass_dir, self.args.seed, self.args.scale)]
        finally:
            if traced:
                self.instrumentation.remove()
                self.tracer.run_id = ""
        shutil.rmtree(pass_dir, ignore_errors=True)
        result = {"index": index, "traced": traced, "stages": records}
        result["wall_s"] = sum(s["wall_s"] for s in records)
        result["seconds"] = sum(s["seconds"] for s in records)
        if traced:
            table = layer_table(self.tracer.spans[first_span:])
            table["baselines.fallback_warnings"] = self.instrumentation.warnings.count
            result["layers"] = table
        return result


def per_layer_metrics(passes: list[dict], names: list[str]) -> tuple[dict, dict, bool]:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = {}
    keys = set().union(*(p["layers"] for p in traced))
    for key in keys:
        values[key] = statistics.median(p["layers"].get(key, 0.0) for p in traced)
    rates = pooled_rates(untraced)
    # Wall seconds on both sides: traced passes run without the speed probe.
    wall_t = statistics.mean(p["wall_s"] for p in traced)
    wall_u = statistics.mean(p["wall_s"] for p in untraced)
    values["trace.overhead_s"] = wall_t - wall_u
    values["trace.overhead_share"] = (wall_t - wall_u) / wall_u
    for rate in RATES:
        values[f"stage.{rate}"] = rates[rate] or 0.0
    # Everything but a time is a count, which must repeat exactly from pass to pass.
    counters = {k: v for k, v in sorted(traced[0]["layers"].items())
                if not k.endswith((".s", ".self_s"))}
    repeat = all(
        {k: v for k, v in p["layers"].items() if k in counters} == counters for p in traced[1:]
    )
    return {name: values.get(name, 0.0) for name in names}, counters, repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported anywhere in this process
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "seqbundle" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a seqbundle checkout (needs src/seqbundle and "
              f"BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".bench_work" / tag
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    log_handler = logging.FileHandler(work / "stages.log", encoding="utf-8")
    logging.getLogger().addHandler(log_handler)
    logging.getLogger().setLevel(logging.WARNING)
    try:
        setup_wall, setup = measure_setup(src, work)
        import seqbundle

        if Path(seqbundle.__file__).resolve().parent != (src / "seqbundle").resolve():
            raise RuntimeError(f"imported seqbundle from {seqbundle.__file__}, not {src}")
        bench = Bench(args, work)
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(bench.run_pass(len(passes), traced))
            elapsed = time.perf_counter() - start
            # Stop unless one more pass would end within half a mean pass of --seconds.
            if elapsed + elapsed / len(passes) / 2 >= args.seconds and (
                    not args.trace or len(passes) >= 2):
                break
        measured_s = time.perf_counter() - start
    finally:
        logging.getLogger().removeHandler(log_handler)
        log_handler.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(len(p["stages"]) for p in passes)
    failures = [f"pass {p['index']} {s['command']}: {s['error']}"
                for p in passes for s in p["stages"] if not s["ok"]]
    untraced = [p for p in passes if not p["traced"]]
    summary = pooled_rates(untraced)
    detail = {
        "environment": environment(args.seed),
        "workload": args.workload,
        "scale": args.scale,
        "seconds_measured": measured_s,
        "setup_wall_s": setup_wall,
        "setup_reference_s": setup,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_reference_s": [p["seconds"] for p in passes if not p["traced"]],
        "stage_rates": summary,
        "digests": bench.state.digests,
        "failures": failures,
    }
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values, counters, repeat = per_layer_metrics(passes, wanted)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        detail["counters"] = counters
        detail["counters_repeat"] = repeat
        bench.tracer.write(out_dir / f"{tag}.spans.jsonl")
    else:
        values = dict(summary)
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": float(values.get(name) or 0.0), "unit": unit}
               for name, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"detail": detail, "result": result, "passes": passes}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
