"""Smoke check of the benchmark harness at tiny sizes.

Run from the root of a seqbundle checkout (about two minutes on two cores):

    python3 perfbench/smoke.py

For every workload it makes two untraced runs and one traced run with
``--scale tiny`` and checks that:

- the result line has exactly the keys correct, attempted, failed and metrics,
  with no failed operation;
- every end-to-end metric of BENCHMARK.json is emitted, with its unit and a
  nonzero value, and every per-layer metric is emitted by the traced run;
- the per-layer metrics of each layer that runs on the workload are nonzero,
  and every neuralkit metric is zero on count-baselines;
- the two untraced runs with the same seed wrote byte-identical outputs;
- in a directory holding only BENCHMARK.json and perfbench/, the harness exits
  nonzero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Per-layer name prefixes whose metrics must be nonzero on each workload.
COMMON = (
    "cli.generate", "cli.train", "cli.evaluate", "synthgen.", "dataio.write", "dataio.load",
    "domain.validate", "artifacts.", "dataio.split", "reports.write", "evalkit.evaluate",
)
NEURAL = ("dataio.features", "neuralkit.", "seqmodels.train", "seqmodels.forward",
          "seqmodels.predict_session")
APPLIES = {
    "small-nets": COMMON + NEURAL + (
        "cli.analyze-attention", "seqmodels.", "evalkit.rollout", "attention.profile",
        "stage.attention_sessions_per_s", "stage.encoder_eval_events_per_s",
        "stage.rollouts_per_s",
    ),
    "wide-transformer": COMMON + NEURAL + ("stage.realized_eval_events_per_s",),
    "count-baselines": COMMON + (
        "cli.summarize", "cli.export-prompts", "baselines.fit", "baselines.predict_session",
        "baselines.next_probs", "evalkit.rollout", "evalkit.summarize",
        "stage.load_sessions_per_s", "stage.realized_eval_events_per_s",
        "stage.rollouts_per_s", "stage.export_prompts_per_s",
    ),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out.returncode, out.stdout.strip().splitlines()


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    results = {}
    for label, trace in (("first", 0), ("second", 0), ("traced", 1)):
        code, lines = run(workload, trace)
        if code != 0 or len(lines) < 2:
            return [f"{workload} {label}: exit code {code}, {len(lines)} lines of output"]
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        results[label] = (result, detail)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload} {label}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{workload} {label}: {result['failed']} of {result['attempted']} "
                            f"operations failed: {detail['failures']}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{workload} {label}: {metric['name']} missing or wrong unit")
        extra = set(result["metrics"]) - {m["name"] for m in wanted}
        if extra:
            problems.append(f"{workload} {label}: metrics not in BENCHMARK.json: {sorted(extra)}")

    for name, value in results["first"][0]["metrics"].items():
        if not value["value"]:
            problems.append(f"{workload}: end-to-end {name} is zero")
    if results["first"][1]["digests"] != results["second"][1]["digests"]:
        problems.append(f"{workload}: output digests differ between two runs with one seed")

    layers = results["traced"][0]["metrics"]
    for name, value in layers.items():
        if name.startswith(APPLIES[workload]) and not value["value"]:
            problems.append(f"{workload}: per-layer {name} is zero")
        if workload == "count-baselines" and name.startswith("neuralkit.") and value["value"]:
            problems.append(f"{workload}: per-layer {name} is {value['value']}, expected 0")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("count-baselines", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit code {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        found = check_workload(workload, spec)
        print(f"{workload}: {'ok' if not found else f'{len(found)} problem(s)'}", flush=True)
        problems += found
    for problem in problems:
        print(f"  {problem}")
    print("smoke check", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
