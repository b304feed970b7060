"""The benchmark's workloads: CLI stage sequences and the checks on their outputs.

Every workload is a closed loop: one process runs each stage after the
previous one has finished. Datasets use their canonical spec's own seed and
``train`` uses ``--seed 0``; the workload seed is the rollout seed of
expected-mode ``evaluate``. Sizes are a quarter of the first measured sizes
(2000 and 30000 sessions), except wide-transformer, whose 120 sessions
already fit a pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SMALL_TRANSFORMER = [
    "--embed-dim", "32", "--n-blocks", "2", "--n-heads", "2",
    "--head-dim", "16", "--ff-dim", "32", "--max-positions", "64",
]

# Per workload and scale: sessions generated, and rollouts per expected-mode
# evaluate. "tiny" is for the harness smoke check only; wide-transformer keeps
# its 120 sessions there, because its cost is the CLI-default model, and at 40
# or 60 sessions its train stage exits 2 on a negative predicted remaining time.
SIZES = {
    "full": {
        "small-nets": {"sessions": 500, "rollouts_lstm": 25, "rollouts_transformer": 50},
        "wide-transformer": {"sessions": 120},
        "count-baselines": {"sessions": 7500, "rollouts_pmc": 500},
    },
    "tiny": {
        "small-nets": {"sessions": 80, "rollouts_lstm": 3, "rollouts_transformer": 3},
        "wide-transformer": {"sessions": 120},
        "count-baselines": {"sessions": 300, "rollouts_pmc": 20},
    },
}

# Workloads whose speed probe adds small numpy ops to its kernel (see speed.py):
# small-nets spends its time in the autodiff of tiny models, which host
# contention slows more than the plain kernel.
NUMPY_PROBE = {"small-nets"}

BASELINES = ("mc", "pmc", "zero")
TRUNCATION_SAMPLE = 4  # holdout sessions per playlist in the causal spot check


class CheckFailed(Exception):
    """An output of a stage is missing, malformed or not what the inputs imply."""


@dataclass
class Stage:
    command: str
    argv: list[str]
    check: Callable[["PassContext"], dict]
    kind: str = ""  # evaluate stages: "realized", "encoder" or "expected"


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunState:
    """What persists across the passes of one run."""

    digests: dict[str, str] = field(default_factory=dict)
    _datasets: dict[str, object] = field(default_factory=dict)

    def same_as_first_pass(self, key: str, path: Path) -> None:
        digest = sha256(path)
        first = self.digests.setdefault(key, digest)
        if digest != first:
            raise CheckFailed(f"{key}: digest {digest[:12]} differs from the first pass's")

    def dataset(self, data_dir: Path, run_dir: Path | None = None):
        """The dataset as train/evaluate see it: session-end "full", optionally re-split."""
        from seqbundle import artifacts
        from seqbundle.dataio import SessionEndMode, apply_session_end, load_dataset

        key = sha256(data_dir / "sessions.jsonl")
        if key not in self._datasets:
            loaded = load_dataset(data_dir / "sessions.jsonl", data_dir / "playlists.jsonl")
            self._datasets[key] = apply_session_end(loaded, SessionEndMode.FULL)
        dataset = self._datasets[key]
        if run_dir is None:
            return dataset
        split_key = key + sha256(run_dir / "split.json")
        if split_key not in self._datasets:
            self._datasets[split_key] = artifacts.load_split(run_dir / "split.json", dataset)
        return self._datasets[split_key]


@dataclass
class PassContext:
    state: RunState
    data: Path


def _read_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _scored(sessions) -> int:
    return sum(len(s.events) - 1 for s in sessions)


def check_generate(n_sessions: int):
    def check(ctx: PassContext) -> dict:
        path = ctx.data / "sessions.jsonl"
        if not path.is_file():
            raise CheckFailed("sessions.jsonl missing")
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if len(lines) != n_sessions or any(not s["events"] for s in lines):
            raise CheckFailed(f"expected {n_sessions} non-empty sessions, found {len(lines)}")
        ctx.state.same_as_first_pass("generate/sessions.jsonl", path)
        return {"sessions": n_sessions}

    return check


def check_summarize(out: Path):
    def check(ctx: PassContext) -> dict:
        summary = _read_json(out / "summary.json")
        n = sum(p["n_sessions"] for p in summary["playlists"])
        expected = len(ctx.state.dataset(ctx.data).sessions)
        if n != expected:
            raise CheckFailed(f"summary covers {n} sessions, dataset has {expected}")
        return {"sessions": n}

    return check


def check_train(run: Path, model: str, epochs: int):
    def check(ctx: PassContext) -> dict:
        run_obj = _read_json(run / "run.json")
        if run_obj.get("model") != model:
            raise CheckFailed(f"run.json model {run_obj.get('model')!r} != {model!r}")
        dataset = ctx.state.dataset(ctx.data, run)
        for pid in dataset.playlist_ids():
            bundle = run / "models" / pid
            payload = bundle / ("model.json" if model in BASELINES else "weights.bin")
            if not payload.is_file():
                raise CheckFailed(f"{payload.relative_to(run)} missing")
            ctx.state.same_as_first_pass(f"{run.name}/{pid}/{payload.name}", payload)
        if model == "transformer":
            check_causal_truncation(run, dataset)
        return {"train_events": _scored(dataset.train_sessions()) * epochs}

    return check


def check_causal_truncation(run: Path, dataset) -> None:
    """A causal forward on a truncated prefix must equal the full forward's leading rows."""
    import numpy as np

    from seqbundle import artifacts

    for pid in dataset.playlist_ids():
        predictor = artifacts.load_predictor(run / "models" / pid, dataset.playlists[pid])
        sessions = sorted(
            (s for s in dataset.test_sessions(pid) if len(s.events) >= 3),
            key=lambda s: s.session_id,
        )[:TRUNCATION_SAMPLE]
        for session in sessions:
            rows = predictor.pipeline.matrix(session)
            full = predictor.model.forward(rows)[0].data
            for k in sorted({1, len(rows) // 2, len(rows) - 1}):
                prefix = predictor.model.forward(rows[:k])[0].data
                if not np.array_equal(prefix, full[:k]):
                    raise CheckFailed(
                        f"session {session.session_id}: forward on {k} rows differs from "
                        f"the full forward's leading rows"
                    )


def check_evaluate(run: Path, out: Path, mode: str, rollouts: int):
    def check(ctx: PassContext) -> dict:
        report = _read_json(out / "report.json")
        dataset = ctx.state.dataset(ctx.data, run)
        expected = _scored(dataset.test_sessions())
        if report["n_scored"] != expected:
            raise CheckFailed(f"report scores {report['n_scored']} events, holdout has {expected}")
        if not 0 <= report["hits"] <= expected or report["demand_mode"] != mode:
            raise CheckFailed(f"report hits {report['hits']} / mode {report['demand_mode']!r}")
        for name in ("report.json", "demand.csv"):
            ctx.state.same_as_first_pass(f"{run.name}/{out.name}/{name}", out / name)
        n_playlists = len(report["playlists"])
        return {
            "scored": expected,
            "hits": report["hits"],
            "rollouts": rollouts * n_playlists if mode == "expected" else 0,
        }

    return check


def check_attention(run: Path, out: Path):
    def check(ctx: PassContext) -> dict:
        summary = _read_json(out / "attention.json")
        n = summary["n_sessions_profiled"] + summary["n_sessions_skipped_short"]
        expected = len(ctx.state.dataset(ctx.data, run).test_sessions())
        if n != expected or summary["n_sessions_profiled"] < 1:
            raise CheckFailed(f"attention covers {n} sessions, holdout has {expected}")
        return {"sessions": n}

    return check


def check_export(path: Path):
    def check(ctx: PassContext) -> dict:
        with open(path, encoding="utf-8") as fh:
            pairs = [json.loads(line) for line in fh if line.strip()]
        if not pairs or any(set(p) != {"prompt", "completion"} for p in pairs):
            raise CheckFailed(f"{path.name}: no prompt/completion pairs")
        ctx.state.same_as_first_pass(path.name, path)
        return {"prompts": len(pairs)}

    return check


def stages(workload: str, work: Path, seed: int, scale: str) -> list[Stage]:
    """The stage sequence of one pass, writing under ``work``."""
    size = SIZES[scale][workload]
    data = work / "data"
    data_args = ["--data", str(data)]
    out: list[Stage] = []

    def generate(spec: str) -> None:
        argv = ["generate", "--name", spec, "--n-sessions", str(size["sessions"]),
                "--out", str(data)]
        out.append(Stage("generate", argv, check_generate(size["sessions"])))

    def train(model: str, extra: list[str] = ()) -> Path:
        run = work / model
        argv = ["train", *data_args, "--model", model, "--seed", "0", *extra, "--out", str(run)]
        epochs = int(extra[extra.index("--epochs") + 1]) if "--epochs" in extra else 1
        out.append(Stage("train", argv, check_train(run, model, epochs)))
        return run

    def evaluate(run: Path, kind: str, rollouts: int = 0) -> None:
        mode = "expected" if kind == "expected" else "realized"
        target = run / f"eval-{mode}"
        argv = ["evaluate", *data_args, "--run", str(run), "--demand-mode", mode,
                "--out", str(target)]
        if mode == "expected":
            argv += ["--n-rollouts", str(rollouts), "--seed", str(seed)]
        out.append(Stage("evaluate", argv, check_evaluate(run, target, mode, rollouts), kind))

    if workload == "small-nets":
        generate("frequent_pattern")
        lstm = train("lstm", ["--epochs", "1", "--hidden-dim", "32", "--n-layers", "1"])
        transformer = train("transformer", ["--epochs", "1", *SMALL_TRANSFORMER])
        encoder = train("encoder", ["--epochs", "1", *SMALL_TRANSFORMER])
        evaluate(lstm, "expected", size["rollouts_lstm"])
        evaluate(transformer, "expected", size["rollouts_transformer"])
        attention = transformer / "attention"
        out.append(Stage(
            "analyze-attention",
            ["analyze-attention", *data_args, "--run", str(transformer), "--out", str(attention)],
            check_attention(transformer, attention),
        ))
        evaluate(encoder, "encoder")
    elif workload == "wide-transformer":
        generate("frequent_pattern")
        transformer = train("transformer", ["--epochs", "1"])
        evaluate(transformer, "realized")
    elif workload == "count-baselines":
        generate("second_order")
        summary = work / "summary"
        out.append(Stage("summarize", ["summarize", *data_args, "--out", str(summary)],
                         check_summarize(summary)))
        runs = {}
        for model in BASELINES:
            runs[model] = train(model)
            evaluate(runs[model], "realized")
        evaluate(runs["pmc"], "expected", size["rollouts_pmc"])
        prompts = work / "prompts.jsonl"
        out.append(Stage(
            "export-prompts",
            ["export-prompts", *data_args, "--split", "all", "--out", str(prompts)],
            check_export(prompts),
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


WORKLOADS = tuple(SIZES["full"])
