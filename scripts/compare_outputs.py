"""Compare every file the benchmark's CLI stages write, between two checkouts.

    python3 scripts/compare_outputs.py BASE_CHECKOUT [HEAD_CHECKOUT] [--seed 1]
        [--rebaselined GLOB ...]

With each checkout's own code, runs the stage sequences of the small-nets,
wide-transformer and count-baselines workloads (perfbench/workloads.py, full
size, at one workload seed), then generate -> train -> evaluate in realized
and expected demand mode for mc, pmc and zero on a cap-3 spec. On that spec
it also trains, and evaluates in realized mode, a tiny transformer that sets
every train flag, a --leak mlp, a pmc with --smoothing and an lstm whose
options come from a --config file, and evaluates in expected mode a tiny
encoder whose learned position table just holds the longest walk (6 tracks
x cap 3 events) and the decision after it. It also writes that spec's sessions
as sessions.csv and trains and evaluates a pmc from them with --format csv.
Every file written is digested with sha256. Prints the files whose digests
differ or that exist on one side only, and exits 1 if there are any.
HEAD_CHECKOUT defaults to the checkout holding this script. Both checkouts
need perfbench/workloads.py.

--rebaselined names the files a change re-baselines on purpose, as fnmatch
globs on the printed paths (``*`` also matches ``/``): their differences are
allowed. It exits 1 on a difference outside the globs, and on a glob that
matches no difference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fnmatch
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("small-nets", "wide-transformer", "count-baselines")


def _write_sessions_csv(data: Path) -> None:
    """data/sessions.jsonl's sessions as data/sessions.csv: one row per event."""
    with open(data / "sessions.jsonl", encoding="utf-8") as src, \
            open(data / "sessions.csv", "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["session_id", "playlist_id", "pos", "action"])
        for line in src:
            session = json.loads(line)
            writer.writerows([session["session_id"], session["playlist_id"], event["pos"],
                              event["action"]] for event in session["events"])


def _cap3_steps(work: Path, seed: int) -> list[list[str] | Callable[[], None]]:
    """The cap-3 sequence: CLI steps, and the step that writes sessions.csv."""
    from seqbundle.domain import Outcome
    from seqbundle.reports import write_json
    from seqbundle.synthgen import GeneratorSpec, spec_to_json

    spec = GeneratorSpec(
        kind="markov1",
        n_sessions=600,
        seed=3,
        n_tracks=6,
        cap=3,
        transitions={
            Outcome.SKIP: (0.6, 0.4, 0.0),
            Outcome.PLAY: (0.2, 0.5, 0.3),
            Outcome.REPLAY: (0.3, 0.3, 0.4),
        },
    )
    spec_path = write_json(work / "spec.json", spec_to_json(spec))
    data = ["--data", str(work / "data")]
    steps = [["generate", "--spec", str(spec_path), "--out", str(work / "data")]]
    for model in ("mc", "pmc", "zero"):
        run = work / model
        steps.append(["train", *data, "--model", model, "--seed", "0", "--out", str(run)])
        for mode in ("realized", "expected"):
            steps.append(["evaluate", *data, "--run", str(run), "--demand-mode", mode,
                          "--n-rollouts", "200", "--seed", str(seed),
                          "--out", str(run / f"eval-{mode}")])
    # Every train option, by flag and by --config, so that a drifted flag
    # type, action or default changes a written file.
    config_path = write_json(work / "config.json", {
        "epochs": 2, "hidden_dim": 8, "n_layers": 1, "learning_rate": 0.005,
        "include_duration": True, "session_end": "truncate", "train_fraction": 0.75,
    })
    trains = {
        "every-flag": ["--model", "transformer", "--train-fraction", "0.8", "--seed", "2",
                       "--smoothing", "0.5", "--leak", "--include-duration",
                       "--feasibility-mask", "--session-end", "truncate", "--epochs", "2",
                       "--batch-size", "8", "--learning-rate", "0.01",
                       "--validation-fraction", "0.2", "--patience", "1", "--embed-dim", "8",
                       "--n-blocks", "1", "--n-heads", "2", "--head-dim", "4",
                       "--ff-dim", "16", "--hidden-dim", "4", "--n-layers", "1",
                       "--max-positions", "64"],
        "leak-mlp": ["--model", "mlp", "--leak", "--epochs", "2", "--hidden-dim", "8"],
        "pmc-smoothing": ["--model", "pmc", "--smoothing", "0.5"],
        "config-lstm": ["--model", "lstm", "--config", str(config_path)],
    }
    for name, options in trains.items():
        run = work / name
        steps.append(["train", *data, *options, "--out", str(run)])
        steps.append(["evaluate", *data, "--run", str(run), "--seed", str(seed),
                      "--out", str(run / "eval-realized")])
    run = work / "encoder-walk"
    steps.append(["train", *data, "--model", "encoder", "--epochs", "1", "--embed-dim", "8",
                  "--n-heads", "2", "--head-dim", "4", "--ff-dim", "8",
                  "--max-positions", "19", "--out", str(run)])
    steps.append(["evaluate", *data, "--run", str(run), "--demand-mode", "expected",
                  "--n-rollouts", "200", "--seed", str(seed), "--out", str(run / "eval-expected")])
    steps.append(lambda: _write_sessions_csv(work / "data"))
    run = work / "pmc-csv"
    steps.append(["train", *data, "--format", "csv", "--model", "pmc", "--seed", "0",
                  "--out", str(run)])
    steps.append(["evaluate", *data, "--format", "csv", "--run", str(run), "--seed", str(seed),
                  "--out", str(run / "eval-realized")])
    return steps


def worker(tree: Path, out: Path, seed: int) -> dict[str, str]:
    """Run every stage with the code of ``tree`` under ``out``; digest the files."""
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from perfbench.workloads import stages
    from seqbundle import cli

    runs = [(w, [s.argv for s in stages(w, out / w, seed, "full")]) for w in WORKLOADS]
    (out / "cap3").mkdir(parents=True)
    runs.append(("cap3", _cap3_steps(out / "cap3", seed)))
    for name, steps in runs:
        for step in steps:
            if callable(step):
                step()
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(step)
            if rc != 0:
                raise SystemExit(f"{tree}: {name}: {' '.join(step[:1])} exited {rc}")
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def digests(tree: Path, out: Path, seed: int) -> dict[str, str]:
    result = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree), str(out), "--seed", str(seed)],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise SystemExit(f"{tree}: stages failed\n{result.stderr[-4000:]}")
    return json.loads(result.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("head", type=Path, nargs="?", default=HERE)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rebaselined", nargs="*", default=[], metavar="GLOB",
                        help="files whose differences this change intends")
    parser.add_argument("--worker", type=Path, nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(*args.worker, args.seed)))
        return 0
    if args.base is None:
        parser.error("BASE_CHECKOUT is required")
    with tempfile.TemporaryDirectory() as tmp:
        # Both sides write under the same path, so paths recorded in files match.
        work = Path(tmp) / "work"
        base = digests(args.base.resolve(), work, args.seed)
        work.rename(Path(tmp) / "base")
        head = digests(args.head.resolve(), work, args.seed)
    differ = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
    matched = {glob: fnmatch.filter(differ, glob) for glob in args.rebaselined}
    intended = {name for names in matched.values() for name in names}
    for name in differ:
        side = "head only" if name not in base else "base only" if name not in head else "differs"
        print(f"{side:9}  {name}" + ("  (re-baselined)" if name in intended else ""))
    unmatched = [glob for glob, names in matched.items() if not names]
    for glob in unmatched:
        print(f"no difference matches re-baselined glob {glob!r}")
    print(f"{len(base.keys() | head.keys()) - len(differ)} identical, {len(differ)} different, "
          f"{len(intended)} of them re-baselined")
    return 1 if len(intended) < len(differ) or unmatched else 0


if __name__ == "__main__":
    sys.exit(main())
