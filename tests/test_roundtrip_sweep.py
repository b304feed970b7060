"""Round-trip sweep: every command runs on seeded random valid generator specs.

Each drawn spec goes through generate, summarize, export-prompts, train of
every model family at tiny sizes (given by flags or by a --config file)
under both session-end modes, realized and expected evaluate, and
analyze-attention for the transformer. A command must exit 0, or exit 2
with an ``error:`` line; an exception escaping the CLI fails the test with
its traceback.
"""

import numpy as np
import pytest

from seqbundle import cli
from seqbundle.dataio import SessionEndMode
from seqbundle.domain import OUTCOME_INDEX, OUTCOME_ORDER, Outcome, feasible_cells
from seqbundle.reports import write_json
from seqbundle.synthgen import GENERATOR_KINDS, GeneratorSpec, spec_to_json

SWEEP_SEED = 20250125
SPECS_PER_KIND = 4
TINY = {
    "epochs": 1, "batch_size": 8, "embed_dim": 4, "n_blocks": 1, "n_heads": 1,
    "head_dim": 4, "ff_dim": 4, "hidden_dim": 4, "n_layers": 1, "max_positions": 64,
}


def _row(rng, prev: Outcome, cap: int) -> tuple[float, float, float]:
    """A row after ``prev``: Dirichlet or, one time in five, one outcome;
    no replay mass where ``cap`` makes a replay after ``prev`` impossible."""
    replay_ok = feasible_cells(cap)[OUTCOME_INDEX[prev], OUTCOME_INDEX[Outcome.REPLAY]]
    n = 3 if replay_ok else 2
    if rng.random() < 0.2:
        mass = np.eye(3)[rng.integers(n)]
    else:
        mass = np.append(rng.dirichlet(np.ones(n)), [0.0] * (3 - n))
    return tuple(float(v) for v in mass / mass.sum())


def _draw_spec(kind: str, index: int) -> GeneratorSpec:
    rng = np.random.default_rng([SWEEP_SEED, GENERATOR_KINDS.index(kind), index])
    cap = int(rng.integers(1, 5))
    n_tracks = int(rng.integers(1, 7))
    if kind == "markov1":
        transitions = {prev: _row(rng, prev, cap) for prev in OUTCOME_ORDER}
    elif kind == "markov_pos":
        transitions = {
            pos: {prev: _row(rng, prev, cap) for prev in OUTCOME_ORDER}
            for pos in range(2, int(rng.integers(3, 7)))
        }
    else:
        cells = feasible_cells(cap)
        contexts = [(None, Outcome.SKIP), (None, Outcome.PLAY)] + [
            (a, b) for a in OUTCOME_ORDER for b in OUTCOME_ORDER
            if cells[OUTCOME_INDEX[a], OUTCOME_INDEX[b]]
        ]
        transitions = {key: _row(rng, key[1], cap) for key in contexts}
    return GeneratorSpec(
        kind=kind,
        n_sessions=int(rng.integers(2, 41)),
        seed=int(rng.integers(2**32)),
        transitions=transitions,
        n_tracks=n_tracks,
        cap=cap,
        initial_play_prob=float(rng.choice([0.0, 1.0, rng.random()])),
    )


def _run(capsys, argv: list[str]) -> int:
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 0 or rc == 2 and "error: " in err, (argv, rc, err)
    return rc


@pytest.mark.parametrize("kind,index", [
    (kind, index) for kind in GENERATOR_KINDS for index in range(SPECS_PER_KIND)
])
def test_every_command_round_trips(tmp_path, capsys, kind, index):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(_draw_spec(kind, index)))
    data = tmp_path / "data"
    # odd specs take the tiny sizes from a --config file, even ones by flag
    if index % 2:
        tiny = ["--config", str(write_json(tmp_path / "config.json", TINY))]
    else:
        tiny = [arg for key, value in TINY.items() for arg in (cli._flag(key), str(value))]
    assert _run(capsys, ["generate", "--spec", str(spec_path), "--out", str(data)]) == 0
    for mode in SessionEndMode:
        out = tmp_path / mode.value
        data_args = ["--data", str(data), "--session-end", mode.value]
        _run(capsys, ["summarize", *data_args, "--out", str(out / "summary")])
        _run(capsys, ["export-prompts", *data_args, "--out", str(out / "prompts.jsonl")])
        for family in cli.FAMILIES:
            run = out / family
            rc = _run(capsys, ["train", *data_args, "--model", family, "--out", str(run), *tiny])
            # a count model fits from first events alone; a neural one may
            # exit 2 when no training session has a scored event
            assert rc == 0 or family in cli.NEURAL_KINDS
            if rc:
                continue
            run_args = ["--data", str(data), "--run", str(run)]
            _run(capsys, ["evaluate", *run_args, "--out", str(run / "realized")])
            _run(capsys, ["evaluate", *run_args, "--demand-mode", "expected",
                          "--n-rollouts", "3", "--out", str(run / "expected")])
            if family == "transformer":
                _run(capsys, ["analyze-attention", *run_args])
