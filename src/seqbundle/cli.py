"""Command line entry points.

Subcommands:
  generate           sample a synthetic dataset from a generator spec
  train              fit one model family on a dataset, storing the split
  evaluate           score a trained run on its stored holdout split
  analyze-attention  attention profiles against the content-free baselines
  export-prompts     dump prompt/completion pairs for text-completion probes
  summarize          per-playlist descriptive statistics

Exit codes: 0 success, 1 usage error, 2 invalid data or constraint violation,
3 numeric failure during training or inference.

Every output is byte-deterministic for fixed inputs: JSON keys are sorted,
nothing embeds timestamps, and all randomness flows from --seed flags.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import artifacts, reports, synthgen
from .attention import harmonic_approx_check, playlist_correlations, session_attention_profile
from .baselines import MarkovPredictor, ZeroOrderPredictor, fit_markov, fit_zero_order
from .dataio import (
    Dataset,
    FeatureConfig,
    FeaturePipeline,
    SessionEndMode,
    Split,
    apply_session_end,
    load_dataset,
    split as split_dataset,
    write_playlists_jsonl,
    write_prompts_jsonl,
    write_sessions_jsonl,
)
from .domain import (
    DEFAULT_CAP,
    FieldError,
    at_least,
    boolean,
    integer,
    number,
    object_of,
    one_of,
    read_fields,
    read_json,
    string,
)
from .errors import ConstraintViolation, NumericError, SchemaError, SeqBundleError
from .evalkit import evaluate_dataset, summarize_dataset, summary_to_jsonable
from .seqmodels import (
    LSTMConfig,
    MLPConfig,
    ModelKind,
    NeuralPredictor,
    TrainConfig,
    TransformerConfig,
    build_training_arrays,
    make_model,
    train_model,
)

log = logging.getLogger(__name__)

BASELINE_KINDS = ("mc", "pmc", "zero")
NEURAL_KINDS = ("mlp", "lstm", "transformer", "encoder")
FAMILIES = BASELINE_KINDS + NEURAL_KINDS

_SESSION_END_MODES = [m.value for m in SessionEndMode]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SeqBundleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqbundle",
        description="Train and inspect models of skip/play/replay listening sessions.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a synthetic dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--name",
        choices=list(synthgen.CANONICAL_SPEC_NAMES),
        help="one of the canonical generator specs",
    )
    group.add_argument("--spec", type=Path, help="generator spec JSON file")
    p.add_argument("--n-sessions", type=int, help="override the spec's session count")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument(
        "--with-rates",
        action="store_true",
        help="estimate the generator's reference hit rates (slow)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model family on a dataset")
    _add_data_args(p)
    _add_session_end(p)
    p.add_argument(
        "--model",
        required=True,
        choices=FAMILIES,
        help="model family to fit",
    )
    p.add_argument("--out", type=Path, required=True, help="run directory")
    p.add_argument("--config", type=Path, help="JSON file of option defaults")
    for key, default in TRAIN_DEFAULTS.items():
        if key != "session_end":  # from _add_session_end
            p.add_argument(_flag(key), default=None, help=_TRAIN_HELP.get(key),
                           **_OPTION_TYPES[type(default)].flag)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained run on its holdout")
    _add_data_args(p)
    p.add_argument("--run", type=Path, required=True, help="trained run directory")
    p.add_argument("--out", type=Path, help="output directory (default RUN/eval)")
    p.add_argument(
        "--split",
        choices=[s.value for s in Split],
        default=Split.TEST.value,
        help="which stored split to score",
    )
    p.add_argument(
        "--demand-mode",
        choices=["realized", "expected"],
        default="realized",
        help="demand rates along observed paths, or from model rollouts",
    )
    p.add_argument("--n-rollouts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, help="rollout seed")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "analyze-attention", help="attention profiles vs content-free baselines"
    )
    _add_data_args(p)
    p.add_argument("--run", type=Path, required=True, help="trained transformer run")
    p.add_argument("--out", type=Path, help="output directory (default RUN/attention)")
    p.add_argument(
        "--split",
        choices=[s.value for s in Split],
        default=Split.TEST.value,
    )
    p.set_defaults(func=cmd_analyze_attention)

    p = sub.add_parser(
        "export-prompts", help="write prompt/completion pairs as JSONL"
    )
    _add_data_args(p)
    p.add_argument("--out", type=Path, required=True, help="output JSONL file")
    p.add_argument(
        "--split",
        choices=["train", "test", "all"],
        default="all",
        help="which sessions to export (train/test need --run)",
    )
    mode = p.add_mutually_exclusive_group()  # a run brings its own session-end mode
    _add_session_end(mode)
    mode.add_argument("--run", type=Path,
                      help="run directory: its session-end mode and stored split")
    p.add_argument(
        "--no-dedupe",
        action="store_true",
        help="keep repeated identical prompts instead of the first occurrence",
    )
    p.set_defaults(func=cmd_export_prompts)

    p = sub.add_parser("summarize", help="per-playlist descriptive statistics")
    _add_data_args(p)
    _add_session_end(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_summarize)

    return parser


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=Path, required=True,
                   help="directory with playlists.jsonl and sessions.jsonl/csv")
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl",
                   help="sessions file format")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="drop invalid sessions with a warning instead of failing",
    )


def _add_session_end(p) -> None:
    """--session-end, for the commands that choose how to read session tails;
    evaluate and analyze-attention read the data under the run's mode."""
    p.add_argument(
        "--session-end",
        choices=_SESSION_END_MODES,
        default=None,
        help="tail handling: full (pad skips) or truncate (drop after last play)",
    )


def _data_paths(args) -> tuple[Path, Path]:
    playlists = args.data / "playlists.jsonl"
    sessions = args.data / ("sessions.jsonl" if args.format == "jsonl" else "sessions.csv")
    return playlists, sessions


# the one field of a data directory's generator.json that loading reads
_GENERATOR_CAP = {"cap": (at_least(1), DEFAULT_CAP)}


def _data_cap(data_dir: Path) -> int:
    """Play-count cap of a data directory: the "cap" its generator.json
    records, or DEFAULT_CAP for data that has no generator.json."""
    path = data_dir / "generator.json"
    if not path.is_file():
        return DEFAULT_CAP
    return read_fields(read_json(path), _GENERATOR_CAP, path)["cap"]


def _load_data(args, session_end: str | None) -> Dataset:
    playlists_path, sessions_path = _data_paths(args)
    dataset = load_dataset(
        sessions_path,
        playlists_path,
        fmt=args.format,
        strict=not args.lenient,
        cap=_data_cap(args.data),
    )
    if session_end is not None:
        dataset = apply_session_end(dataset, SessionEndMode(session_end))
    return dataset


# numpy's generators take no negative seed; a count of sessions or rollouts is >= 1
_SEED, _COUNT = at_least(0), at_least(1)


def _read_flags(args, table: dict) -> dict:
    """The flags of ``table`` that were given, each read by its rule; a
    refused value names its flag."""
    given = {key: value for key in table if (value := getattr(args, key, None)) is not None}
    try:
        return read_fields(given, {key: table[key] for key in given})
    except FieldError as exc:
        raise SchemaError(f"{_flag(exc.key)} {exc.problem}") from None


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    _read_flags(args, {"seed": _SEED, "n_sessions": _COUNT})
    if args.name:
        spec = synthgen.named_spec(args.name, args.n_sessions, args.seed)
    else:
        spec = synthgen.spec_from_json(read_json(args.spec), str(args.spec))
        if args.n_sessions is not None:
            spec = replace(spec, n_sessions=args.n_sessions)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    dataset = synthgen.generate(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    playlists_path = args.out / "playlists.jsonl"
    sessions_path = args.out / "sessions.jsonl"
    write_playlists_jsonl(playlists_path, dataset.playlists)
    write_sessions_jsonl(sessions_path, dataset.sessions)
    spec_obj = synthgen.spec_to_json(spec)
    if args.with_rates:
        spec_obj["reference_rates"] = {
            "most_probable_outcome": synthgen.bayes_rate(spec),
            "first_order": synthgen.first_order_rate(spec),
        }
    spec_path = reports.write_json(args.out / "generator.json", spec_obj)
    artifacts.write_manifest(
        args.out / "manifest.json",
        command="generate",
        parameters=spec_obj,
        output_files={
            "playlists": playlists_path,
            "sessions": sessions_path,
            "generator": spec_path,
        },
    )
    print(f"wrote {len(dataset.sessions)} sessions to {sessions_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


# The train options a config dataclass holds, by dataclass: their defaults
# are its field defaults, and fit_predictor passes them on by name.
_FEATURE_KEYS = ("leak", "include_duration")
_TRAIN_KEYS = ("epochs", "batch_size", "learning_rate", "seed", "validation_fraction", "patience")
_TRANSFORMER_KEYS = ("embed_dim", "n_blocks", "n_heads", "head_dim", "ff_dim", "max_positions")


def _field_defaults(config_type, keys: tuple[str, ...]) -> dict:
    defaults = {f.name: f.default for f in fields(config_type)}
    return {key: defaults[key] for key in keys}


# Every train option and its default, the one table of them: each key has one
# train flag and one --config key, both read by the rule _OPTION_TYPES gives
# its default's type, and run.json's "options" records the value read.
# session_end's flag comes from _add_session_end.
TRAIN_DEFAULTS = {
    "train_fraction": 0.9,
    "smoothing": 0.0,
    "feasibility_mask": False,
    "session_end": SessionEndMode.FULL.value,
    **_field_defaults(FeatureConfig, _FEATURE_KEYS),
    **_field_defaults(TrainConfig, _TRAIN_KEYS),
    **_field_defaults(TransformerConfig, _TRANSFORMER_KEYS),
    "hidden_dim": None,  # None: the LSTM's or MLP's own default
    "n_layers": None,
}

_TRAIN_HELP = {
    "smoothing": "markov pseudo-count",
    "leak": "use observed remaining time (ablation; leaks the future)",
    "feasibility_mask": "zero structurally impossible replay probabilities",
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _finite(value):
    """A finite JSON number, kept as given: an integer stays one in run.json."""
    if math.isfinite(number(value)):
        return value
    raise ValueError(f"must be a finite number, got {value!r}")


def _size(value) -> int | None:
    """A model size: an integer, or null for the model's own default."""
    return None if value is None else integer(value)


class _OptionType(NamedTuple):
    rule: Callable[[object], object]  # reads a --config value or a flag's value
    flag: dict  # the argparse keywords of the option's flag


# By the type of an option's TRAIN_DEFAULTS value. The one str option is
# session_end, whose flag _add_session_end adds.
_OPTION_TYPES = {
    bool: _OptionType(boolean, {"action": "store_true"}),
    int: _OptionType(integer, {"type": int}),
    type(None): _OptionType(_size, {"type": int}),
    float: _OptionType(_finite, {"type": float}),
    str: _OptionType(one_of(*_SESSION_END_MODES), {}),
}
# each option's rule and default
_OPTIONS = {key: (_SEED if key == "seed" else _OPTION_TYPES[type(default)].rule, default)
            for key, default in TRAIN_DEFAULTS.items()}


def _resolve_options(args, sources: dict[str, str] | None = None) -> dict:
    """Option precedence: explicit flag > --config file > built-in default,
    each value read by _OPTIONS. ``sources``, if given, receives where each
    option not left at its default was set: the flag, or the file and field."""
    sources = {} if sources is None else sources
    file_options = {} if args.config is None else read_json(args.config)
    resolved = read_fields(file_options, _OPTIONS, args.config)
    if unknown := set(file_options) - set(TRAIN_DEFAULTS):
        raise SchemaError(f"{args.config}: unknown config keys {sorted(unknown)}")
    sources.update((key, f"{args.config}: field {key!r}") for key in file_options)
    flags = _read_flags(args, _OPTIONS)
    resolved.update(flags)
    sources.update((key, _flag(key)) for key in flags)
    return resolved


def _model_config(model: str, opts: dict, input_dim: int):
    if model in ("transformer", "encoder"):
        return TransformerConfig(
            input_dim=input_dim,
            causal=model == "transformer",
            positional="fixed" if model == "transformer" else "learned",
            **{key: opts[key] for key in _TRANSFORMER_KEYS},
        )
    sizes = {k: opts[k] for k in ("hidden_dim", "n_layers") if opts[k] is not None}
    config_type = LSTMConfig if model == "lstm" else MLPConfig
    return config_type(input_dim=input_dim, **sizes)


def fit_predictor(family: str, sessions, playlist, options: dict, cap: int):
    """Fit one model family on one playlist's training sessions.

    ``options`` holds every TRAIN_DEFAULTS key. Returns the predictor and
    the fit's record for run.json: its parameter count and, for a neural
    family, its training curve.
    """
    if family == "zero":
        predictor = ZeroOrderPredictor(table=fit_zero_order(sessions, playlist, cap=cap))
        return predictor, {"n_parameters": int(predictor.table.probs.size)}
    if family in ("mc", "pmc"):
        predictor = MarkovPredictor(
            model=fit_markov(
                sessions,
                playlist,
                position_dependent=family == "pmc",
                smoothing=options["smoothing"],
                cap=cap,
            )
        )
        return predictor, {"n_parameters": predictor.model.n_parameters}
    if family not in NEURAL_KINDS:
        raise ConstraintViolation(
            f"unknown model family {family!r}, expected one of {list(FAMILIES)}"
        )
    walk = len(playlist) * cap  # the most events a rollout draws; scoring packs one row more
    if family == "encoder" and walk >= options["max_positions"]:
        raise ConstraintViolation(
            f"playlist {playlist.playlist_id!r} has {len(playlist)} tracks at cap {cap}, so a "
            f"session can have {walk} events, whose scoring needs {walk + 1} positions, but "
            f"the learned position table holds {options['max_positions']}",
            keys=("max_positions",),
        )
    feature_config = FeatureConfig(**{key: bool(options[key]) for key in _FEATURE_KEYS})
    pipeline = FeaturePipeline(playlist=playlist, config=feature_config)
    pipeline.fit(sessions)
    model = make_model(
        ModelKind(family),
        _model_config(family, options, feature_config.input_dim),
        seed=options["seed"],
    )
    matrices, labels = build_training_arrays(pipeline, sessions)
    result = train_model(
        model,
        matrices,
        labels,
        TrainConfig(**{key: options[key] for key in _TRAIN_KEYS}),
    )
    predictor = NeuralPredictor(
        model=model,
        pipeline=pipeline,
        feasibility_mask=bool(options["feasibility_mask"]),
        cap=cap,
    )
    return predictor, {
        "n_parameters": result.n_parameters,
        "best_epoch": result.best_epoch,
        "stopped_early": result.stopped_early,
        "train_losses": list(result.train_losses),
        "val_losses": list(result.val_losses),
    }


def _data_digests(playlists_path: Path, sessions_path: Path) -> dict[str, str]:
    """The sha256 of each data file, as run.json's "data_digests" records it."""
    return {
        "playlists": artifacts.sha256_file(playlists_path),
        "sessions": artifacts.sha256_file(sessions_path),
    }


def cmd_train(args) -> int:
    sources: dict[str, str] = {}
    opts = _resolve_options(args, sources)
    dataset = _load_data(args, opts["session_end"])
    dataset = split_dataset(
        dataset, train_fraction=opts["train_fraction"], seed=opts["seed"]
    )
    fitted: dict[str, tuple] = {}
    for pid in dataset.playlist_ids():
        train_sessions = dataset.train_sessions(pid)
        if not train_sessions:
            log.warning("playlist %r has no training sessions; skipping", pid)
            continue
        try:
            fitted[pid] = fit_predictor(
                args.model, train_sessions, dataset.playlists[pid], opts, dataset.cap
            )
        except ConstraintViolation as exc:  # name where the options it reads were set
            if where := [sources[key] for key in exc.keys if key in sources]:
                raise ConstraintViolation(f"{', '.join(where)}: {exc}") from None
            raise
    if not fitted:
        raise ConstraintViolation("no playlist had training sessions")

    run_dir: Path = args.out  # written only now, so a refused fit leaves no file in it
    split_path = artifacts.save_split(run_dir / "split.json", dataset)
    bundle_paths = {
        pid: artifacts.save_predictor(run_dir / "models" / pid, predictor) / artifacts.BUNDLE_FILE
        for pid, (predictor, _) in fitted.items()
    }
    playlists_path, sessions_path = _data_paths(args)
    digests = _data_digests(playlists_path, sessions_path)
    run_obj = {
        "model": args.model,
        "cap": dataset.cap,
        "options": {k: opts[k] for k in sorted(opts)},
        "playlists": {pid: info for pid, (_, info) in fitted.items()},
        "data_digests": digests,
    }
    run_path = reports.write_json(run_dir / "run.json", run_obj)
    artifacts.write_manifest(
        run_dir / "manifest.json",
        command="train",
        parameters={"model": args.model, **{k: opts[k] for k in sorted(opts)}},
        input_files={"playlists": playlists_path, "sessions": sessions_path},
        input_digests=digests,
        output_files={
            "run": run_path,
            "split": split_path,
            **{f"model:{pid}": p for pid, p in sorted(bundle_paths.items())},
        },
    )
    for pid in sorted(fitted):
        print(f"trained {args.model} for playlist {pid}")
    print(f"run artifacts in {run_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate and analyze


# the fields of run.json that evaluation reads
_RUN_FIELDS = {
    "model": one_of(*FAMILIES),
    "options": {"session_end": one_of(*_SESSION_END_MODES)},
    "playlists": object_of({}),
    "data_digests": ({"playlists": string, "sessions": string}, None),
}


def _load_run(args) -> tuple[str, list[str], Dataset]:
    """The run's model family, the playlists it trained, and --data under the
    run's session-end mode and stored split, with run.json read by _RUN_FIELDS."""
    run_path = args.run / "run.json"
    if not run_path.is_file():
        raise SchemaError(f"{args.run}: not a trained run (no run.json)")
    run = read_fields(read_json(run_path), _RUN_FIELDS, run_path)
    dataset = _load_data(args, run["options"]["session_end"])
    playlists_path, sessions_path = _data_paths(args)
    if run["data_digests"] not in (None, _data_digests(playlists_path, sessions_path)):
        raise SchemaError(
            f"{run_path}: --data does not match the data this run was trained "
            f"on (content digests differ)"
        )
    if unknown := sorted(set(run["playlists"]) - set(dataset.playlists)):
        raise SchemaError(
            f"{run_path}: field 'playlists': no playlist {unknown[0]!r} in {playlists_path}"
        )
    dataset = artifacts.load_split(args.run / "split.json", dataset)
    return run["model"], list(run["playlists"]), dataset


def _load_predictors(args, pids: list[str], dataset: Dataset) -> dict:
    """The run's bundles for ``pids``; each must hold the data's cap."""
    predictors = {}
    for pid in pids:
        bundle = args.run / "models" / pid
        predictors[pid] = artifacts.load_predictor(bundle, dataset.playlists[pid])
        if predictors[pid].cap != dataset.cap:
            raise SchemaError(
                f"{bundle / artifacts.BUNDLE_FILE}: field 'cap': the bundle's cap "
                f"{predictors[pid].cap} is not the data's cap {dataset.cap}"
            )
    return predictors


def cmd_evaluate(args) -> int:
    _read_flags(args, {"seed": _SEED, "n_rollouts": _COUNT})
    model, pids, dataset = _load_run(args)
    predictors = _load_predictors(args, pids, dataset)
    report = evaluate_dataset(
        predictors,
        dataset,
        split=Split(args.split),
        demand_mode=args.demand_mode,
        n_rollouts=args.n_rollouts,
        seed=args.seed,
    )
    out_dir: Path = args.out if args.out is not None else args.run / "eval"
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_jsonable()
    payload["model"] = model
    payload["split"] = args.split
    files = {
        "report": reports.write_json(out_dir / "report.json", payload),
        "hit_rates": reports.write_hit_rates_csv(out_dir / "hit_rates.csv", report),
        "confusion": reports.write_confusion_csv(out_dir / "confusion.csv", report),
        "demand": reports.write_demand_csv(out_dir / "demand.csv", report),
        "cdf": reports.write_cdf_csv(out_dir / "cdf.csv", report),
        "cdf_chart": reports.write_svg(
            out_dir / "cdf.svg",
            reports.svg_cdf_chart({model: list(report.position_rate_values())}),
        ),
        "demand_chart": reports.write_svg(
            out_dir / "demand.svg", reports.svg_demand_chart(report, dataset.cap)
        ),
    }
    artifacts.write_manifest(
        out_dir / "manifest.json",
        command="evaluate",
        parameters={
            "model": model,
            "split": args.split,
            "demand_mode": args.demand_mode,
            "n_rollouts": args.n_rollouts,
            "seed": args.seed,
        },
        output_files=files,
    )
    print(
        f"hit rate {report.hit_rate:.4f} over {report.n_scored} scored events "
        f"({len(report.results)} playlists)"
    )
    pr2 = report.demand_pseudo_r2()
    if pr2 is not None:
        print(f"demand pseudo R^2 {pr2:.4f}")
    print(f"evaluation artifacts in {out_dir}")
    return EXIT_OK


def cmd_analyze_attention(args) -> int:
    model, pids, dataset = _load_run(args)
    if model != "transformer":
        raise ConstraintViolation(
            f"attention analysis needs a transformer run, got {model!r}"
        )
    predictors = _load_predictors(args, pids, dataset)
    out_dir: Path = args.out if args.out is not None else args.run / "attention"
    out_dir.mkdir(parents=True, exist_ok=True)

    profiles = []
    skipped = 0
    for pid in sorted(predictors):
        sessions = dataset.sessions_for(pid, Split(args.split))
        for session, weights in zip(sessions, predictors[pid].attention_for_sessions(sessions)):
            profile = session_attention_profile(session, weights)
            if profile is None:
                skipped += 1
            else:
                profiles.append(profile)
    if not profiles:
        raise ConstraintViolation(
            "no session was long enough for an attention profile (need >= 3 events)"
        )

    rows = [
        [p.playlist_id, p.session_id, j, emp, base, p.correlation]
        for p in profiles
        for j, (emp, base) in enumerate(zip(p.empirical, p.baseline), start=1)
    ]
    csv_path = reports.write_csv(
        out_dir / "attention_profiles.csv",
        ["playlist_id", "session_id", "position", "empirical", "baseline", "correlation"],
        rows,
    )

    checks = [harmonic_approx_check(n) for n in sorted({len(p.empirical) for p in profiles})]
    payload = {
        "split": args.split,
        "n_sessions_profiled": len(profiles),
        "n_sessions_skipped_short": skipped,
        "mean_correlation_by_playlist": playlist_correlations(profiles),
        "uniform_baseline_first_key": {
            str(c.n): dict(exact=c.exact, approximation=c.approximation, deviation_bound=c.bound)
            for c in checks
        },
    }
    json_path = reports.write_json(out_dir / "attention.json", payload)
    artifacts.write_manifest(
        out_dir / "manifest.json",
        command="analyze-attention",
        parameters={"split": args.split},
        output_files={"profiles": csv_path, "summary": json_path},
    )
    for pid, corr in sorted(payload["mean_correlation_by_playlist"].items()):
        print(f"playlist {pid}: mean profile correlation {corr:.4f}")
    print(f"attention artifacts in {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-prompts and summarize


def cmd_export_prompts(args) -> int:
    if args.run is not None:  # the run's session-end mode and stored split
        _, _, dataset = _load_run(args)
    elif args.split != "all":
        raise ConstraintViolation(
            "--split train/test needs --run to reuse that run's stored split"
        )
    else:
        dataset = _load_data(args, args.session_end)
    split_tag = None if args.split == "all" else Split(args.split)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    count = write_prompts_jsonl(
        args.out, dataset, split_tag=split_tag, dedupe=not args.no_dedupe
    )
    print(f"wrote {count} prompt/completion pairs to {args.out}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    dataset = _load_data(args, args.session_end)
    summaries = summarize_dataset(dataset)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = reports.write_summary_csv(args.out / "summary.csv", summaries)
    json_path = reports.write_json(
        args.out / "summary.json", {"playlists": summary_to_jsonable(summaries)}
    )
    artifacts.write_manifest(
        args.out / "manifest.json",
        command="summarize",
        parameters={},
        output_files={"csv": csv_path, "json": json_path},
    )
    for s in summaries:
        print(
            f"{s.playlist_id}: {s.n_sessions} sessions, "
            f"{s.mean_tracks_played:.2f} tracks played, "
            f"{s.mean_listening_seconds:.1f}s listened on average"
        )
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
