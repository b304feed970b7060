#!/usr/bin/env python3
"""Train every model family on one synthetic generator and compare holdout
hit rates against the generator's simulation ceiling.

Each family is fitted by `cli.fit_predictor`, the fit `seqbundle train`
runs, with the small-network options below in place of the CLI defaults.

Example:
    python3 scripts/benchmark_families.py --name second_order --quick
    python3 scripts/benchmark_families.py --name frequent_pattern \\
        --n-sessions 3000 --epochs 20 --out results/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqbundle.cli import FAMILIES, TRAIN_DEFAULTS, fit_predictor
from seqbundle.dataio import Split, split
from seqbundle.evalkit import evaluate_dataset
from seqbundle.reports import write_csv
from seqbundle.synthgen import (
    CANONICAL_SPEC_NAMES,
    bayes_rate,
    first_order_rate,
    generate,
    named_spec,
)


def family_options(args) -> dict[str, dict]:
    """The fit options of each family: small networks, a smoothed pMC."""
    base = {
        **TRAIN_DEFAULTS,
        "seed": args.seed,
        "epochs": args.epochs,
        "learning_rate": args.learning_rate,
        "feasibility_mask": True,
        "embed_dim": args.embed_dim,
        "n_blocks": args.n_blocks,
        "n_heads": 2,
        "head_dim": args.embed_dim // 2,
        "ff_dim": args.embed_dim,
        "hidden_dim": args.embed_dim,
        "max_positions": 64,
    }
    overrides = {"pmc": {"smoothing": 1.0}, "mlp": {"n_layers": 2}, "lstm": {"n_layers": 1}}
    return {family: {**base, **overrides.get(family, {})} for family in FAMILIES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", choices=list(CANONICAL_SPEC_NAMES), default="second_order")
    parser.add_argument("--n-sessions", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--n-blocks", type=int, default=1)
    parser.add_argument("--learning-rate", type=float, default=0.01)
    parser.add_argument("--quick", action="store_true", help="small run (600 sessions)")
    parser.add_argument("--out", type=Path, help="also write a CSV of the table")
    args = parser.parse_args()

    n_sessions = args.n_sessions or (600 if args.quick else 2000)
    spec = named_spec(args.name, n_sessions=n_sessions)
    print(f"generator {args.name}: {n_sessions} sessions, cap {spec.cap}")

    ceiling = bayes_rate(spec, n_sessions=1500, seed=424)
    first = first_order_rate(spec, n_sessions=1500, seed=424)
    print(f"simulation ceiling {ceiling:.4f}, best first-order rule {first:.4f}\n")

    dataset = split(generate(spec), train_fraction=0.9, seed=args.seed)
    pid = spec.playlist_id
    playlist = dataset.playlists[pid]
    train = dataset.train_sessions(pid)

    rows = []
    for family, options in family_options(args).items():
        t0 = time.time()
        predictor, info = fit_predictor(family, train, playlist, options, dataset.cap)
        seconds = time.time() - t0
        report = evaluate_dataset({pid: predictor}, dataset, split=Split.TEST)
        rows.append((family, report.hit_rate, info["n_parameters"], round(seconds, 2)))
        print(f"{family:12s} hit rate {report.hit_rate:.4f}  "
              f"params {info['n_parameters']:6d}  fit {seconds:5.1f}s")

    best = max(rows, key=lambda r: r[1])
    print(f"\nbest family: {best[0]} at {best[1]:.4f} "
          f"(ceiling {ceiling:.4f}, gap {ceiling - best[1]:+.4f})")

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = write_csv(
            args.out / f"benchmark_{args.name}.csv",
            ["family", "hit_rate", "n_parameters", "fit_seconds"],
            rows,
        )
        print(f"table written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
