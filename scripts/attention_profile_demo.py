#!/usr/bin/env python3
"""Train a small causal transformer, then compare its session attention
profiles with the three content-free baseline patterns.

The averaged key weights of any causal row-stochastic attention matrix are
compared per session against the position-only uniform baseline; the script
reports the correlation distribution and the closed-form check on the
logarithmic approximation of the uniform baseline's first key weight.

The transformer is fitted by `cli.fit_predictor`, the fit `seqbundle train`
runs, with small-network options in place of the CLI defaults.

Example:
    python3 scripts/attention_profile_demo.py --n-sessions 800 --epochs 10
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqbundle.attention import (
    BASELINE_DIAGONAL,
    BASELINE_FIRST_KEY,
    BASELINE_UNIFORM,
    baseline_key_weights,
    harmonic_approx_check,
    pearson,
    session_attention_profile,
)
from seqbundle.cli import TRAIN_DEFAULTS, fit_predictor
from seqbundle.dataio import Split, split
from seqbundle.errors import MetricUndefinedError
from seqbundle.synthgen import frequent_pattern_spec, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-sessions", type=int, default=800)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--embed-dim", type=int, default=16)
    args = parser.parse_args()

    spec = frequent_pattern_spec(n_sessions=args.n_sessions)
    dataset = split(generate(spec), train_fraction=0.9, seed=args.seed)
    pid = spec.playlist_id
    playlist = dataset.playlists[pid]
    train = dataset.train_sessions(pid)

    options = {
        **TRAIN_DEFAULTS,
        "seed": args.seed,
        "epochs": args.epochs,
        "learning_rate": 0.01,
        "feasibility_mask": True,
        "embed_dim": args.embed_dim,
        "n_blocks": 1,
        "n_heads": 2,
        "head_dim": args.embed_dim // 2,
        "ff_dim": args.embed_dim,
        "max_positions": 64,
    }
    print(f"training on {len(train)} sessions ...")
    predictor, _ = fit_predictor("transformer", train, playlist, options, dataset.cap)

    correlations = []
    skipped = 0
    example = None
    sessions = dataset.sessions_for(pid, Split.TEST)
    for session, weights in zip(sessions, predictor.attention_for_sessions(sessions)):
        profile = session_attention_profile(session, weights)
        if profile is None or profile.correlation is None:
            skipped += 1
            continue
        correlations.append(profile.correlation)
        if example is None or len(profile.empirical) > len(example.empirical):
            example = profile

    corr = np.asarray(correlations)
    print(f"\nprofiled {corr.size} holdout sessions ({skipped} skipped: "
          f"too short or constant)")
    print(f"correlation with the uniform baseline: mean {corr.mean():.3f}, "
          f"min {corr.min():.3f}, max {corr.max():.3f}")

    if example is not None:
        n = len(example.empirical)
        emp = np.asarray(example.empirical)
        print(f"\nlongest profiled session ({example.session_id}, {n} events):")
        for kind, name in (
            (BASELINE_DIAGONAL, "diagonal"),
            (BASELINE_FIRST_KEY, "first-key"),
            (BASELINE_UNIFORM, "uniform"),
        ):
            base = baseline_key_weights(kind, n)
            try:
                r = pearson(emp, base)
                shown = f"{r:+.3f}"
            except MetricUndefinedError:
                shown = "undefined"
            print(f"  corr vs {name:9s} baseline: {shown}")

        chk = harmonic_approx_check(n)
        print(f"\nuniform baseline first key weight at n={n}: "
              f"exact {chk.exact:.6f}, log approximation {chk.approximation:.6f}, "
              f"deviation {chk.deviation:.2e} <= bound {chk.bound:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
