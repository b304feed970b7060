"""Synthetic session generators: validity, determinism, and recoverability."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqbundle import domain, synthgen
from seqbundle.baselines import fit_markov
from seqbundle.dataio import write_sessions_jsonl
from seqbundle.domain import Outcome, tally_sessions, validate_session
from seqbundle.errors import ConstraintViolation, SchemaError
from seqbundle.synthgen import (
    CANONICAL_SPEC_NAMES,
    GeneratorSpec,
    bayes_rate,
    build_playlist,
    first_order_rate,
    frequent_pattern_spec,
    generate,
    named_spec,
    position_shift_spec,
    second_order_spec,
    spec_from_json,
    spec_to_json,
    stopping_spec,
)


def simple_markov_spec(n_sessions=200, seed=42, **overrides):
    base = dict(
        kind="markov1",
        n_sessions=n_sessions,
        seed=seed,
        transitions={
            Outcome.SKIP: (0.7, 0.3, 0.0),
            Outcome.PLAY: (0.2, 0.7, 0.1),
            Outcome.REPLAY: (0.5, 0.5, 0.0),
        },
        n_tracks=5,
    )
    base.update(overrides)
    return GeneratorSpec(**base)


def cap3_spec(replay_row):
    return simple_markov_spec(
        n_sessions=200,
        seed=3,
        cap=3,
        transitions={
            Outcome.SKIP: (0.7, 0.3, 0.0),
            Outcome.PLAY: (0.2, 0.6, 0.2),
            Outcome.REPLAY: replay_row,
        },
    )


class TestBuildPlaylist:
    def test_default_shape(self):
        playlist = build_playlist()
        assert len(playlist) == 13
        assert playlist.playlist_id == "synthetic"
        assert playlist.tracks[0].track_id.endswith("t001")
        assert all(t.duration > 0 for t in playlist.tracks)

    def test_custom_durations(self):
        playlist = build_playlist("p", 2, (10.0, 20.0))
        assert [t.duration for t in playlist.tracks] == [10.0, 20.0]

    def test_duration_count_must_match(self):
        with pytest.raises(ConstraintViolation):
            build_playlist("p", 3, (10.0, 20.0))


class TestSpecValidation:
    def test_replay_after_skip_mass_rejected(self):
        with pytest.raises(ConstraintViolation, match="replay"):
            simple_markov_spec(
                transitions={
                    Outcome.SKIP: (0.6, 0.3, 0.1),
                    Outcome.PLAY: (0.2, 0.7, 0.1),
                    Outcome.REPLAY: (0.5, 0.5, 0.0),
                }
            )

    def test_replay_after_capped_replay_rejected(self):
        with pytest.raises(ConstraintViolation, match="replay"):
            simple_markov_spec(
                transitions={
                    Outcome.SKIP: (0.7, 0.3, 0.0),
                    Outcome.PLAY: (0.2, 0.7, 0.1),
                    Outcome.REPLAY: (0.4, 0.5, 0.1),  # cap is 2
                }
            )

    def test_higher_cap_allows_double_replay(self):
        spec = simple_markov_spec(
            cap=3,
            transitions={
                Outcome.SKIP: (0.7, 0.3, 0.0),
                Outcome.PLAY: (0.2, 0.7, 0.1),
                Outcome.REPLAY: (0.4, 0.5, 0.1),
            },
        )
        assert spec.cap == 3

    def test_cap_one_spec_generates_valid_sessions(self):
        spec = replace(stopping_spec(n_sessions=100, seed=5), cap=1)
        dataset = generate(spec)
        assert dataset.cap == 1
        for session in dataset.sessions:
            validate_session(session, spec.n_tracks, cap=1)

    def test_cap_one_refuses_replay_mass(self):
        # simple_markov_spec puts 0.1 on a replay after a play; cap 1 forbids it
        with pytest.raises(ConstraintViolation, match="replay mass must be 0"):
            simple_markov_spec(cap=1)

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ConstraintViolation, match="sums to"):
            simple_markov_spec(
                transitions={
                    Outcome.SKIP: (0.7, 0.2, 0.0),
                    Outcome.PLAY: (0.2, 0.7, 0.1),
                    Outcome.REPLAY: (0.5, 0.5, 0.0),
                }
            )

    def test_markov1_requires_all_rows(self):
        with pytest.raises(ConstraintViolation, match="needs a row"):
            simple_markov_spec(transitions={Outcome.SKIP: (0.7, 0.3, 0.0)})

    def test_markov_pos_requires_contiguous_positions(self):
        rows = {
            Outcome.SKIP: (0.7, 0.3, 0.0),
            Outcome.PLAY: (0.2, 0.7, 0.1),
            Outcome.REPLAY: (0.5, 0.5, 0.0),
        }
        with pytest.raises(ConstraintViolation, match="contiguous"):
            GeneratorSpec(
                kind="markov_pos",
                n_sessions=10,
                seed=1,
                transitions={2: rows, 4: rows},
                n_tracks=5,
            )

    def test_order2_requires_every_reachable_context(self):
        spec = second_order_spec()
        incomplete = dict(spec.transitions)
        incomplete.pop((Outcome.PLAY, Outcome.REPLAY))
        with pytest.raises(ConstraintViolation, match="play, replay"):
            GeneratorSpec(
                kind="order2",
                n_sessions=10,
                seed=1,
                transitions=incomplete,
                n_tracks=5,
            )

    def test_negative_seed_is_refused(self):
        with pytest.raises(ConstraintViolation, match="seed must be an integer >= 0, got -1"):
            simple_markov_spec(seed=-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConstraintViolation, match="unknown generator"):
            GeneratorSpec(kind="markov9", n_sessions=10, seed=1)


class TestGeneration:
    def test_all_sessions_valid(self):
        for spec in (
            simple_markov_spec(n_sessions=120),
            second_order_spec(n_sessions=80),
            position_shift_spec(n_sessions=80),
        ):
            dataset = generate(spec)
            assert len(dataset.sessions) == spec.n_sessions
            for session in dataset.sessions:
                validate_session(session, spec.n_tracks, cap=spec.cap)

    @pytest.mark.parametrize("replay_row", [(0.4, 0.4, 0.2), (0.0, 0.0, 1.0)])
    def test_cap3_replay_mass_at_cap_is_redrawn(self, replay_row):
        # Replays may follow replays under cap 3, so a track at its third unit
        # must not draw another; that mass is spread over skip/play, and a
        # row with nothing else left ends the session.
        spec = cap3_spec(replay_row)
        dataset = generate(spec)
        assert dataset.cap == 3
        for session in dataset.sessions:
            validate_session(session, spec.n_tracks, cap=3)
        plays = tally_sessions(dataset.sessions, spec.n_tracks, cap=3).plays
        assert plays[:, 3].sum() > 0

    def test_deterministic_across_calls(self):
        a = generate(simple_markov_spec())
        b = generate(simple_markov_spec())
        assert a.sessions == b.sessions

    def test_sessions_are_seed_isolated(self):
        # session i depends only on (seed, i), so shrinking the batch keeps a prefix
        big = generate(simple_markov_spec(n_sessions=8)).sessions
        small = generate(simple_markov_spec(n_sessions=3)).sessions
        assert big[:3] == small

    def test_different_seed_changes_output(self):
        a = generate(simple_markov_spec(seed=1)).sessions
        b = generate(simple_markov_spec(seed=2)).sessions
        assert a != b

    def test_session_ids_are_stable(self):
        dataset = generate(simple_markov_spec(n_sessions=3))
        assert [s.session_id for s in dataset.sessions] == ["s00000", "s00001", "s00002"]

    def test_transition_recovery(self):
        spec = simple_markov_spec(n_sessions=3000, seed=77, n_tracks=8)
        dataset = generate(spec)
        playlist = dataset.playlists[spec.playlist_id]
        model = fit_markov(list(dataset.sessions), playlist)
        for prev, expected in spec.transitions.items():
            got = model.matrix.row(prev)
            assert np.allclose(got, expected, atol=0.03), (
                f"row {prev.value}: {got} vs {expected}"
            )

    def test_position_shift_is_visible_in_data(self):
        spec = position_shift_spec(n_sessions=1500, seed=3)
        dataset = generate(spec)
        playlist = dataset.playlists[spec.playlist_id]
        model = fit_markov(
            list(dataset.sessions), playlist, position_dependent=True
        )
        early_skip = model.matrices[2].row(Outcome.PLAY)[0]
        late_skip = model.matrices[5].row(Outcome.PLAY)[0]
        assert early_skip > 0.5 > late_skip

    def test_second_order_context_matters(self):
        dataset = generate(second_order_spec(n_sessions=1200, seed=9))
        # skip rate following a skip, split by what came before that skip
        after = {"skip": [0, 0], "play": [0, 0]}
        for session in dataset.sessions:
            outcomes = tuple(e.outcome for e in session.events)
            for j in range(2, len(outcomes)):
                if outcomes[j - 1] is not Outcome.SKIP:
                    continue
                prev2 = outcomes[j - 2]
                if prev2 is Outcome.SKIP:
                    bucket = after["skip"]
                elif prev2 is Outcome.PLAY:
                    bucket = after["play"]
                else:
                    continue
                bucket[0] += int(outcomes[j] is Outcome.SKIP)
                bucket[1] += 1
        rate_after_ss = after["skip"][0] / after["skip"][1]
        rate_after_ps = after["play"][0] / after["play"][1]
        assert rate_after_ss < 0.2  # spec says 0.1
        assert rate_after_ps > 0.8  # spec says 0.9

    def test_stopping_sessions_never_resume(self):
        dataset = generate(stopping_spec(n_sessions=200, seed=4))
        for session in dataset.sessions:
            outcomes = tuple(e.outcome for e in session.events)
            if Outcome.SKIP in outcomes:
                first_skip = outcomes.index(Outcome.SKIP)
                assert all(o is Outcome.SKIP for o in outcomes[first_skip:])


class TestPinnedOutput:
    """The generator's output, pinned: any change to how sessions are drawn
    must be bit-identical or re-baseline these values on purpose."""

    @staticmethod
    def sessions_digest(spec, tmp_path):
        path = tmp_path / "sessions.jsonl"
        write_sessions_jsonl(path, generate(spec).sessions)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "name,digest",
        [
            ("frequent_pattern", "87e3f91fecbbc8cb4730a20b90f74da9f9af6072409171f3807b55cb15c84687"),
            ("position_shift", "efd5419f1179d3f70d7f127d32128d5691ab60257a8e6d8f7617b22ce72834b3"),
            ("second_order", "c77067c18cd5ec25e6cc88d1b0bc48a488c6c880ac308e5ff4b29272df9e9d7e"),
            ("stopping", "21ef23fde27751b873331bc4c34000ab4725a5d3fc7665ab2d059cbeb71a5f68"),
        ],
    )
    def test_canonical_sessions(self, name, digest, tmp_path):
        assert self.sessions_digest(named_spec(name, n_sessions=300), tmp_path) == digest

    @pytest.mark.parametrize(
        "replay_row,digest",
        [
            ((0.4, 0.4, 0.2), "6e0e65711d9c7b01adcc1ff3e3042be84b04b48d5dd7459bbc62c8d5a12c20f6"),
            ((0.0, 0.0, 1.0), "6c5f0da8cfe00695f694eff7156b0f0a29eb350ecbaea452405663d8ddb8fbef"),
        ],
    )
    def test_cap3_sessions(self, replay_row, digest, tmp_path):
        assert self.sessions_digest(cap3_spec(replay_row), tmp_path) == digest

    def test_reference_rates(self):
        spec = second_order_spec()
        assert bayes_rate(spec, n_sessions=300, seed=8) == 0.8174906890130333
        assert first_order_rate(spec, n_sessions=300, seed=8) == 0.5069836829836842

    def test_generate_does_not_rewalk_prefixes(self, monkeypatch):
        calls = []
        real_walk = domain.walk

        def counting_walk(*args, **kwargs):
            calls.append(1)
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(domain, "walk", counting_walk)
        # raising=False: synthgen holds no walk of its own, and must not regain one
        monkeypatch.setattr(synthgen, "walk", counting_walk, raising=False)
        spec = second_order_spec(n_sessions=200)
        dataset = generate(spec)
        assert sum(len(s.events) for s in dataset.sessions) > 1000
        bayes_rate(spec, n_sessions=200, seed=8)
        first_order_rate(spec, n_sessions=200, seed=8)
        assert calls == []


def per_session_uniforms(seed, n, width):
    """The generator's uniforms as one default_rng([seed, k]) per session."""
    out = np.empty((n, width))
    for k in range(n):
        out[k] = np.random.default_rng([seed, k]).random(width)
    return out


class TestUniformBlock:
    """synthgen._uniform_block is the per-session default_rng draw, bit for bit."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7]
        + [named_spec(name).seed for name in CANONICAL_SPEC_NAMES],
    )
    def test_block_equals_the_per_session_reference(self, seed):
        for n in (1, 2, 1000):
            for width in (1, 25, 53):
                block = synthgen._uniform_block(seed, n, width)
                assert block.dtype == np.float64 and block.shape == (n, width)
                assert block.tobytes() == per_session_uniforms(seed, n, width).tobytes()

    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**128 - 1),
        n=st.integers(min_value=1, max_value=64),
        width=st.integers(min_value=1, max_value=64),
    )
    def test_any_seed_matches_the_per_session_reference(self, seed, n, width):
        block = synthgen._uniform_block(seed, n, width)
        assert block.tobytes() == per_session_uniforms(seed, n, width).tobytes()

    def test_generation_builds_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-session generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert len(generate(second_order_spec(n_sessions=50)).sessions) == 50


class TestReferenceRates:
    def test_bayes_beats_first_order_on_second_order_data(self):
        spec = second_order_spec()
        bayes = bayes_rate(spec, n_sessions=600, seed=11)
        first = first_order_rate(spec, n_sessions=600, seed=11)
        assert bayes > first + 0.05

    def test_rates_agree_on_first_order_data(self):
        # on genuinely first-order data the first-order rule is Bayes-optimal
        spec = simple_markov_spec(n_tracks=8)
        bayes = bayes_rate(spec, n_sessions=500, seed=21)
        first = first_order_rate(spec, n_sessions=500, seed=21)
        assert abs(bayes - first) < 0.02

    def test_rates_are_deterministic(self):
        spec = simple_markov_spec(n_tracks=6)
        assert bayes_rate(spec, n_sessions=200, seed=5) == bayes_rate(
            spec, n_sessions=200, seed=5
        )

    def test_rates_within_unit_interval(self):
        spec = frequent_pattern_spec()
        rate = bayes_rate(spec, n_sessions=300, seed=8)
        assert 1 / 3 < rate < 1.0


def weighted_row(weights, replay_ok):
    """A probability row from integer weights, with no mass on a closed replay."""
    skip, play, replay = weights[0], weights[1], weights[2] if replay_ok else 0
    if skip + play + replay == 0:
        play = 1
    total = skip + play + replay
    return (skip / total, play / total, replay / total)


@st.composite
def generator_specs(draw):
    """Specs of every kind, at caps 1-4 and 1-6 tracks, with random rows."""
    kind = draw(st.sampled_from(synthgen.GENERATOR_KINDS))
    cap = draw(st.integers(1, 4))
    cells = domain.feasible_cells(cap)
    weights = st.tuples(*[st.integers(0, 4)] * 3)

    def rows_after(prev):
        return weighted_row(draw(weights), cells[domain.OUTCOME_INDEX[prev], 2])

    def outcome_rows():
        return {prev: rows_after(prev) for prev in domain.OUTCOME_ORDER}

    if kind == "markov1":
        transitions = outcome_rows()
    elif kind == "markov_pos":
        transitions = {pos: outcome_rows() for pos in range(2, 2 + draw(st.integers(1, 4)))}
    else:
        contexts = [(None, Outcome.SKIP), (None, Outcome.PLAY)] + [
            (a, b) for a in domain.OUTCOME_ORDER for b in domain.OUTCOME_ORDER
            if cells[domain.OUTCOME_INDEX[a], domain.OUTCOME_INDEX[b]]
        ]
        transitions = {(a, b): rows_after(b) for a, b in contexts}
    return GeneratorSpec(
        kind=kind,
        n_sessions=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**32 - 1)),
        transitions=transitions,
        n_tracks=draw(st.integers(1, 6)),
        cap=cap,
        initial_play_prob=draw(st.sampled_from([0.0, 0.3, 0.65, 1.0])),
    )


def rewalked_modal_mass(spec, events, predicted):
    """A session's modal mass as the generator once computed it: walk the
    session again and ask the spec for every prefix's row again."""
    steps = domain.walk(events, spec.n_tracks, spec.cap)[1 : len(events)]
    rows = domain.feasible_rows(
        synthgen._spec_rows(spec, [events[:j] for j in range(1, len(events))]),
        [replay_ok for _, _, (_, _, replay_ok) in steps],
    ).tolist()
    total = 0.0
    for j, ((_, _, (skip_ok, _, _)), row) in enumerate(zip(steps, rows), start=1):
        if not skip_ok:
            row = (0.0, 0.0, 1.0)
        if predicted is None:
            total += max(row)
        else:
            total += row[predicted[events[j - 1].index]]
    return total, len(events) - 1


class TestModalMassRate:
    """_modal_mass_rate scores the drawn rows exactly as a re-walk of every
    session scored the spec's rows."""

    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        spec=generator_specs(),
        predicted=st.none() | st.tuples(*[st.integers(0, 2)] * 3),
    )
    def test_rate_equals_the_per_session_rewalk_reference(self, spec, predicted):
        total, scored = 0.0, 0
        for session in generate(spec).sessions:
            mass, n = rewalked_modal_mass(spec, session.events, predicted)
            total += mass
            scored += n
        if scored == 0:
            with pytest.raises(ConstraintViolation, match="no scored events"):
                synthgen._modal_mass_rate(spec, predicted)
        else:
            assert synthgen._modal_mass_rate(spec, predicted) == total / scored


class TestNamedSpecs:
    def test_canonical_names(self):
        assert CANONICAL_SPEC_NAMES == (
            "frequent_pattern",
            "position_shift",
            "second_order",
            "stopping",
        )

    def test_named_spec_resize_and_reseed(self):
        spec = replace(named_spec("frequent_pattern", n_sessions=33), seed=99)
        assert spec.n_sessions == 33
        assert spec.seed == 99
        assert spec.kind == "markov1"
        default = named_spec("frequent_pattern")
        assert default.n_sessions == 5000

    def test_unknown_name_rejected(self):
        with pytest.raises(ConstraintViolation, match="unknown spec name"):
            named_spec("nope")

    @pytest.mark.parametrize("name", CANONICAL_SPEC_NAMES)
    def test_json_round_trip(self, name):
        spec = named_spec(name, n_sessions=25)
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec
        assert generate(restored).sessions == generate(spec).sessions

    # every other spec field: test_reports_cli.py TestFieldTables, on a markov1 spec
    @pytest.mark.parametrize("name,transitions,field", [
        ("position_shift", {"2": [0.5, 0.5, 0.0]}, "transitions.2"),
        ("second_order", {"none,skip": ["0.5", 0.5, 0.0]}, "transitions.none,skip.0"),
    ])
    def test_nested_rows_are_read_by_type(self, name, transitions, field):
        obj = {**spec_to_json(named_spec(name, n_sessions=25)), "transitions": transitions}
        with pytest.raises(SchemaError, match=f"^spec.json: field '{field}': "):
            spec_from_json(obj, "spec.json")

    def test_integral_floats_are_read_as_integers(self):
        spec = replace(named_spec("second_order", n_sessions=25), seed=7)
        obj = spec_to_json(spec)
        obj.update(n_sessions=25.0, seed=7.0, cap=2.0)
        assert spec_from_json(obj) == spec
