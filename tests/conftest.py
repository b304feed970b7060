"""Shared builders for tests: playlists, sessions, and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from seqbundle.domain import (
    DEFAULT_CAP,
    Event,
    Outcome,
    Playlist,
    Session,
    Track,
    advance_state,
    initial_state,
    is_terminal,
)

# A longer derandomized run of the property tests that pin no example count:
# pytest --hypothesis-profile=deep
settings.register_profile("deep", max_examples=2000, derandomize=True)


def make_playlist(
    n_tracks: int, durations: tuple[float, ...] | None = None, pid: str = "pl"
) -> Playlist:
    if durations is None:
        durations = tuple(100.0 * (i + 1) for i in range(n_tracks))
    tracks = tuple(
        Track(track_id=f"{pid}-t{i + 1}", duration=d) for i, d in enumerate(durations)
    )
    return Playlist(playlist_id=pid, tracks=tracks)


def make_session(
    outcomes: list[str], sid: str = "s1", pid: str = "pl"
) -> Session:
    events = []
    pos = 0
    for name in outcomes:
        outcome = Outcome(name)
        pos = pos if outcome is Outcome.REPLAY else pos + 1
        events.append(Event(track_position=pos, outcome=outcome))
    return Session(session_id=sid, playlist_id=pid, events=tuple(events))


@pytest.fixture
def playlist3() -> Playlist:
    return make_playlist(3)


@st.composite
def valid_outcome_walks(draw, max_tracks: int = 5, cap: int = DEFAULT_CAP):
    """Random feasible outcome sequences over a playlist of up to max_tracks."""
    n = draw(st.integers(min_value=1, max_value=max_tracks))
    state = initial_state(cap)
    outcomes: list[Outcome] = []
    first = draw(st.sampled_from([Outcome.SKIP, Outcome.PLAY]))
    state = advance_state(state, first, n)
    outcomes.append(first)
    while not is_terminal(state, n):
        options = []
        if state.covered < n:
            options += [Outcome.SKIP, Outcome.PLAY]
        if state.covered >= 1 and 1 <= state.last_count < cap:
            options.append(Outcome.REPLAY)
        stop_allowed = state.covered >= n
        choice = draw(
            st.sampled_from(options + ([None] if stop_allowed else []))
        )
        if choice is None:
            break
        state = advance_state(state, choice, n)
        outcomes.append(choice)
    return n, outcomes


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
