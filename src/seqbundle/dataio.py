"""Loading, splitting, transforming, and exporting session data.

Loaded sessions are validated against the play-count walk under a cap that
the Dataset keeps (``Dataset.cap``). Each load compiles its file's field
table once (domain.field_reader) and reads every line or row with it. One
load builds each distinct event once and validates each distinct (playlist,
event sequence) once; sessions with the same sequence share its immutable
events tuple. A JSONL line that repeats an accepted line's text up to its
session id, and whose id needs no JSON unescaping, is not parsed again: its
id is cut from the line with string operations. FeaturePipeline._rows builds
every model input row from the events before it alone, for training, scoring
and next-event queries alike. Remaining listening time is a suffix sum over
the session's events, so it is never negative and is exactly 0 after the
last listened event.

Wire formats
------------
sessions.jsonl   one session per line, as _SESSION_FIELDS reads it; session
                 ids are unique within the file
sessions.csv     one event per row, as _CSV_FIELDS reads it, in event order
playlists.jsonl  one playlist per line, as _PLAYLIST_FIELDS reads it
prompts.jsonl    {"prompt": str, "completion": str}
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .domain import (
    DEFAULT_CAP,
    N_OUTCOMES,
    Event,
    Outcome,
    Playlist,
    Session,
    Track,
    at_least,
    boolean,
    field_reader,
    number,
    numbers,
    object_of,
    one_of,
    read_fields,
    string,
    validate_session,
)
from .errors import ConstraintViolation, SchemaError

log = logging.getLogger(__name__)


class Split(str, Enum):
    TRAIN = "train"
    TEST = "test"


class SessionEndMode(str, Enum):
    """How a session's tail is interpreted.

    FULL: the listener saw the whole playlist; unresolved tracks become SKIPs.
    TRUNCATE: everything after the last played track is dropped.
    """

    FULL = "full"
    TRUNCATE = "truncate"


@dataclass(frozen=True, slots=True)
class Dataset:
    """Immutable bundle of playlists, sessions, and per-session split tags.

    ``cap`` is the per-track play-count cap the sessions were validated under.
    """

    playlists: Mapping[str, Playlist]
    sessions: tuple[Session, ...]
    split_tags: tuple[Split, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if len(self.sessions) != len(self.split_tags):
            raise ConstraintViolation(
                f"{len(self.sessions)} sessions but {len(self.split_tags)} split tags"
            )

    def playlist_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.playlists))

    def sessions_for(
        self, playlist_id: str | None = None, split: Split | None = None
    ) -> tuple[Session, ...]:
        out = []
        for session, tag in zip(self.sessions, self.split_tags):
            if playlist_id is not None and session.playlist_id != playlist_id:
                continue
            if split is not None and tag is not split:
                continue
            out.append(session)
        return tuple(out)

    def train_sessions(self, playlist_id: str | None = None) -> tuple[Session, ...]:
        return self.sessions_for(playlist_id, Split.TRAIN)

    def test_sessions(self, playlist_id: str | None = None) -> tuple[Session, ...]:
        return self.sessions_for(playlist_id, Split.TEST)


def dataset_from_sessions(
    playlists: Mapping[str, Playlist],
    sessions: Sequence[Session],
    cap: int = DEFAULT_CAP,
) -> Dataset:
    """Dataset with every session tagged TRAIN (tags assigned later by split)."""
    return Dataset(
        playlists=dict(playlists),
        sessions=tuple(sessions),
        split_tags=tuple(Split.TRAIN for _ in sessions),
        cap=cap,
    )


# ---------------------------------------------------------------------------
# loading and writing


_NUMBERS_BY_NAME = object_of(number)


def _features(value) -> tuple[tuple[str, float], ...]:
    """A track's extra features, sorted by name: a JSON object of numbers,
    or null for none."""
    return () if value is None else tuple(sorted(_NUMBERS_BY_NAME(value).items()))


# a playlists.jsonl line
_PLAYLIST_FIELDS = {
    "playlist_id": string,
    "tracks": [{"track_id": string, "duration": number, "features": (_features, ())}],
}


def _read_line(line: str, read) -> dict:
    """A JSONL line's fields as ``read``, a field_reader, reads them; a line that
    is not JSON, or nests too deeply for json.loads, is a SchemaError as a
    refused field is."""
    try:
        return read(json.loads(line))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise SchemaError("invalid JSON (nested too deeply)") from None


@contextmanager
def _refuse_non_utf8(path) -> Iterator[None]:
    """A read in the block that meets a non-UTF-8 byte is a SchemaError naming its line."""
    try:
        yield
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = len(data[: exc.start + 1].splitlines())  # as a text-mode read counts
            raise SchemaError(f"{path} line {lineno}: not UTF-8 ({exc.reason})") from None
        raise


def load_playlists(path: str | Path) -> dict[str, Playlist]:
    """Read playlists.jsonl, each line by _PLAYLIST_FIELDS. A malformed line
    or a duplicate playlist id is a SchemaError naming the file and line."""
    read = field_reader(_PLAYLIST_FIELDS)
    playlists: dict[str, Playlist] = {}
    with open(path, encoding="utf-8") as fh, _refuse_non_utf8(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                fields = _read_line(line, read)
                tracks = tuple(
                    Track(track_id=t["track_id"], duration=t["duration"],
                          extra_features=t["features"])
                    for t in fields["tracks"]
                )
                playlist = Playlist(playlist_id=fields["playlist_id"], tracks=tracks)
                if playlist.playlist_id in playlists:
                    raise SchemaError(f"duplicate playlist_id {playlist.playlist_id!r}")
            except (SchemaError, ConstraintViolation) as exc:
                raise SchemaError(f"{path} line {lineno}: {exc}") from None
            playlists[playlist.playlist_id] = playlist
    if not playlists:
        raise SchemaError(f"{path}: no playlists found")
    return playlists


def _skip_or_raise(err: SchemaError, strict: bool, skipped: str = "session skipped") -> None:
    """Raise ``err`` in strict mode; otherwise log it, and the caller skips on."""
    if strict:
        raise err from None
    log.warning("%s (%s)", err, skipped)


def load_sessions(
    path: str | Path,
    playlists: Mapping[str, Playlist],
    fmt: str = "jsonl",
    strict: bool = True,
    cap: int = DEFAULT_CAP,
) -> Dataset:
    """Read sessions from JSONL or CSV and validate them against rules.

    strict=True raises on the first invalid row/session with its line number;
    strict=False logs a warning, drops the offending session, and continues.
    A session_id seen earlier in a JSONL file is invalid too (strict) or its
    later copy is dropped (lenient). One call builds each distinct (pos,
    action) Event once and validates each distinct (playlist, events) once;
    later sessions with that sequence share its events tuple. Only sequences
    that validate are kept, so every invalid session is reported on its own.
    A byte that is not UTF-8 is refused in either mode, naming its line.
    """
    known: dict[tuple[int, str], Event] = {}
    # (playlist_id, events) -> the validated events tuple
    sequences: dict[tuple[str, tuple[Event, ...]], tuple[Event, ...]] = {}

    def build(session_id: str, playlist_id: str, pairs: Iterable[tuple[int, str]]) -> Session:
        """The session of read (pos, action) pairs; an error names the
        session and rule, and the reader prefixes file and line."""
        if playlist_id not in playlists:
            raise SchemaError(f"session {session_id!r} references unknown playlist {playlist_id!r}")
        events = tuple([known.get(p) or known.setdefault(p, Event(*p)) for p in pairs])
        shared = sequences.get((playlist_id, events))
        session = Session(session_id, playlist_id, shared or events)
        if shared is None:
            validate_session(session, n_tracks=len(playlists[playlist_id]), cap=cap)
            sequences[playlist_id, events] = events
        return session

    readers = {"jsonl": _load_sessions_jsonl, "csv": _load_sessions_csv}
    if fmt not in readers:
        raise SchemaError(f"unknown session format {fmt!r} (expected jsonl or csv)")
    sessions = readers[fmt](Path(path), build, strict)
    if not sessions:
        raise SchemaError(f"{path}: no valid sessions loaded")
    return dataset_from_sessions(playlists, sessions, cap=cap)


# The writer sorts keys, so a written line ends with this pair.
_ID_PAIR = ', "session_id": '
# lines the writer joins into one write
_WRITE_CHUNK_LINES = 1024


def _plain_id(tail: str) -> str | None:
    """V when ``tail``, the text after a line's last _ID_PAIR, is ``"V"}``: a
    JSON string that holds no quote, backslash or unprintable character and
    closes the top-level object. Else None, for an id json.loads would have to
    unescape too. When it is not None, the text before the pair alone decides
    every other field json.loads would read from the line.
    """
    if len(tail) > 2 and tail[0] == '"' and tail.endswith('"}'):
        value = tail[1:-2]
        if '"' not in value and "\\" not in value and value.isprintable():
            return value
    return None


# an event, as both session formats read it
_POSITION = at_least(1)
_ACTION = one_of(*(outcome.value for outcome in Outcome))
# a sessions.jsonl line
_SESSION_FIELDS = {"session_id": string, "playlist_id": string,
                   "events": [{"pos": _POSITION, "action": _ACTION}]}


def _load_sessions_jsonl(path: Path, build, strict: bool) -> list[Session]:
    """Read each line by _SESSION_FIELDS and build it, except a line whose
    tail is a _plain_id and whose text before its last _ID_PAIR an earlier
    such line was accepted with: only its id is read, and it shares that
    line's events. Any other line takes the full path, so every valid line
    loads as json.loads would read it."""
    read = field_reader(_SESSION_FIELDS)
    sessions: list[Session] = []
    first_line: dict[str, int] = {}
    # line text before _ID_PAIR -> (playlist_id, events) accepted with it
    accepted: dict[str, tuple[str, tuple[Event, ...]]] = {}
    with open(path, encoding="utf-8") as fh, _refuse_non_utf8(path):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            head, pair, tail = line.rpartition(_ID_PAIR)
            session_id = _plain_id(tail) if pair else None
            known = None if session_id is None else accepted.get(head)
            if known is not None:
                session = Session(session_id, *known)
            else:
                try:
                    fields = _read_line(line, read)
                    session = build(fields["session_id"], fields["playlist_id"],
                                    [(e["pos"], e["action"]) for e in fields["events"]])
                except (SchemaError, ConstraintViolation) as exc:
                    _skip_or_raise(SchemaError(f"{path} line {lineno}: {exc}"), strict)
                    continue
                if session_id is not None:
                    accepted[head] = (session.playlist_id, session.events)
            first = first_line.setdefault(session.session_id, lineno)
            if first != lineno:
                _skip_or_raise(
                    SchemaError(
                        f"{path} line {lineno}: duplicate session_id "
                        f"{session.session_id!r} (first on line {first})"
                    ),
                    strict,
                )
                continue
            sessions.append(session)
    return sessions


def _csv_position(value) -> int:
    """A sessions.csv pos cell: ASCII decimal digits, read as _POSITION reads them."""
    if type(value) is str and value.isascii() and value.isdigit():
        return _POSITION(int(value))
    raise TypeError(f"must be ASCII decimal digits, got {value!r}")


# a sessions.csv row: one event; a cell the row lacks reads as None
_CSV_FIELDS = {"session_id": string, "playlist_id": string,
               "pos": _csv_position, "action": _ACTION}


def _load_sessions_csv(path: Path, build, strict: bool) -> list[Session]:
    """Read each row by _CSV_FIELDS, refusing one with more cells than the
    header. Sessions' rows may interleave; file order is each one's event
    order. A session is built once its rows are read, and an error there
    names its first line; a refused row names its own and drops its session."""
    # session_id -> (its first line number, playlist_id, (pos, action) pairs)
    rows: dict[str, tuple[int, str, list[tuple[int, str]]]] = {}
    bad: set[str] = set()
    read = field_reader(_CSV_FIELDS)
    with open(path, encoding="utf-8", newline="") as fh, _refuse_non_utf8(path):
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        missing = [c for c in _CSV_FIELDS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing CSV columns {missing}")
        for row in reader:
            sid = row["session_id"]
            try:
                if None in row:  # DictReader's key for the cells past the header
                    n_cells = len(header) + len(row[None])
                    raise SchemaError(f"{n_cells} cells, the header has {len(header)}")
                fields = read(row)
                pid = fields["playlist_id"]
                _, first_pid, pairs = rows.setdefault(sid, (reader.line_num, pid, []))
                if pid != first_pid:
                    raise SchemaError(
                        f"session {sid!r} references two playlists ({first_pid!r} and {pid!r})")
            except SchemaError as exc:
                err = SchemaError(f"{path} line {reader.line_num}: {exc}")
                _skip_or_raise(err, strict, f"session {sid!r} skipped")
                bad.add(sid)
                continue
            pairs.append((fields["pos"], fields["action"]))
    sessions = []
    for sid, (lineno, pid, pairs) in rows.items():
        if sid in bad:
            continue
        try:
            sessions.append(build(sid, pid, pairs))
        except (SchemaError, ConstraintViolation) as exc:
            _skip_or_raise(SchemaError(f"{path} line {lineno}: {exc}"), strict)
    return sessions


def load_dataset(
    sessions_path: str | Path,
    playlists_path: str | Path,
    fmt: str = "jsonl",
    strict: bool = True,
    cap: int = DEFAULT_CAP,
) -> Dataset:
    playlists = load_playlists(playlists_path)
    return load_sessions(sessions_path, playlists, fmt=fmt, strict=strict, cap=cap)


def playlist_to_json(playlist: Playlist) -> dict:
    return {
        "playlist_id": playlist.playlist_id,
        "tracks": [
            {
                "track_id": t.track_id,
                "duration": t.duration,
                "features": {k: v for k, v in t.extra_features},
            }
            for t in playlist.tracks
        ],
    }


def session_to_json(session: Session) -> dict:
    return {
        "session_id": session.session_id,
        "playlist_id": session.playlist_id,
        "events": [
            {"pos": e.track_position, "action": e.outcome.value}
            for e in session.events
        ],
    }


def write_playlists_jsonl(path: str | Path, playlists: Mapping[str, Playlist]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pid in sorted(playlists):
            fh.write(json.dumps(playlist_to_json(playlists[pid]), sort_keys=True))
            fh.write("\n")


def write_sessions_jsonl(path: str | Path, sessions: Iterable[Session]) -> None:
    """One ``json.dumps(session_to_json(s), sort_keys=True)`` line per session.

    Each distinct (events, playlist_id) is encoded once. The sorted keys put
    the session_id pair last, so a session with an earlier session's events
    and playlist writes that line's text up to its _ID_PAIR and then its own
    id: the inverse of the loader's reuse.
    """
    # (events, playlist_id) -> line text through _ID_PAIR
    heads: dict[tuple[tuple[Event, ...], str], str] = {}
    lines: list[str] = []
    with open(path, "w", encoding="utf-8") as fh:
        for session in sessions:
            key = (session.events, session.playlist_id)
            head = heads.get(key)
            if head is None:
                line = json.dumps(session_to_json(session), sort_keys=True)
                heads[key] = line[: line.rfind(_ID_PAIR) + len(_ID_PAIR)]
                lines.append(line + "\n")
            else:
                # what json.dumps calls for a str
                lines.append(head + encode_basestring_ascii(session.session_id) + "}\n")
            if len(lines) == _WRITE_CHUNK_LINES:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))


# ---------------------------------------------------------------------------
# splitting and session-end handling


def split(dataset: Dataset, train_fraction: float = 0.9, seed: int = 0) -> Dataset:
    """Tag each session TRAIN or TEST, stratified per playlist.

    Deterministic for a fixed seed. Playlists with fewer than two sessions go
    entirely to TRAIN (with a warning); otherwise each playlist keeps at least
    one session on each side, within one session of the requested fraction.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConstraintViolation(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    rng = random.Random(seed)
    tags: list[Split | None] = [None] * len(dataset.sessions)
    by_playlist: dict[str, list[int]] = {}
    for idx, session in enumerate(dataset.sessions):
        by_playlist.setdefault(session.playlist_id, []).append(idx)
    for pid in sorted(by_playlist):
        indices = by_playlist[pid]
        n = len(indices)
        if n < 2:
            log.warning(
                "playlist %r has %d session(s); all assigned to TRAIN", pid, n
            )
            for idx in indices:
                tags[idx] = Split.TRAIN
            continue
        shuffled = list(indices)
        rng.shuffle(shuffled)
        n_train = min(n - 1, max(1, round(train_fraction * n)))
        for j, idx in enumerate(shuffled):
            tags[idx] = Split.TRAIN if j < n_train else Split.TEST
    return replace(
        dataset, split_tags=tuple(t if t is not None else Split.TRAIN for t in tags)
    )


def apply_session_end(dataset: Dataset, mode: SessionEndMode) -> Dataset:
    """Normalize session tails under the chosen end-of-session reading.

    Each distinct (events, playlist) is normalized once, so sessions with
    equal events share the result's tuple; a session whose events tuple is
    that result is kept as it is.
    """
    done: dict[tuple[tuple[Event, ...], str], tuple[Event, ...]] = {}
    new_sessions = []
    for session in dataset.sessions:
        key = (session.events, session.playlist_id)
        events = done.get(key)
        if events is None:
            n_tracks = len(dataset.playlists[session.playlist_id])
            events = done[key] = _end_events(session.events, n_tracks, mode)
        new_sessions.append(
            session if events is session.events else replace(session, events=events)
        )
    return replace(dataset, sessions=tuple(new_sessions))


def _end_events(
    events: tuple[Event, ...], n_tracks: int, mode: SessionEndMode
) -> tuple[Event, ...]:
    """``events`` with its tail normalized under ``mode``; the same tuple when
    nothing changes."""
    if mode is SessionEndMode.FULL:
        last = events[-1].track_position
        if last >= n_tracks:
            return events
        return events + tuple(
            Event(track_position=p, outcome=Outcome.SKIP)
            for p in range(last + 1, n_tracks + 1)
        )
    # TRUNCATE: drop everything after the last played/replayed event. A
    # session with no plays keeps its first event (sessions cannot be empty).
    last_play = 0
    for idx, event in enumerate(events, start=1):
        if event.outcome in (Outcome.PLAY, Outcome.REPLAY):
            last_play = idx
    keep = max(last_play, 1)
    return events if keep == len(events) else events[:keep]


# ---------------------------------------------------------------------------
# time features


def event_listening_time(event: Event, playlist: Playlist) -> float:
    """Seconds consumed by one event (0 for a skip)."""
    if event.outcome is Outcome.SKIP:
        return 0.0
    return playlist.track_at(event.track_position).duration


def observed_remaining_time(events: Sequence[Event], playlist: Playlist) -> tuple[float, ...]:
    """Per event position: listening time of this event and every later one.

    Accumulated as a suffix sum from the last event, so every value is >= 0
    and exactly 0 after the last listened event.
    """
    out = []
    tail = 0.0
    for event in reversed(events):
        tail += event_listening_time(event, playlist)
        out.append(tail)
    return tuple(reversed(out))


def predicted_remaining_time(
    train_sessions: Sequence[Session], playlist: Playlist
) -> tuple[float, ...]:
    """Mean remaining listening time by event position, over training sessions.

    Positions beyond a session's length contribute 0 to that position's mean;
    the denominator is always the number of training sessions. Lookups beyond
    the table mean "no training session was ever this long" and read as 0.
    """
    if not train_sessions:
        raise ConstraintViolation(
            "predicted_remaining_time needs at least one training session"
        )
    max_len = max(len(s) for s in train_sessions)
    sums = np.zeros(max_len, dtype=np.float64)
    for session in train_sessions:
        tail = observed_remaining_time(session.events, playlist)
        sums[: len(tail)] += np.asarray(tail)
    return tuple(float(v) for v in sums / len(train_sessions))


# ---------------------------------------------------------------------------
# model-facing feature matrices

@dataclass(frozen=True, slots=True)
class FeatureConfig:
    """Which channels feed the models.

    leak=True swaps the predicted remaining time for the session's observed
    remaining time (a deliberate information leak used for ablations).
    """

    leak: bool = False
    include_duration: bool = False

    @property
    def input_dim(self) -> int:
        return 5 + (1 if self.include_duration else 0)


@dataclass
class FeaturePipeline:
    """Fits per-playlist scaling state on TRAIN sessions, vectorizes any session.

    Row j holds, in columns 0-3, the one-hot outcome of event j-1 in
    OUTCOME_ORDER, or "none" (column 3) for the first event; column 4 the
    remaining time for position j (observed, reading the whole session, under
    leak); and, with include_duration, column 5 the duration of the track row
    j offers: track 1 first, then the one after the last resolved track, or
    the last track once none is left. Time and duration channels are z-scored
    with training statistics; the one-hot passes through unscaled.
    """

    playlist: Playlist
    config: FeatureConfig
    remaining_time_table: tuple[float, ...] = ()
    time_mean: float = 0.0
    time_std: float = 1.0
    duration_mean: float = 0.0
    duration_std: float = 1.0
    fitted: bool = False

    def fit(self, train_sessions: Sequence[Session]) -> "FeaturePipeline":
        self.remaining_time_table = predicted_remaining_time(
            train_sessions, self.playlist
        )
        raw = [self._rows(s.events)[:-1] for s in train_sessions]
        times = np.concatenate([rows[:, 4] for rows in raw])
        self.time_mean = float(np.mean(times))
        self.time_std = _std_floor(np.std(times))
        if self.config.include_duration:
            durations = np.concatenate([rows[:, 5] for rows in raw])
            self.duration_mean = float(np.mean(durations))
            self.duration_std = _std_floor(np.std(durations))
        self.fitted = True
        return self

    def _rows(self, events: Sequence[Event]) -> np.ndarray:
        """Unscaled rows 1..len(events) + 1, row j built from events[:j-1]
        alone: the one row rule. Under leak, column 4 is the remaining time
        observed from ``events``, 0 after the last."""
        n_rows = len(events) + 1
        out = np.zeros((n_rows, self.config.input_dim), dtype=np.float64)
        prev = [N_OUTCOMES] + [e.index for e in events]
        out[np.arange(n_rows), prev] = 1.0
        if self.config.leak:
            out[:, 4] = (*observed_remaining_time(events, self.playlist), 0.0)
        else:
            known = min(n_rows, len(self.remaining_time_table))
            out[:known, 4] = self.remaining_time_table[:known]
        if self.config.include_duration:
            last = len(self.playlist)
            offered = [1] + [min(e.track_position + 1, last) for e in events]
            out[:, 5] = [self.playlist.track_at(k).duration for k in offered]
        return out

    def _scaled(self, rows: np.ndarray) -> np.ndarray:
        if not self.fitted:
            raise ConstraintViolation("feature pipeline used before fit()")
        rows[:, 4] = (rows[:, 4] - self.time_mean) / self.time_std
        if self.config.include_duration:
            rows[:, 5] = (rows[:, 5] - self.duration_mean) / self.duration_std
        return rows

    def matrix(self, session: Session) -> np.ndarray:
        """(n_events, input_dim) float64 model input."""
        return self.prefix_matrix(session.events)[:-1]

    def prefix_matrix(self, events: Sequence[Event]) -> np.ndarray:
        """(len(events) + 1, input_dim) model input of a prefix, ending with
        the row of the event that would follow it."""
        return self._scaled(self._rows(events))

    def labels(self, session: Session) -> np.ndarray:
        """(n_events,) int64 outcome indices."""
        return np.asarray([e.index for e in session.events], dtype=np.int64)

    def to_jsonable(self) -> dict:
        return {
            "playlist_id": self.playlist.playlist_id,
            "config": {
                "leak": self.config.leak,
                "include_duration": self.config.include_duration,
            },
            "remaining_time_table": list(self.remaining_time_table),
            "time_mean": self.time_mean,
            "time_std": self.time_std,
            "duration_mean": self.duration_mean,
            "duration_std": self.duration_std,
        }

    @classmethod
    def from_jsonable(cls, obj: dict, playlist: Playlist) -> "FeaturePipeline":
        """The fitted pipeline to_jsonable wrote, read by _PIPELINE_FIELDS,
        once its playlist id is ``playlist``'s."""
        state = read_fields(obj, _PIPELINE_FIELDS)
        if (stored := state.pop("playlist_id")) != playlist.playlist_id:
            raise SchemaError(
                f"pipeline state is for playlist {stored!r}, got {playlist.playlist_id!r}"
            )
        state["config"] = FeatureConfig(**state["config"])
        state["remaining_time_table"] = tuple(state["remaining_time_table"].tolist())
        return cls(playlist=playlist, fitted=True, **state)


def _std(value) -> float:
    """A stored standard deviation: a finite number > 0, as every fitted one
    is after _std_floor."""
    std = number(value)
    if 0.0 < std < math.inf:
        return std
    raise ValueError(f"must be a finite number > 0, got {value!r}")


# a fitted pipeline's state, as FeaturePipeline.to_jsonable writes it
_PIPELINE_FIELDS = {
    "playlist_id": string, "config": {"leak": boolean, "include_duration": boolean},
    "remaining_time_table": numbers, "time_mean": number, "time_std": _std,
    "duration_mean": number, "duration_std": _std,
}


def _std_floor(value: float) -> float:
    # A constant channel still has to be divisible; unit scale is the
    # convention for zero-variance features.
    return float(value) if value > 1e-12 else 1.0


# ---------------------------------------------------------------------------
# prompt export (text completion format)


def _prompt_heads(events: Sequence[Event], playlist: Playlist) -> list[str]:
    """Line k of a prompt up to its action: "k. (duration=D) action="."""
    return [
        f"{k}. (duration={playlist.track_at(event.track_position).duration:.2f}) action="
        for k, event in enumerate(events, start=1)
    ]


def format_prompt(
    session: Session, playlist: Playlist, position: int
) -> tuple[str, str]:
    """Prompt/completion pair asking for the action at event ``position``.

    The prompt lists every earlier event as "k. (duration=D) action=A" and
    ends with the target line's action left blank. Position is 1-based and
    must be >= 2 (the first event is never predicted).
    """
    if not 2 <= position <= len(session.events):
        raise ConstraintViolation(
            f"prompt position must be in 2..{len(session.events)}, got {position}"
        )
    events = session.events[:position]
    heads = _prompt_heads(events, playlist)
    lines = [head + event.outcome.value for head, event in zip(heads, events)]
    lines[-1] = heads[-1]
    completion = session.events[position - 1].outcome.value
    return "\n".join(lines), completion


def export_prompts(
    dataset: Dataset,
    split_tag: Split | None = None,
    dedupe: bool = False,
) -> Iterator[dict[str, str]]:
    """Yield prompt/completion dicts for every scored position (j >= 2).

    Each session's lines are formatted once; the prompt at position j is the
    first j-1 lines plus line j with its action blank, as in format_prompt.
    dedupe=True keeps the first occurrence of each distinct prompt string, and
    skips a session whose events and playlist were exported already, since
    all its prompts were seen.
    """
    seen: set[str] = set()
    exported: set[tuple[tuple[Event, ...], str]] = set()
    for session in dataset.sessions_for(split=split_tag):
        if dedupe:
            key = (session.events, session.playlist_id)
            if key in exported:
                continue
            exported.add(key)
        heads = _prompt_heads(session.events, dataset.playlists[session.playlist_id])
        done = heads[0] + session.events[0].outcome.value
        for head, event in zip(heads[1:], session.events[1:]):
            completion = event.outcome.value
            prompt = f"{done}\n{head}"
            done = prompt + completion
            if dedupe:
                if prompt in seen:
                    continue
                seen.add(prompt)
            yield {"prompt": prompt, "completion": completion}


def write_prompts_jsonl(
    path: str | Path,
    dataset: Dataset,
    split_tag: Split | None = None,
    dedupe: bool = False,
) -> int:
    """Write prompts.jsonl; returns the number of pairs written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair in export_prompts(dataset, split_tag=split_tag, dedupe=dedupe):
            fh.write(json.dumps(pair, sort_keys=True))
            fh.write("\n")
            count += 1
    return count
