"""Wire formats, splits, session-end handling, features, and prompt export."""

import csv
import json
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_playlist, make_session, valid_outcome_walks
from seqbundle.dataio import (
    Dataset,
    FeatureConfig,
    FeaturePipeline,
    SessionEndMode,
    Split,
    apply_session_end,
    dataset_from_sessions,
    event_listening_time,
    export_prompts,
    format_prompt,
    load_dataset,
    load_playlists,
    load_sessions,
    observed_remaining_time,
    predicted_remaining_time,
    session_to_json,
    split,
    write_playlists_jsonl,
    write_prompts_jsonl,
    write_sessions_jsonl,
)
from seqbundle import dataio, domain
from seqbundle.domain import Event, Outcome, Session, parse_outcome, validate_session
from seqbundle.errors import ConstraintViolation, SchemaError
from seqbundle.synthgen import CANONICAL_SPEC_NAMES, generate, named_spec


@pytest.fixture
def tiny_dataset(playlist3):
    sessions = [
        make_session(["play", "play", "skip"], sid="a"),
        make_session(["play", "replay", "play", "play"], sid="b"),
        make_session(["skip", "skip", "play"], sid="c"),
    ]
    return dataset_from_sessions({"pl": playlist3}, sessions)


def write_sessions_csv(path, sessions):
    lines = ["session_id,playlist_id,pos,action"]
    for s in sessions:
        for e in s.events:
            lines.append(f"{s.session_id},{s.playlist_id},{e.track_position},{e.outcome.value}")
    path.write_text("\n".join(lines) + "\n")


def reference_load(path, playlists, cap):
    """The loader's result the slow way: one Event(...) per event and one
    validate_session per session, with nothing shared between sessions."""
    sessions = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        events = tuple(
            Event(track_position=int(e["pos"]), outcome=parse_outcome(e["action"]))
            for e in obj["events"]
        )
        session = Session(obj["session_id"], obj["playlist_id"], events)
        validate_session(session, len(playlists[obj["playlist_id"]]), cap=cap)
        sessions.append(session)
    return tuple(sessions)


def spec_for(name, n_sessions):
    """A canonical spec, or "cap3": one whose sessions use a track's third unit."""
    if name != "cap3":
        return named_spec(name, n_sessions=n_sessions)
    return replace(
        named_spec("frequent_pattern", n_sessions=n_sessions),
        cap=3,
        transitions={
            Outcome.SKIP: (0.7, 0.3, 0.0),
            Outcome.PLAY: (0.2, 0.6, 0.2),
            Outcome.REPLAY: (0.4, 0.4, 0.2),
        },
    )


def generated_files(tmp_path, name, n_sessions=300):
    dataset = generate(spec_for(name, n_sessions))
    write_playlists_jsonl(tmp_path / "playlists.jsonl", dataset.playlists)
    write_sessions_jsonl(tmp_path / "sessions.jsonl", dataset.sessions)
    write_sessions_csv(tmp_path / "sessions.csv", dataset.sessions)
    return dataset


def session_line(sid, pid, outcomes):
    return json.dumps(session_to_json(make_session(outcomes, sid=sid, pid=pid)))


class TestRoundTrips:
    def test_jsonl_round_trip(self, tmp_path, tiny_dataset):
        write_playlists_jsonl(tmp_path / "playlists.jsonl", tiny_dataset.playlists)
        write_sessions_jsonl(tmp_path / "sessions.jsonl", tiny_dataset.sessions)
        loaded = load_dataset(tmp_path / "sessions.jsonl", tmp_path / "playlists.jsonl")
        assert loaded.playlists == dict(tiny_dataset.playlists)
        assert loaded.sessions == tiny_dataset.sessions

    def test_csv_matches_jsonl(self, tmp_path, tiny_dataset):
        write_playlists_jsonl(tmp_path / "playlists.jsonl", tiny_dataset.playlists)
        write_sessions_jsonl(tmp_path / "sessions.jsonl", tiny_dataset.sessions)
        write_sessions_csv(tmp_path / "sessions.csv", tiny_dataset.sessions)
        playlists = load_playlists(tmp_path / "playlists.jsonl")
        from_csv = load_sessions(tmp_path / "sessions.csv", playlists, fmt="csv")
        from_jsonl = load_sessions(tmp_path / "sessions.jsonl", playlists)
        assert from_csv.sessions == from_jsonl.sessions

    def test_duplicate_playlist_id_rejected(self, tmp_path, playlist3):
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        line = (tmp_path / "p.jsonl").read_text()
        (tmp_path / "p.jsonl").write_text(line + line)
        with pytest.raises(SchemaError, match="duplicate"):
            load_playlists(tmp_path / "p.jsonl")

    def test_strict_mode_reports_line_number(self, tmp_path, playlist3):
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        bad = {
            "session_id": "x",
            "playlist_id": "pl",
            "events": [
                {"pos": 1, "action": "skip"},
                {"pos": 1, "action": "replay"},
            ],
        }
        (tmp_path / "s.jsonl").write_text(json.dumps(bad) + "\n")
        playlists = load_playlists(tmp_path / "p.jsonl")
        with pytest.raises((SchemaError, ConstraintViolation)):
            load_sessions(tmp_path / "s.jsonl", playlists)

    def test_lenient_mode_drops_bad_session(self, tmp_path, playlist3, caplog):
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        good = {
            "session_id": "ok",
            "playlist_id": "pl",
            "events": [{"pos": 1, "action": "play"}],
        }
        bad = {
            "session_id": "bad",
            "playlist_id": "pl",
            "events": [{"pos": 1, "action": "skip"}, {"pos": 1, "action": "replay"}],
        }
        (tmp_path / "s.jsonl").write_text(
            json.dumps(good) + "\n" + json.dumps(bad) + "\n"
        )
        playlists = load_playlists(tmp_path / "p.jsonl")
        with caplog.at_level(logging.WARNING):
            dataset = load_sessions(tmp_path / "s.jsonl", playlists, strict=False)
        assert [s.session_id for s in dataset.sessions] == ["ok"]
        assert any("bad" in rec.message for rec in caplog.records)

    # a wrongly typed field: test_reports_cli.py TestFieldTables
    @pytest.mark.parametrize("line", ['[1, 2]', '{"session_id": "x", "playlist_id": "pl"}'])
    def test_malformed_session_names_its_line(self, tmp_path, playlist3, line, caplog):
        good = session_line("ok", "pl", ["play"])
        (tmp_path / "s.jsonl").write_text(good + "\n" + line + "\n")
        with pytest.raises(SchemaError, match="line 2: (missing field|expected a JSON object)"):
            load_sessions(tmp_path / "s.jsonl", {"pl": playlist3})
        with caplog.at_level(logging.WARNING):
            loaded = load_sessions(tmp_path / "s.jsonl", {"pl": playlist3}, strict=False)
        assert [s.session_id for s in loaded.sessions] == ["ok"]
        assert len(caplog.records) == 1

    def test_a_deeply_nested_line_is_invalid_json(self, tmp_path, playlist3):
        deep = "[" * 100_000 + "]" * 100_000
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        (tmp_path / "s.jsonl").write_text(session_line("ok", "pl", ["play"]) + "\n" + deep + "\n")
        message = "line 2: invalid JSON (nested too deeply)"
        with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 's.jsonl'} {message}")):
            load_sessions(tmp_path / "s.jsonl", {"pl": playlist3})
        loaded = load_sessions(tmp_path / "s.jsonl", {"pl": playlist3}, strict=False)
        assert [s.session_id for s in loaded.sessions] == ["ok"]
        with open(tmp_path / "p.jsonl", "a", encoding="utf-8") as fh:
            fh.write(deep + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 'p.jsonl'} {message}")):
            load_playlists(tmp_path / "p.jsonl")

    @pytest.mark.parametrize("name,fmt", [("p.jsonl", "jsonl"), ("s.jsonl", "jsonl"),
                                          ("s.csv", "csv")])
    @pytest.mark.parametrize("strict", [True, False])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, playlist3, name, fmt,
                                                    strict):
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        sessions = [make_session(["play"], sid=sid) for sid in ("a", "b", "c")]
        write_sessions_jsonl(tmp_path / "s.jsonl", sessions)
        write_sessions_csv(tmp_path / "s.csv", sessions)
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines.append(b'{"x": "\xe9t\xe9"}\n')  # Latin-1, as a wrongly saved file holds it
        path.write_bytes(b"".join(lines))
        message = f"{path} line {len(lines)}: not UTF-8 (invalid continuation byte)"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_dataset(tmp_path / f"s.{fmt}", tmp_path / "p.jsonl", fmt=fmt, strict=strict)

    def test_orphan_playlist_rejected(self, tmp_path, playlist3):
        write_playlists_jsonl(tmp_path / "p.jsonl", {"pl": playlist3})
        orphan = {
            "session_id": "x",
            "playlist_id": "nope",
            "events": [{"pos": 1, "action": "play"}],
        }
        (tmp_path / "s.jsonl").write_text(json.dumps(orphan) + "\n")
        playlists = load_playlists(tmp_path / "p.jsonl")
        with pytest.raises(SchemaError) as info:
            load_sessions(tmp_path / "s.jsonl", playlists)
        assert str(info.value) == (
            f"{tmp_path / 's.jsonl'} line 1: session 'x' references unknown playlist 'nope'"
        )


class TestSessionLoader:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_walk_runs_once_per_distinct_sequence(self, tmp_path, monkeypatch, fmt):
        dataset = generated_files(tmp_path, "second_order", n_sessions=400)
        distinct = {(s.playlist_id, s.events) for s in dataset.sessions}
        assert len(distinct) < len(dataset.sessions)
        calls = []
        real_walk = domain.walk

        def counting_walk(*args, **kwargs):
            calls.append(1)
            return real_walk(*args, **kwargs)

        monkeypatch.setattr(domain, "walk", counting_walk)
        loaded = load_sessions(
            tmp_path / f"sessions.{fmt}", dataset.playlists, fmt=fmt
        )
        assert len(loaded.sessions) == 400
        assert len(calls) == len(distinct)

    @pytest.mark.parametrize("name", CANONICAL_SPEC_NAMES + ("cap3",))
    def test_load_equals_per_event_reference(self, tmp_path, name):
        dataset = generated_files(tmp_path, name)
        cap = dataset.cap
        playlists = load_playlists(tmp_path / "playlists.jsonl")
        reference = reference_load(tmp_path / "sessions.jsonl", playlists, cap)
        assert reference == dataset.sessions
        for fmt in ("jsonl", "csv"):
            loaded = load_sessions(
                tmp_path / f"sessions.{fmt}", playlists, fmt=fmt, cap=cap
            )
            assert loaded == dataset_from_sessions(playlists, reference, cap=cap)
            # equal sequences share one events tuple, and equal events one Event
            shared = {s.events: s.events for s in loaded.sessions}
            assert all(s.events is shared[s.events] for s in loaded.sessions)
            events = {e: e for s in loaded.sessions for e in s.events}
            assert all(e is events[e] for s in loaded.sessions for e in s.events)
        if cap > 2:
            with pytest.raises(SchemaError, match="cap"):
                load_sessions(tmp_path / "sessions.jsonl", playlists, cap=2)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_sequence_is_checked_against_each_playlist(self, tmp_path, fmt):
        playlists = {"long": make_playlist(4, pid="long"), "short": make_playlist(2, pid="short")}
        walk = ["play", "play", "play"]  # reaches track 3
        sessions = [
            make_session(walk, sid="a", pid="long"),
            make_session(walk, sid="b", pid="short"),
            make_session(walk, sid="c", pid="long"),
        ]
        path = tmp_path / f"s.{fmt}"
        if fmt == "jsonl":
            write_sessions_jsonl(path, sessions)
        else:
            write_sessions_csv(path, sessions)
        with pytest.raises(SchemaError, match=r"line (2|5): session 'b' event 3"):
            load_sessions(path, playlists, fmt=fmt)
        loaded = load_sessions(path, playlists, fmt=fmt, strict=False)
        assert [s.session_id for s in loaded.sessions] == ["a", "c"]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_repeated_invalid_sequence_is_reported_each_time(
        self, tmp_path, playlist3, fmt, caplog
    ):
        good = make_session(["play", "skip"], sid="ok")
        bad = Session("x", "pl", (Event(1, Outcome.SKIP), Event(1, Outcome.REPLAY)))
        sessions = [good] + [replace(bad, session_id=f"bad{k}") for k in range(3)]
        path = tmp_path / f"s.{fmt}"
        if fmt == "jsonl":
            write_sessions_jsonl(path, sessions)
            lines = [2, 3, 4]
        else:
            write_sessions_csv(path, sessions)
            lines = [4, 6, 8]
        with pytest.raises(SchemaError, match=f"line {lines[0]}: session 'bad0'"):
            load_sessions(path, {"pl": playlist3}, fmt=fmt)
        with caplog.at_level(logging.WARNING):
            loaded = load_sessions(path, {"pl": playlist3}, fmt=fmt, strict=False)
        assert [s.session_id for s in loaded.sessions] == ["ok"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 3
        for k, (lineno, message) in enumerate(zip(lines, warnings)):
            assert f"line {lineno}: session 'bad{k}' event 2" in message

    @pytest.mark.deep
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        walks=st.lists(valid_outcome_walks(max_tracks=4), min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), max_size=8),
        ids=st.lists(st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=4),
                     min_size=16, max_size=16, unique=True),
        order=st.randoms(use_true_random=False),
    )
    def test_jsonl_and_interleaved_csv_load_equal_datasets(
        self, tmp_path_factory, walks, picks, ids, order
    ):
        # repeat some walks, so that sequences recur
        walks = walks + [walks[k % len(walks)] for k in picks]
        sessions = [make_session([o.value for o in outcomes], sid=sid, pid=f"p{n}")
                    for sid, (n, outcomes) in zip(ids, walks)]
        playlists = {f"p{n}": make_playlist(n, pid=f"p{n}") for n in range(1, 5)}
        # rows of all sessions in a random interleaving, each session's in order
        turns = [k for k, session in enumerate(sessions) for _ in session.events]
        order.shuffle(turns)
        events = [iter(session.events) for session in sessions]
        rows = [[sessions[k].session_id, sessions[k].playlist_id, event.track_position,
                 event.outcome.value] for k in turns for event in [next(events[k])]]
        # the CSV loader orders sessions by their first rows
        sessions = [sessions[k] for k in dict.fromkeys(turns)]
        base = tmp_path_factory.getbasetemp()
        write_sessions_jsonl(base / "interleaved.jsonl", sessions)
        with open(base / "interleaved.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["session_id", "playlist_id", "pos", "action"], *rows])
        want = dataset_from_sessions(playlists, sessions)
        for fmt in ("jsonl", "csv"):
            loaded = load_sessions(base / f"interleaved.{fmt}", playlists, fmt=fmt)
            assert loaded == want
            shared = {}
            for session in loaded.sessions:
                key = (session.playlist_id, session.events)
                assert shared.setdefault(key, session.events) is session.events

    def test_duplicate_session_id_rejected(self, tmp_path, playlist3):
        path = tmp_path / "s.jsonl"
        path.write_text(
            "\n".join(
                [
                    session_line("a", "pl", ["play", "skip"]),
                    session_line("b", "pl", ["skip", "play"]),
                    session_line("a", "pl", ["skip", "skip"]),
                ]
            )
            + "\n"
        )
        with pytest.raises(SchemaError) as info:
            load_sessions(path, {"pl": playlist3})
        assert str(info.value) == (
            f"{path} line 3: duplicate session_id 'a' (first on line 1)"
        )

    def test_lenient_mode_keeps_first_copy_of_an_id(self, tmp_path, playlist3, caplog):
        path = tmp_path / "s.jsonl"
        path.write_text(
            "\n".join(
                [
                    session_line("a", "pl", ["play", "skip"]),
                    session_line("a", "pl", ["skip", "skip"]),
                    session_line("b", "pl", ["skip", "play"]),
                    session_line("a", "pl", ["play", "play"]),
                ]
            )
            + "\n"
        )
        with caplog.at_level(logging.WARNING):
            loaded = load_sessions(path, {"pl": playlist3}, strict=False)
        assert [s.session_id for s in loaded.sessions] == ["a", "b"]
        assert loaded.sessions[0].outcomes() == (Outcome.PLAY, Outcome.SKIP)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        assert "line 2: duplicate session_id 'a' (first on line 1)" in warnings[0]
        assert "line 4: duplicate session_id 'a' (first on line 1)" in warnings[1]


class _Warnings(logging.Handler):
    """Collects the loader's warning messages (caplog is per test, not per
    hypothesis example)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def per_line_load(path, playlists, strict, cap=domain.DEFAULT_CAP):
    """load_sessions for JSONL with nothing shared between lines: json.loads,
    the session table's read, Event(...), Session(...) and
    domain.validate_session on every line."""
    sessions, first_line = [], {}

    def reject(message):
        if strict:
            raise SchemaError(message)
        dataio.log.warning("%s (%s)", message, "session skipped")

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            try:
                obj = domain.read_fields(json.loads(line), dataio._SESSION_FIELDS)
                sid, pid = obj["session_id"], obj["playlist_id"]
                if pid not in playlists:
                    raise SchemaError(f"session {sid!r} references unknown playlist {pid!r}")
                events = tuple(Event(e["pos"], e["action"]) for e in obj["events"])
                session = Session(sid, pid, events)
                domain.validate_session(session, len(playlists[pid]), cap=cap)
            except json.JSONDecodeError as exc:
                reject(f"{where}: invalid JSON ({exc.msg})")
                continue
            except (SchemaError, ConstraintViolation) as exc:
                reject(f"{where}: {exc}")
                continue
            first = first_line.setdefault(session.session_id, lineno)
            if first != lineno:
                reject(
                    f"{where}: duplicate session_id {session.session_id!r} "
                    f"(first on line {first})"
                )
                continue
            sessions.append(session)
    if not sessions:
        raise SchemaError(f"{path}: no valid sessions loaded")
    return tuple(sessions)


def jsonl_load(path, playlists, strict):
    return load_sessions(path, playlists, strict=strict).sessions


def load_outcome(load, path, playlists, strict):
    """(sessions or None, error text or None, warnings) of one load."""
    handler = _Warnings()
    dataio.log.addHandler(handler)
    try:
        return load(path, playlists, strict), None, handler.messages
    except SchemaError as exc:
        return None, str(exc), handler.messages
    finally:
        dataio.log.removeHandler(handler)


LINE_PLAYLISTS = {"pl": make_playlist(3, pid="pl"), "p2": make_playlist(2, pid="p2")}
# Valid on both playlists, on "pl" only, or on neither (replays a skip; and
# a third unit at cap 2).
EVENT_POOL = [
    session_to_json(make_session(outcomes))["events"]
    for outcomes in (
        ["play", "skip"],
        ["play", "replay", "skip"],
        ["skip", "play", "play"],
        ["skip", "replay"],
        ["play", "replay", "replay"],
    )
]
# Ids json.dumps escapes ("\u00e9", "a\\b", "t\tn\n" and "\u007f" in the writer's
# layout), and two that a hand-written line leaves raw: é, which needs no
# escape, and DEL, which is not printable; so lines with each id are read on
# both sides of the loader's plain-id check.
ID_POOL = ["a", "b", "", 's, "x"', "é", "a\\b", "t\tn\n", "\x7f",
           7, -0.0, 2.5, None, True, ["a"], {"k": "a"}]
TRICKY_VALUES = [
    '], "session_id": ',
    '"}, "session_id": "a"}',
    [["a"], {"session_id": "a"}],
    [[1, {"k": '], "session_id": 1}'}]],
    {"events": [], "session_id": "z"},
]
SEPARATORS = [(", ", ": "), (",", ":"), (" ,  ", " : ")]


@st.composite
def session_lines(draw):
    """A session line: the writer's layout, or its pairs reordered, spaced,
    repeated or extended and non-ASCII text left unescaped, then perhaps cut
    short or run on."""
    pairs = [
        ("events", draw(st.sampled_from(EVENT_POOL))),
        ("playlist_id", draw(st.sampled_from(["pl", "p2", "zz"]))),
        ("session_id", draw(st.sampled_from(ID_POOL))),
    ]
    if draw(st.booleans()):
        line = json.dumps(dict(pairs), sort_keys=True)
    else:
        pairs = draw(st.permutations(pairs))
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from(["events", "playlist_id", "session_id", "zz", "aa"]))
            value = draw(
                st.sampled_from(
                    {
                        "events": EVENT_POOL,
                        "playlist_id": ["pl", "p2", '], "session_id": "q"'],
                        "session_id": ID_POOL,
                    }.get(key, TRICKY_VALUES)
                )
            )
            pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
        comma, colon = draw(st.sampled_from(SEPARATORS))
        line = "{" + comma.join(
            json.dumps(k) + colon + json.dumps(v, ensure_ascii=False) for k, v in pairs
        ) + "}"
    cut = draw(st.sampled_from([0, 0, 0, 1, 2, 5]))
    extra = draw(st.sampled_from(["", "", "", "}", ', "zz": 1}', " ]", "{}"]))
    return line[: len(line) - cut] + extra


class TestRepeatedLines:
    """A line repeating an accepted line's text up to its last session_id
    pair reuses that line's events; every load equals the per-line load."""

    @pytest.mark.deep
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        lines=st.lists(session_lines(), min_size=1, max_size=12),
        order=st.randoms(use_true_random=False),
    )
    def test_load_equals_the_per_line_load(self, tmp_path_factory, lines, order):
        # repeat lines, so that heads recur in the writer's and other layouts
        lines = lines + [order.choice(lines) for _ in range(len(lines))]
        order.shuffle(lines)
        path = tmp_path_factory.getbasetemp() / "repeated.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for strict in (True, False):
            got = load_outcome(jsonl_load, path, LINE_PLAYLISTS, strict)
            want = load_outcome(per_line_load, path, LINE_PLAYLISTS, strict)
            assert got == want
            if got[0] is not None:
                for session in got[0]:
                    assert type(session.session_id) is str

    def test_repeated_lines_share_one_events_tuple_and_one_parse(
        self, tmp_path, monkeypatch
    ):
        dataset = generated_files(tmp_path, "second_order", n_sessions=400)
        heads = {(s.playlist_id, s.events) for s in dataset.sessions}
        calls = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            calls.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(dataio.json, "loads", counting_loads)
        loaded = load_sessions(tmp_path / "sessions.jsonl", dataset.playlists)
        monkeypatch.undo()
        assert loaded.sessions == dataset.sessions
        assert len(calls) == len(heads) < len(dataset.sessions)
        tuples = {}
        for session in loaded.sessions:
            key = (session.playlist_id, session.events)
            assert tuples.setdefault(key, session.events) is session.events

    def test_a_tail_that_sets_other_fields_is_never_reused(self, tmp_path, playlist3):
        # Line 1's own tail replaces its events, so its head must not stand
        # for them: line 2, with the same head, keeps the head's events.
        head = '{"events": [{"action": "play", "pos": 1}], "playlist_id": "pl"'
        path = tmp_path / "s.jsonl"
        path.write_text(
            head + ', "session_id": "a", "events": [{"action": "skip", "pos": 1}]}\n'
            + head + ', "session_id": "b"}\n'
        )
        loaded = load_sessions(path, {"pl": playlist3})
        assert [s.outcomes() for s in loaded.sessions] == [
            (Outcome.SKIP,),
            (Outcome.PLAY,),
        ]

    def test_whitespace_before_the_closing_brace_takes_the_full_parse(
        self, tmp_path, playlist3, monkeypatch
    ):
        good = json.dumps(session_to_json(make_session(["play", "skip"], sid="a")), sort_keys=True)
        head = good[: good.rindex(', "session_id": ')]
        lines = [good, head + ', "session_id": "b" }', head + ', "session_id": "c"}']
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(dataio.json, "loads", counting_loads)
        loaded = load_sessions(path, {"pl": playlist3})
        monkeypatch.undo()
        assert parsed == lines[:2]
        assert [s.session_id for s in loaded.sessions] == ["a", "b", "c"]
        assert len({id(s.events) for s in loaded.sessions}) == 1

    def test_an_id_json_must_unescape_takes_the_full_parse(
        self, tmp_path, playlist3, monkeypatch
    ):
        good = json.dumps(session_to_json(make_session(["play", "skip"], sid="a")), sort_keys=True)
        head = good[: good.rindex(', "session_id": ')]
        # escaped é, an escaped backslash and a raw DEL, then a raw ê and a plain d
        tails = ['"\\u00e9"}', '"b\\\\c"}', '"\x7f"}', '"ê"}', '"d"}']
        lines = [good] + [head + ', "session_id": ' + tail for tail in tails]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(dataio.json, "loads", counting_loads)
        loaded = load_sessions(path, {"pl": playlist3})
        monkeypatch.undo()
        assert parsed == lines[:4]
        assert [s.session_id for s in loaded.sessions] == ["a", "é", "b\\c", "\x7f", "ê", "d"]
        assert len({id(s.events) for s in loaded.sessions}) == 1

    @pytest.mark.parametrize("strict", [True, False])
    def test_bad_tails_after_an_accepted_head_are_reported_per_line(
        self, tmp_path, playlist3, strict
    ):
        good = json.dumps(session_to_json(make_session(["play", "skip"], sid="a")), sort_keys=True)
        head = good[: good.rindex(', "session_id": ')]
        lines = [
            good,
            head + ', "session_id": "b"',  # cut short
            head + ', "session_id": "c", "extra": 1}',
            head + ', "session_id": "a"}',  # repeated id
            head + ', "session_id": 5}',
        ]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        got = load_outcome(jsonl_load, path, {"pl": playlist3}, strict)
        assert got == load_outcome(per_line_load, path, {"pl": playlist3}, strict)
        if strict:
            assert got[1].startswith(f"{path} line 2: invalid JSON")
        else:
            assert [s.session_id for s in got[0]] == ["a", "c"]
            assert got[2][-1].startswith(f"{path} line 5: field 'session_id': must be a string")


class TestCompiledTables:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_a_load_compiles_each_table_once(self, tmp_path, monkeypatch, fmt):
        dataset = generated_files(tmp_path, "second_order", n_sessions=200)
        compiled = []
        real = domain.field_reader

        def counting(table):
            compiled.append(table)
            return real(table)

        monkeypatch.setattr(dataio, "field_reader", counting)
        loaded = load_dataset(tmp_path / f"sessions.{fmt}", tmp_path / "playlists.jsonl", fmt=fmt)
        assert loaded.sessions == dataset.sessions
        table = {"jsonl": dataio._SESSION_FIELDS, "csv": dataio._CSV_FIELDS}[fmt]
        assert compiled == [dataio._PLAYLIST_FIELDS, table]


class TestSplit:
    def make_many(self, n, playlist):
        sessions = [
            make_session(["play", "play", "play"], sid=f"s{i}") for i in range(n)
        ]
        return dataset_from_sessions({"pl": playlist}, sessions)

    @pytest.mark.parametrize("n,frac", [(10, 0.9), (2, 0.9), (7, 0.5), (100, 0.75)])
    def test_train_size_formula(self, playlist3, n, frac):
        dataset = split(self.make_many(n, playlist3), train_fraction=frac, seed=3)
        expected = min(n - 1, max(1, round(frac * n)))
        assert len(dataset.train_sessions()) == expected
        assert len(dataset.test_sessions()) == n - expected

    def test_deterministic_for_seed(self, playlist3):
        a = split(self.make_many(20, playlist3), seed=11)
        b = split(self.make_many(20, playlist3), seed=11)
        assert a.split_tags == b.split_tags
        c = split(self.make_many(20, playlist3), seed=12)
        assert a.split_tags != c.split_tags  # 2^-20 chance collision, fixed seeds

    def test_single_session_playlist_all_train(self, playlist3, caplog):
        dataset = self.make_many(1, playlist3)
        with caplog.at_level(logging.WARNING):
            tagged = split(dataset)
        assert tagged.split_tags == (Split.TRAIN,)
        assert any("all assigned to TRAIN" in rec.getMessage() for rec in caplog.records)

    def test_stratified_per_playlist(self):
        pa, pb = make_playlist(3, pid="a"), make_playlist(3, pid="b")
        sessions = [
            make_session(["play", "play", "play"], sid=f"a{i}", pid="a")
            for i in range(4)
        ] + [
            make_session(["skip", "skip", "skip"], sid=f"b{i}", pid="b")
            for i in range(4)
        ]
        dataset = split(
            dataset_from_sessions({"a": pa, "b": pb}, sessions), train_fraction=0.75
        )
        for pid in ("a", "b"):
            assert len(dataset.train_sessions(pid)) == 3
            assert len(dataset.test_sessions(pid)) == 1

    def test_rejects_bad_fraction(self, playlist3):
        with pytest.raises(ConstraintViolation):
            split(self.make_many(5, playlist3), train_fraction=1.0)


class TestSessionEnd:
    def test_full_pads_skips(self, playlist3):
        dataset = dataset_from_sessions(
            {"pl": playlist3}, [make_session(["play"], sid="s")]
        )
        full = apply_session_end(dataset, SessionEndMode.FULL)
        outcomes = full.sessions[0].outcomes()
        assert outcomes == (Outcome.PLAY, Outcome.SKIP, Outcome.SKIP)

    def test_truncate_drops_after_last_play(self, playlist3):
        dataset = dataset_from_sessions(
            {"pl": playlist3}, [make_session(["play", "replay", "skip"], sid="s")]
        )
        cut = apply_session_end(dataset, SessionEndMode.TRUNCATE)
        assert cut.sessions[0].outcomes() == (Outcome.PLAY, Outcome.REPLAY)

    def test_truncate_keeps_first_event_of_all_skip_session(self, playlist3):
        dataset = dataset_from_sessions(
            {"pl": playlist3}, [make_session(["skip", "skip", "skip"], sid="s")]
        )
        cut = apply_session_end(dataset, SessionEndMode.TRUNCATE)
        assert cut.sessions[0].outcomes() == (Outcome.SKIP,)

    def test_modes_are_idempotent(self, playlist3):
        dataset = dataset_from_sessions(
            {"pl": playlist3}, [make_session(["play", "skip", "skip"], sid="s")]
        )
        for mode in SessionEndMode:
            once = apply_session_end(dataset, mode)
            twice = apply_session_end(once, mode)
            assert once.sessions == twice.sessions


    def test_shared_tuples_stay_shared(self, tmp_path):
        dataset = generated_files(tmp_path, "second_order", n_sessions=400)
        distinct = len({s.events for s in dataset.sessions})
        assert len({id(s.events) for s in dataset.sessions}) == distinct
        for mode in SessionEndMode:
            ended = apply_session_end(dataset, mode)
            want = [
                apply_session_end(dataset_from_sessions(dataset.playlists, [s]), mode).sessions[0]
                for s in dataset.sessions
            ]
            assert ended.sessions == tuple(want)
            assert len({id(s.events) for s in ended.sessions}) == len(
                {s.events for s in ended.sessions}
            ) <= distinct

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_loaded_and_ended_events_are_canonical(self, tmp_path, fmt):
        generated_files(tmp_path, "second_order", n_sessions=200)
        loaded = load_dataset(
            tmp_path / f"sessions.{fmt}", tmp_path / "playlists.jsonl", fmt=fmt
        )
        cut = apply_session_end(loaded, SessionEndMode.TRUNCATE)
        assert cut.sessions != loaded.sessions  # so FULL has skips to append
        ended = apply_session_end(cut, SessionEndMode.FULL)
        for dataset in (loaded, ended):
            assert all(
                e is Event(e.track_position, e.outcome)
                for s in dataset.sessions
                for e in s.events
            )

    def test_one_tuple_on_two_playlists_ends_per_playlist(self):
        events = make_session(["play"]).events
        dataset = dataset_from_sessions(
            {"a": make_playlist(2, pid="a"), "b": make_playlist(3, pid="b")},
            [Session("x", "a", events), Session("y", "b", events), Session("z", "a", events)],
        )
        full = apply_session_end(dataset, SessionEndMode.FULL)
        assert [len(s.events) for s in full.sessions] == [2, 3, 2]
        assert full.sessions[0].events is full.sessions[2].events


class TestSessionWriter:
    """The writer encodes each distinct (events tuple, playlist_id) once; its
    output is the per-session json.dumps loop's."""

    @staticmethod
    def sessions():
        shared = make_session(["play", "replay", "skip"]).events
        ids = ['a"1', "b\\2", "caf\u00e9", "\u65e5\u672c", "e\u2028f", "g", "h"]
        pids = ["pl", 'p, "session_id": "q', "pl"]
        out = []
        for k, sid in enumerate(ids):
            pid = pids[k % len(pids)]
            out.append(Session(sid, pid, shared))
            out.append(Session(sid + "-own", pid, make_session(["skip", "play"]).events))
        return out

    @staticmethod
    def per_session(sessions):
        return "".join(
            json.dumps(session_to_json(s), sort_keys=True) + "\n" for s in sessions
        )

    def test_output_equals_the_per_session_dumps(self, tmp_path):
        sessions = self.sessions()
        write_sessions_jsonl(tmp_path / "s.jsonl", sessions)
        assert (tmp_path / "s.jsonl").read_text(encoding="utf-8") == self.per_session(
            sessions
        )

    def test_a_freed_tuple_id_is_never_reused(self, tmp_path):
        # every session arrives with a fresh tuple that only the writer holds,
        # so a tuple freed after its line could hand its id to the next one
        sessions = [
            Session(f"s{k}", "pl", make_session(outcomes).events)
            for k, outcomes in enumerate(
                [["play"], ["skip"], ["play", "play"], ["skip", "play"]] * 20
            )
        ]
        write_sessions_jsonl(
            tmp_path / "s.jsonl",
            (Session(s.session_id, s.playlist_id, tuple(list(s.events))) for s in sessions),
        )
        assert (tmp_path / "s.jsonl").read_text(encoding="utf-8") == self.per_session(
            sessions
        )

    def test_output_spanning_several_write_chunks(self, tmp_path):
        sessions = list(generate(named_spec("second_order", n_sessions=2500)).sessions)
        write_sessions_jsonl(tmp_path / "s.jsonl", sessions)
        assert (tmp_path / "s.jsonl").read_text(encoding="utf-8") == self.per_session(
            sessions
        )

    def test_generated_sessions_round_trip(self, tmp_path):
        dataset = generated_files(tmp_path, "second_order", n_sessions=400)
        text = (tmp_path / "sessions.jsonl").read_text(encoding="utf-8")
        assert text == self.per_session(dataset.sessions)
        loaded = load_dataset(tmp_path / "sessions.jsonl", tmp_path / "playlists.jsonl")
        assert loaded.sessions == dataset.sessions


class TestRemainingTime:
    def test_listening_time(self, playlist3):
        assert event_listening_time(
            make_session(["skip"]).events[0], playlist3
        ) == 0.0
        assert event_listening_time(
            make_session(["play"]).events[0], playlist3
        ) == 100.0

    def test_observed_remaining_time_is_suffix_sum(self, playlist3):
        session = make_session(["play", "replay", "skip"])
        # listening times are (100, 100, 0); the suffix sums include the event itself
        assert observed_remaining_time(session.events, playlist3) == (200.0, 100.0, 0.0)

    def test_predicted_remaining_time_frozen_example(self):
        playlist = make_playlist(3, durations=(100.0, 200.0, 300.0))
        long = make_session(["play", "play"], sid="a")  # remaining (300, 200)
        short = make_session(["play"], sid="b")  # remaining (100,)
        table = predicted_remaining_time([long, short], playlist)
        # position 1: (300 + 100) / 2; position 2: (200 + 0) / 2, the short
        # session contributing zero beyond its length
        assert table == (200.0, 100.0)

    def test_empty_training_set_rejected(self, playlist3):
        with pytest.raises(ConstraintViolation):
            predicted_remaining_time([], playlist3)

    @settings(max_examples=200, deadline=None)
    @given(
        walk=valid_outcome_walks(max_tracks=6),
        durations=st.lists(
            st.floats(min_value=0.01, max_value=1000.0), min_size=6, max_size=6
        ),
    )
    def test_remaining_time_never_negative(self, walk, durations):
        n, outcomes = walk
        playlist = make_playlist(n, durations=tuple(durations[:n]))
        session = make_session([o.value for o in outcomes])
        observed = observed_remaining_time(session.events, playlist)
        assert all(t >= 0.0 for t in observed)
        listened = [k for k, o in enumerate(outcomes) if o is not Outcome.SKIP]
        after_last = listened[-1] + 1 if listened else 0
        assert all(t == 0.0 for t in observed[after_last:])
        short = make_session([o.value for o in outcomes[:1]], sid="short")
        table = predicted_remaining_time([session, short, session], playlist)
        assert all(t >= 0.0 for t in table)


class TestFeatures:
    def test_first_event_has_no_previous_action(self, playlist3):
        session = make_session(["play", "skip"])
        pipeline = FeaturePipeline(playlist=playlist3, config=FeatureConfig())
        matrix = pipeline.fit([session]).matrix(session)
        assert matrix[0, :4].tolist() == [0.0, 0.0, 0.0, 1.0]  # "none" slot
        assert matrix[1, :4].tolist() == [0.0, 1.0, 0.0, 0.0]  # "play" slot

    def test_leak_requires_observed_time(self, playlist3):
        fit_on = [make_session(["play", "play"], sid="a")]
        session = make_session(["play", "skip"])
        leaky = FeaturePipeline(playlist=playlist3, config=FeatureConfig(leak=True))
        leaky.fit(fit_on)
        times = leaky.matrix(session)[:, 4] * leaky.time_std + leaky.time_mean
        # the session's own remaining time (100, 0), not the training table
        assert times.tolist() == pytest.approx([100.0, 0.0], abs=1e-9)
        # the row after the last event has nothing left to hear
        query = leaky.prefix_matrix(session.events)
        assert query[:-1].tobytes() == leaky.matrix(session).tobytes()
        assert query[-1, 4] * leaky.time_std + leaky.time_mean == pytest.approx(0.0, abs=1e-9)

    def test_matrix_is_z_scored(self, playlist3):
        sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "play", "play"], sid="b"),
        ]
        pipeline = FeaturePipeline(playlist=playlist3, config=FeatureConfig())
        pipeline.fit(sessions)
        stacked = np.concatenate([pipeline.matrix(s) for s in sessions])
        time_channel = stacked[:, 4]
        assert abs(time_channel.mean()) < 1e-12
        assert abs(time_channel.std() - 1.0) < 1e-9

    def test_constant_channel_uses_unit_scale(self):
        playlist = make_playlist(2, durations=(120.0, 120.0))
        sessions = [make_session(["skip", "skip"], sid="a", pid="pl")]
        config = FeatureConfig(include_duration=True)
        pipeline = FeaturePipeline(playlist=playlist, config=config).fit(sessions)
        assert pipeline.duration_std == 1.0
        matrix = pipeline.matrix(sessions[0])
        assert matrix.shape == (2, 6)
        assert np.all(matrix[:, 5] == 0.0)

    def test_duration_is_the_offered_track(self, playlist3):
        # row j offers the track after event j-1's (track 1 first, the last
        # track once none is left), whatever event j then resolves
        sessions = [
            make_session(["play", "replay", "play", "play", "replay"], sid="a"),
            make_session(["skip", "play"], sid="b"),
        ]
        config = FeatureConfig(include_duration=True)
        pipeline = FeaturePipeline(playlist=playlist3, config=config).fit(sessions)
        offered = [100.0, 200.0, 200.0, 300.0, 300.0, 100.0, 200.0]
        assert pipeline.duration_mean == np.mean(offered)
        assert pipeline.duration_std == np.std(offered)
        raw = pipeline.matrix(sessions[0])[:, 5] * pipeline.duration_std + pipeline.duration_mean
        assert raw.tolist() == pytest.approx(offered[:5], abs=1e-9)
        query = pipeline.prefix_matrix(sessions[0].events[:1])
        assert query.tobytes() == pipeline.matrix(sessions[0])[:2].tobytes()

    def test_leak_pipeline_differs_from_honest_one(self, playlist3):
        sessions = [
            make_session(["play", "play", "skip"], sid="a"),
            make_session(["skip", "skip", "play"], sid="b"),
        ]
        honest = FeaturePipeline(playlist=playlist3, config=FeatureConfig()).fit(sessions)
        leaky = FeaturePipeline(
            playlist=playlist3, config=FeatureConfig(leak=True)
        ).fit(sessions)
        assert not np.array_equal(
            honest.matrix(sessions[0]), leaky.matrix(sessions[0])
        )

    def test_pipeline_json_round_trip(self, playlist3):
        sessions = [make_session(["play", "play", "skip"], sid="a")]
        pipeline = FeaturePipeline(playlist=playlist3, config=FeatureConfig()).fit(sessions)
        restored = FeaturePipeline.from_jsonable(pipeline.to_jsonable(), playlist3)
        assert np.array_equal(
            pipeline.matrix(sessions[0]), restored.matrix(sessions[0])
        )

    def test_unfitted_pipeline_rejects_use(self, playlist3):
        pipeline = FeaturePipeline(playlist=playlist3, config=FeatureConfig())
        with pytest.raises(ConstraintViolation, match="fit"):
            pipeline.matrix(make_session(["play"]))


class TestPrompts:
    def test_format_frozen_example(self):
        playlist = make_playlist(3, durations=(100.0, 200.5, 300.0))
        session = make_session(["play", "skip", "play"])
        prompt, completion = format_prompt(session, playlist, 2)
        assert prompt == "1. (duration=100.00) action=play\n2. (duration=200.50) action="
        assert completion == "skip"

    def test_replay_repeats_duration_line(self):
        playlist = make_playlist(2, durations=(100.0, 200.0))
        session = make_session(["play", "replay"])
        prompt, completion = format_prompt(session, playlist, 2)
        assert prompt.endswith("2. (duration=100.00) action=")
        assert completion == "replay"

    def test_position_bounds(self, playlist3):
        session = make_session(["play", "skip"])
        with pytest.raises(ConstraintViolation):
            format_prompt(session, playlist3, 1)
        with pytest.raises(ConstraintViolation):
            format_prompt(session, playlist3, 3)

    def test_prompt_is_literal_text(self, playlist3):
        session = make_session(["play", "replay", "skip"])
        prompt, completion = format_prompt(session, playlist3, 3)
        assert prompt == (
            "1. (duration=100.00) action=play\n"
            "2. (duration=100.00) action=replay\n"
            "3. (duration=200.00) action="
        )
        assert completion == "skip"

    @given(valid_outcome_walks(max_tracks=4))
    @settings(max_examples=60)
    def test_each_line_ends_in_its_action_and_the_last_is_blank(self, walk):
        n, outcomes = walk
        if len(outcomes) < 2:
            return
        playlist = make_playlist(n)
        session = make_session([o.value for o in outcomes])
        for position in range(2, len(outcomes) + 1):
            prompt, completion = format_prompt(session, playlist, position)
            lines = prompt.split("\n")
            assert len(lines) == position
            for k, (line, event) in enumerate(zip(lines, session.events), start=1):
                duration = playlist.track_at(event.track_position).duration
                action = event.outcome.value if k < position else ""
                assert line == f"{k}. (duration={duration:.2f}) action={action}"
            assert completion == outcomes[position - 1].value

    @pytest.mark.parametrize("name", CANONICAL_SPEC_NAMES)
    def test_export_matches_format_prompt_at_every_position(self, tmp_path, name):
        dataset = generate(named_spec(name, n_sessions=200))
        expected = []
        for session in dataset.sessions:
            playlist = dataset.playlists[session.playlist_id]
            for position in range(2, len(session.events) + 1):
                prompt, completion = format_prompt(session, playlist, position)
                expected.append({"prompt": prompt, "completion": completion})
        assert list(export_prompts(dataset)) == expected
        write_prompts_jsonl(tmp_path / "p.jsonl", dataset)
        assert (tmp_path / "p.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(pair, sort_keys=True) + "\n" for pair in expected
        )

    def test_export_dedupes_identical_prompts(self, tmp_path, playlist3):
        sessions = [
            make_session(["play", "skip", "play"], sid="a"),
            make_session(["play", "skip", "play"], sid="b"),
        ]
        dataset = dataset_from_sessions({"pl": playlist3}, sessions)
        pairs = list(export_prompts(dataset, dedupe=True))
        assert len(pairs) == 2  # positions 2 and 3, each appearing once
        n = write_prompts_jsonl(tmp_path / "p.jsonl", dataset, dedupe=False)
        assert n == 4

    @pytest.mark.parametrize("name", CANONICAL_SPEC_NAMES)
    def test_dedupe_formats_each_loaded_sequence_once_with_the_same_output(
        self, tmp_path, monkeypatch, name
    ):
        generated_files(tmp_path, name)
        loaded = load_dataset(tmp_path / "sessions.jsonl", tmp_path / "playlists.jsonl")
        copied = replace(
            loaded,
            sessions=tuple(
                Session(s.session_id, s.playlist_id, tuple(list(s.events)))
                for s in loaded.sessions
            ),
        )
        formatted = []
        real_heads = dataio._prompt_heads

        def counting_heads(events, playlist):
            formatted.append(events)
            return real_heads(events, playlist)

        monkeypatch.setattr(dataio, "_prompt_heads", counting_heads)
        for dataset, out in ((loaded, "shared.jsonl"), (copied, "copied.jsonl")):
            write_prompts_jsonl(tmp_path / out, dataset, dedupe=True)
        distinct = {(s.playlist_id, s.events) for s in loaded.sessions}
        assert len(formatted) == 2 * len(distinct)
        shared = (tmp_path / "shared.jsonl").read_bytes()
        assert shared == (tmp_path / "copied.jsonl").read_bytes()
        assert shared.count(b"\n") == len(list(export_prompts(loaded, dedupe=True)))

    def test_export_respects_split_tag(self, playlist3):
        sessions = [
            make_session(["play", "skip", "play"], sid="a"),
            make_session(["skip", "play", "play"], sid="b"),
        ]
        dataset = Dataset(
            playlists={"pl": playlist3},
            sessions=tuple(sessions),
            split_tags=(Split.TRAIN, Split.TEST),
        )
        test_pairs = list(export_prompts(dataset, split_tag=Split.TEST))
        assert len(test_pairs) == 2
        assert all(p["prompt"].startswith("1. (duration=100.00) action=skip") for p in test_pairs)
