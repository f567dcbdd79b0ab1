"""Unit tests of the named random-stream factory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sim import RandomStreams


def test_same_seed_same_stream_reproduces_draws():
    a = RandomStreams(seed=7)["arrivals"]
    b = RandomStreams(seed=7)["arrivals"]
    assert [float(a.random()) for _ in range(5)] == [float(b.random()) for _ in range(5)]


def test_different_streams_are_independent_of_creation_order():
    forward = RandomStreams(seed=3)
    x1 = float(forward["x"].random())
    _ = forward["y"].random()

    backward = RandomStreams(seed=3)
    _ = backward["y"].random()
    x2 = float(backward["x"].random())
    assert x1 == x2


def test_different_names_give_different_sequences():
    streams = RandomStreams(seed=11)
    a = [float(streams["a"].random()) for _ in range(3)]
    b = [float(streams["b"].random()) for _ in range(3)]
    assert a != b


def test_different_seeds_give_different_sequences():
    a = float(RandomStreams(seed=1)["s"].random())
    b = float(RandomStreams(seed=2)["s"].random())
    assert a != b


def test_stream_names_must_be_nonempty_strings():
    streams = RandomStreams(seed=0)
    with pytest.raises(KeyError):
        streams[""]
    with pytest.raises(KeyError):
        streams[42]  # type: ignore[index]


def test_contains_len_and_iteration():
    streams = RandomStreams(seed=0)
    assert "x" not in streams
    _ = streams["x"]
    _ = streams["y"]
    assert "x" in streams and "y" in streams
    assert len(streams) == 2
    assert sorted(streams) == ["x", "y"]


def test_spawn_children_are_deterministic_and_distinct():
    parent = RandomStreams(seed=5)
    child_a = parent.spawn("repetition", 0)
    child_b = parent.spawn("repetition", 1)
    again = RandomStreams(seed=5).spawn("repetition", 0)
    assert float(child_a["w"].random()) == float(again["w"].random())
    assert float(child_a["w"].random()) != float(child_b["w"].random())


def test_spawn_gives_the_same_child_in_every_interpreter():
    """String hashing is salted per process; the child seed must not be."""
    script = (
        "from repro.sim import RandomStreams; "
        "print(RandomStreams(seed=7).spawn('rep', 1).seed)"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    seeds = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        seeds.add(result.stdout.strip())
    assert len(seeds) == 1
    assert seeds == {str(RandomStreams(seed=7).spawn("rep", 1).seed)}


def test_spawn_keys_label_and_index_apart():
    parent = RandomStreams(seed=7)
    seeds = {
        parent.spawn(label, index).seed
        for label, index in [("rep", 1), ("rep", 2), ("re", 1), ("rep1", 0), ("", 0)]
    }
    assert len(seeds) == 5
    with pytest.raises(ValueError):
        parent.spawn("rep", -1)


@given(name=st.text(min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_any_stream_name_is_reproducible(name):
    """Whatever the stream name, the same seed reproduces the same draws."""
    first = float(RandomStreams(seed=99)[name].random())
    second = float(RandomStreams(seed=99)[name].random())
    assert first == second
