"""Named, independently seeded random streams.

Reproducibility is essential for a simulation-based reproduction: the paper
reports four runs of each experiment configuration; we instead run seeded
repetitions.  :class:`RandomStreams` derives an independent
:class:`numpy.random.Generator` per *named* component (e.g. ``"arrivals"``,
``"background:delft"``, ``"workload-mix"``) from a single root seed using
``numpy``'s ``SeedSequence.spawn`` machinery, so that:

* the same root seed always produces the same experiment, and
* adding a new stochastic component does not perturb the draws of existing
  components (streams are keyed by name, not by creation order).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np


class RandomStreams:
    """A factory of named, independent random number generators.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment.  ``None`` draws entropy from the
        OS (not recommended for experiments, fine for exploration).

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams["arrivals"]
    >>> again = RandomStreams(seed=42)
    >>> float(arrivals.random()) == float(again["arrivals"].random())
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this collection was created with."""
        return self._seed

    def __getitem__(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for stream *name*."""
        if not isinstance(name, str) or not name:
            raise KeyError("stream names must be non-empty strings")
        if name not in self._streams:
            # Derive a child seed deterministically from the root seed and the
            # stream name, independent of creation order.
            digest = np.frombuffer(name.encode("utf-8"), dtype=np.uint8)
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(int(b) for b in digest),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def stream(self, name: str) -> np.random.Generator:
        """Alias of ``self[name]`` for readability at call sites."""
        return self[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterator[str]:
        return iter(self._streams)

    def __len__(self) -> int:
        return len(self._streams)

    def lane_states(self) -> Dict[str, dict]:
        """JSON-able state of every *instantiated* lane, keyed by name.

        The checkpoint layer's capture hook: a lane's
        ``Generator.bit_generator.state`` is a plain dict of ints/strings,
        so the whole mapping serialises losslessly.  Lanes that were never
        drawn from are absent — re-deriving them from the root seed on
        demand is already deterministic.
        """
        return {
            name: _jsonable_state(generator.bit_generator.state)
            for name, generator in sorted(self._streams.items())
        }

    def restore_lane_states(self, states: Dict[str, dict]) -> None:
        """Restore lanes captured by :meth:`lane_states`.

        Each named lane is (re-)instantiated from the root seed and then
        fast-forwarded to its captured state, so subsequent draws continue
        exactly where the checkpointed run left off.
        """
        for name, state in states.items():
            self[name].bit_generator.state = state

    def spawn(self, label: str, index: int) -> "RandomStreams":
        """Derive a child collection (e.g. one per repetition of an experiment).

        The child's streams are independent of the parent's and of siblings
        with different ``(label, index)``.  The child seed comes from the
        root seed through ``SeedSequence``, keyed by the label's UTF-8 bytes
        followed by *index* (a non-negative integer), so it is the same in
        every interpreter — Python's string hashing, which is salted per
        process, plays no part.
        """
        if index < 0:
            raise ValueError(f"spawn index must be non-negative, got {index}")
        key = tuple(label.encode("utf-8")) + (int(index),)
        child = np.random.SeedSequence(entropy=self._root.entropy, spawn_key=key)
        return RandomStreams(seed=int(child.generate_state(1)[0]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self._seed!r}, streams={sorted(self._streams)})"


def _jsonable_state(state: object) -> object:
    """Recursively convert a bit-generator state dict to JSON-able types.

    PCG64 states carry 128-bit Python ints (JSON-safe) and plain strings;
    other bit generators may nest numpy scalars or arrays, which are folded
    to ints and lists so every supported generator round-trips.
    """
    if isinstance(state, dict):
        return {key: _jsonable_state(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return [int(value) for value in state.tolist()]
    if isinstance(state, np.integer):
        return int(state)
    return state
