"""The ``views_rw`` update generator: a sliding window of valid deltas.

Every delta it emits is one the server must accept:

* inserts pick an ``R`` row that is absent and was never present
  before, under a fresh annotation (re-inserting a present row under a
  new annotation is rejected as "already annotated");
* the delete removes the oldest row the generator itself inserted,
  which is still present;
* retags name a present generator row (never the one deleted in the
  same batch) and give it a fresh annotation.

Each inserted row ``(x, y)`` has ``y`` in the ``S`` join column, so
every batch changes the maintained view ``V(x, z) :- R(x, y), S(y, z)``
and produces exactly one changefeed event.  Once the window is full
every batch inserts one row and deletes one, so the database size, and
with it the per-update cost, stays steady over a run.

The generator keeps the mirror database (``relation -> {row:
annotation}``) the oracle evaluates ad-hoc answers and final views on.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Tuple

Row = Tuple[int, ...]

#: Every ``RETAG_EVERY``-th batch also retags one window row.
RETAG_EVERY = 4


class SlidingWindow:
    """Seeded generator of ``POST /v1/update`` payloads over ``R``."""

    def __init__(
        self, mirror: Dict[str, Dict[Row, str]], domain: int, window: int, seed: int
    ):  # noqa: D107
        self.mirror = mirror
        self._rng = random.Random(seed)
        self._domain = domain
        self._window_size = window
        self._window: deque = deque()
        self._ever = set(mirror["R"])
        self._join_values = sorted({row[0] for row in mirror["S"]})
        self._serial = 0
        self._batches = 0
        self._tag = "u{}x".format(seed)

    def _fresh_annotation(self) -> str:
        self._serial += 1
        return "{}{}".format(self._tag, self._serial)

    def _fresh_row(self) -> Row:
        for _ in range(10000):
            row = (
                self._rng.randrange(self._domain),
                self._rng.choice(self._join_values),
            )
            if row not in self._ever:
                return row
        raise RuntimeError("no fresh R row left in the domain")

    @property
    def full(self) -> bool:
        """Has the window reached its steady size?"""
        return len(self._window) >= self._window_size

    def next_batch(self) -> dict:
        """The next delta batch (applied to the mirror as it is made)."""
        relation = self.mirror["R"]
        self._batches += 1
        batch: dict = {}
        if self.full:
            deleted = self._window.popleft()
            del relation[deleted]
            batch["delete"] = {"R": [list(deleted)]}
        row = self._fresh_row()
        annotation = self._fresh_annotation()
        self._ever.add(row)
        relation[row] = annotation
        self._window.append(row)
        batch["insert"] = {"R": [{"row": list(row), "annotation": annotation}]}
        if self._batches % RETAG_EVERY == 0 and len(self._window) > 1:
            # Deletes apply before inserts and retags within a batch, so
            # only rows still present after this batch are candidates.
            target = self._window[self._rng.randrange(len(self._window) - 1)]
            retag = self._fresh_annotation()
            relation[target] = retag
            batch["retag"] = {"R": [{"row": list(target), "annotation": retag}]}
        return batch
