"""Seeded input generator for the end-to-end benchmark.

Everything here is plain Python over ``random.Random`` and produces
rectangle lists ``[(xl, yl, xh, yh), ...]``; :func:`to_layout` turns one into
a ``repro.Layout`` only at the boundary.  The generator deliberately does not
call :mod:`repro.bench`, so a change to the program's own test-data helpers
cannot silently change what the benchmark measures.

Two input families:

* Table 1 circuits: the fifteen circuit profiles of ``repro.bench.circuits``
  (rows, row length, track fill rate, contact-cluster rate), regenerated as
  rows of segmented minimum-pitch tracks plus 2x2/2x3 contact clusters, with
  a layout seed derived from the benchmark seed.
* Cell traffic: each request is one row of small cells.  Cells come
  from a seeded library with Zipf popularity, plus a seeded share of cells
  never seen before.  Every cell is a single connected component of the
  decomposition graph (cells are redrawn until they are), so the component
  cache sees exactly one lookup per cell: library cells hit once the cache
  is warm and fresh cells miss, whatever order requests arrive in.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

Rect = Tuple[int, int, int, int]

#: Technology of the paper's 20 nm half-pitch Metal1 layer (nm).
WIDTH = 20
SPACING = 20
PITCH = WIDTH + SPACING
#: Quadruple-patterning coloring distance ``2*s_m + 2*w_m``.
COLORING_DISTANCE = 2 * SPACING + 2 * WIDTH

#: Table 1 circuit profiles: (name, rows, row_length, fill_rate, cluster_rate),
#: the size/density columns of ``repro.bench.circuits.CIRCUIT_PROFILES``.
TABLE1_PROFILES: Tuple[Tuple[str, int, int, float, float], ...] = (
    ("C432", 5, 5000, 0.50, 0.6),
    ("C499", 5, 5600, 0.52, 0.6),
    ("C880", 6, 5600, 0.52, 0.5),
    ("C1355", 6, 6000, 0.54, 0.5),
    ("C1908", 7, 6000, 0.54, 0.7),
    ("C2670", 8, 6400, 0.55, 0.6),
    ("C3540", 9, 6400, 0.55, 0.7),
    ("C5315", 10, 7200, 0.56, 0.8),
    ("C6288", 10, 7200, 0.70, 2.0),
    ("C7552", 11, 7600, 0.58, 0.9),
    ("S1488", 7, 5600, 0.52, 0.6),
    ("S38417", 24, 12000, 0.60, 1.2),
    ("S35932", 28, 13000, 0.62, 1.3),
    ("S38584", 27, 12600, 0.61, 1.25),
    ("S15850", 26, 12200, 0.61, 1.25),
)

TRACKS_PER_ROW = 8
SEGMENT_LENGTH = (160, 600)
GAP_LENGTH = (60, 320)
CLUSTER_PITCH = WIDTH + 2 * SPACING
ROW_GAP = 3 * SPACING


def derive_seed(seed: int, *labels: object) -> int:
    """Return a 63-bit seed derived from ``seed`` and ``labels``."""
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


# --------------------------------------------------------------- Table 1
def circuit_rects(
    profile: Tuple[str, int, int, float, float], seed: int, scale: float = 1.0
) -> List[Rect]:
    """Regenerate one Table 1 profile as a rectangle list.

    ``scale`` shrinks rows and row length by ``sqrt(scale)`` each, keeping
    density and aspect ratio.
    """
    name, rows, row_length, fill_rate, cluster_rate = profile
    rng = random.Random(derive_seed(seed, "table1", name))
    axis = scale**0.5
    rows = max(1, round(rows * axis))
    row_length = max(2 * SEGMENT_LENGTH[1], round(row_length * axis))
    row_height = TRACKS_PER_ROW * PITCH
    # A fixed cluster count (placed in random rows) instead of a Poisson
    # draw per row keeps the density and cuts the seed-to-seed spread of
    # the native conflicts, which dominate the cost of the SDP pieces.
    cluster_rows = [rng.randrange(rows) for _ in range(round(cluster_rate * rows))]
    rects: List[Rect] = []
    for row in range(rows):
        row_y = row * (row_height + ROW_GAP)
        rects.extend(_tracks(rng, row_y, row_length, fill_rate))
        rects.extend(_clusters(rng, cluster_rows.count(row), row_y, row_height, row_length))
    return rects


def _tracks(rng: random.Random, row_y: int, row_length: int, fill_rate: float) -> List[Rect]:
    """Segmented wires on every minimum-pitch track of one row."""
    rects: List[Rect] = []
    for track in range(TRACKS_PER_ROW):
        y = row_y + track * PITCH
        x = rng.randint(0, GAP_LENGTH[1])
        while x < row_length - SEGMENT_LENGTH[0]:
            if rng.random() < fill_rate:
                end = min(x + rng.randint(*SEGMENT_LENGTH), row_length)
                if end - x >= WIDTH:
                    rects.append((x, y, end, y + WIDTH))
                x = end
            x += max(rng.randint(*GAP_LENGTH), SPACING)
    return rects


def _clusters(
    rng: random.Random, count: int, row_y: int, row_height: int, row_length: int
) -> List[Rect]:
    """Dense 2x2 / 2x3 contact clusters, the native-conflict generators."""
    rects: List[Rect] = []
    for _ in range(count):
        columns = 2 if rng.random() < 0.7 else 3
        max_x = row_length - ((columns - 1) * CLUSTER_PITCH + WIDTH)
        if max_x <= 0:
            continue
        x0 = rng.randint(0, max_x)
        y0 = row_y + rng.randint(0, max(row_height - CLUSTER_PITCH - WIDTH, 1))
        for i in range(2):
            for j in range(columns):
                x, y = x0 + j * CLUSTER_PITCH, y0 + i * CLUSTER_PITCH
                rects.append((x, y, x + WIDTH, y + WIDTH))
    return rects


@dataclass(frozen=True)
class Circuit:
    name: str
    rects: List[Rect]


def table1_circuits(seed: int, scale: float, names: Sequence[str] = ()) -> List[Circuit]:
    """All (or the named) Table 1 circuits for one benchmark seed."""
    chosen = [p for p in TABLE1_PROFILES if not names or p[0] in names]
    return [Circuit(p[0], circuit_rects(p, seed, scale)) for p in chosen]


# ----------------------------------------------------------- cell traffic
CELL_WIDTH = (1440, 2160)
CELL_FILL = 0.6
#: Free space between cells: far beyond the coloring distance, so cells
#: never interact.
CELL_SPACING = 4 * COLORING_DISTANCE
LIBRARY_SIZE = 256
CELLS_PER_REQUEST = 23
ZIPF_EXPONENT = 0.5
FRESH_SHARE = (0.10, 0.14)


def cell_rects(seed: int) -> List[Rect]:
    """One cell with its lower-left corner at the origin.

    Segmented tracks and one contact cluster, as in the circuits, redrawn
    until the cell is one connected component of the conflict graph.
    """
    rng = random.Random(seed)
    while True:
        width = rng.randint(*CELL_WIDTH)
        rects = _tracks(rng, 0, width, CELL_FILL)
        rects.extend(_clusters(rng, 1, 0, TRACKS_PER_ROW * PITCH, width))
        if _connected(rects):
            return rects


def _connected(rects: Sequence[Rect]) -> bool:
    """Whether the rects form one component under the coloring distance."""
    parent = list(range(len(rects)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    limit = COLORING_DISTANCE * COLORING_DISTANCE
    for i, (axl, ayl, axh, ayh) in enumerate(rects):
        for j in range(i):
            bxl, byl, bxh, byh = rects[j]
            dx = max(0, bxl - axh, axl - bxh)
            dy = max(0, byl - ayh, ayl - byh)
            if dx * dx + dy * dy < limit:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(rects))}) == 1


@dataclass(frozen=True)
class CellRequest:
    """One request: a row of cells; ``fresh`` counts the never-seen ones."""

    name: str
    rects: List[Rect]
    cells: int
    fresh: int


class CellTraffic:
    """Seeded request stream over a Zipf-popular cell library."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(derive_seed(seed, "cells"))
        self.fresh_share = rng.uniform(*FRESH_SHARE)
        self.library = [
            cell_rects(derive_seed(seed, "library", index)) for index in range(LIBRARY_SIZE)
        ]
        self._weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(LIBRARY_SIZE)]

    def warmup(self) -> CellRequest:
        """Every library cell once: the request that warms a cold cache."""
        return _row("warmup", self.library, fresh=0)

    def requests(self, stream: str) -> Iterator[CellRequest]:
        """The named stream's requests, without end (streams share the library)."""
        rng = random.Random(derive_seed(self.seed, "stream", stream))
        for index in itertools.count():
            cells, fresh = [], 0
            for slot in range(CELLS_PER_REQUEST):
                if rng.random() < self.fresh_share:
                    cells.append(cell_rects(derive_seed(self.seed, stream, index, slot)))
                    fresh += 1
                else:
                    pick = rng.choices(range(LIBRARY_SIZE), weights=self._weights)[0]
                    cells.append(self.library[pick])
            yield _row(f"{stream}-{index}", cells, fresh)

    def first(self, stream: str, count: int) -> List[CellRequest]:
        """The first ``count`` requests of the named stream."""
        return list(itertools.islice(self.requests(stream), count))


def _row(name: str, cells: Sequence[List[Rect]], fresh: int) -> CellRequest:
    rects: List[Rect] = []
    x0 = 0
    for cell in cells:
        rects.extend((xl + x0, yl, xh + x0, yh) for xl, yl, xh, yh in cell)
        x0 += max(xh for _, _, xh, _ in cell) + CELL_SPACING
    return CellRequest(name, rects, len(cells), fresh)


def to_layout(name: str, rects: Sequence[Rect]):
    """Build the program's ``Layout`` (layer ``metal1``) from a rect list."""
    from repro import Layout, Rect as ReproRect

    layout = Layout(name=name)
    for xl, yl, xh, yh in rects:
        layout.add_rect(ReproRect(xl, yl, xh, yh), layer="metal1")
    return layout
