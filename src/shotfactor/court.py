"""Half-court geometry, shot records, tile counts, and train/test splitting."""

from __future__ import annotations

import array
import contextlib
import csv
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def check_number(name, value, low, high=None, integer=False, strict=False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` lies in [low, high],
    or in (low, high) when ``strict``; ``high`` None means no upper bound.

    An integer field takes an Integral and a real field a finite Real;
    neither takes a bool, so a config's ``true`` is not read as 1.  The
    value is never converted.
    """
    if integer:
        kind, ok = "an integer", isinstance(value, numbers.Integral)
    else:
        kind, ok = "a number", isinstance(value, numbers.Real) and abs(value) < math.inf
    if strict:
        bounds = f"> {low}" if high is None else f"in ({low}, {high})"
        ok = ok and low < value and (high is None or value < high)
    else:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        ok = ok and low <= value and (high is None or value <= high)
    if not ok or isinstance(value, bool):
        raise ValueError(f"{name} must be {kind} {bounds}, got {value!r}")


@contextlib.contextmanager
def open_text(path, mode="r"):
    """Open a text file as UTF-8 whatever the locale, with ``newline=""``.

    Reading drops a leading byte-order mark; bytes that are not UTF-8
    raise ValueError naming the file.
    """
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    with open(path, mode, encoding=encoding, newline="") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, two-space indents and a final
    newline."""
    with open_text(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


@dataclass(frozen=True)
class CourtGrid:
    """Rectangular discretization of the offensive half court.

    ``tile_size`` is the ``(x, y)`` pair of tile edges in feet, floats that
    divide the court's sides.  Tiles are half-open boxes ``[a, a + t)``; the
    far edges fold into the last tile so every in-court point maps to
    exactly one tile.  Tile ids are row-major with x varying fastest.
    """

    width: float = 35.0
    length: float = 50.0
    tile_size: tuple[float, float] = (2.5, 2.0)

    def __post_init__(self):
        check_number("width", self.width, 0, strict=True)
        check_number("length", self.length, 0, strict=True)
        sizes = self.tile_size
        if not isinstance(sizes, tuple) or len(sizes) != 2:
            raise ValueError(f"tile_size must be an (x, y) pair, got {sizes!r}")
        for size in sizes:
            check_number("tile_size", size, 0, strict=True)
        object.__setattr__(self, "tile_size", tuple(map(float, sizes)))
        tiles = 1  # tile ids are int64
        for name, size in zip(("width", "length"), self.tile_size):
            side = getattr(self, name)
            tiles *= round(min(side / size, 2**63))
            if tiles >= 2**63:
                raise ValueError(f"tile_size {size} is too small for the court {name} {side}")
            if abs(round(side / size) * size - side) > 1e-9 * side:
                raise ValueError(f"tile_size {size} must divide the court {name} {side}")

    @property
    def nx(self) -> int:
        return round(self.width / self.tile_size[0])

    @property
    def ny(self) -> int:
        return round(self.length / self.tile_size[1])

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def tile_area(self) -> float:
        tx, ty = self.tile_size
        return tx * ty

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Tile-center coordinates along x (nx) and along y (ny)."""
        tx, ty = self.tile_size
        return (np.arange(self.nx) + 0.5) * tx, (np.arange(self.ny) + 0.5) * ty

    def tile_centers(self) -> np.ndarray:
        """(V, 2) array of tile-center coordinates, row-major, x fastest."""
        gx, gy = np.meshgrid(*self.axis_centers())
        return np.column_stack([gx.ravel(), gy.ravel()])

    def contains(self, x, y):
        """Whether each point lies on the court, far edges included; NaN is
        off.  Takes floats or arrays, and is the one on-court rule."""
        return (0 <= x) & (x <= self.width) & (0 <= y) & (y <= self.length)

    def unit_volume(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scale each row of rates (N x V) to integrate to 1 over the court;
        returns (scaled rows, each row's volume)."""
        volumes = rows.sum(axis=1) * self.tile_area
        return rows / volumes[:, None], volumes


@dataclass(eq=False)
class ShotTable:
    """Field-goal attempts as equal-length 1-D columns: row i says that
    player ``ids[codes[i]]`` shot from ``(x[i], y[i])`` and made it
    (``made[i]`` = 1) or missed (0); columns that break this raise ValueError.

    ``ids`` is a sorted tuple of distinct player ids, so a shot's code is its
    id's sorted rank and no per-shot string is kept.  A table taken from
    another keeps its ids, so an id may have no shot.
    """

    ids: tuple[str, ...]
    codes: np.ndarray
    x: np.ndarray
    y: np.ndarray
    made: np.ndarray

    def __post_init__(self):
        self.ids = tuple(self.ids)
        if pair := next(((a, b) for a, b in zip(self.ids, self.ids[1:]) if a >= b), None):
            raise ValueError("ids must be sorted and distinct, got %r before %r" % pair)
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.x, self.y = (np.asarray(c, dtype=np.float64) for c in (self.x, self.y))
        made = np.asarray(self.made)
        shapes = {c.shape for c in (self.codes, self.x, self.y, made)}
        if len(shapes) != 1 or made.ndim != 1:
            raise ValueError(f"columns must be 1-D of one length, got {shapes}")
        bad = (self.codes < 0) | (self.codes >= len(self.ids))
        if np.any(bad):
            raise ValueError(f"codes must lie in [0, {len(self.ids)}), got {self.codes[bad][0]}")
        bad = (made != 0) & (made != 1)
        if np.any(bad):
            raise ValueError(f"made must be 0 or 1, got {made[bad][0].item()!r}")
        self.made = made.astype(np.int64)

    def __len__(self) -> int:
        return len(self.x)

    def take(self, rows) -> ShotTable:
        """The shots at ``rows`` (indices or a boolean mask), in that order."""
        return ShotTable(
            self.ids, self.codes[rows], self.x[rows], self.y[rows], self.made[rows]
        )

    def player_rows(self, players: Sequence[str]) -> np.ndarray:
        """Each shot's position in ``players``, or -1 for a player not in it."""
        row = {p: i for i, p in enumerate(players)}
        lookup = np.array([row.get(p, -1) for p in self.ids], dtype=np.int64)
        return lookup[self.codes]


@dataclass
class CountMatrix:
    """Per-player, per-tile shot counts with row-aligned player ids."""

    counts: np.ndarray
    players: list[str]
    grid: CourtGrid

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (len(self.players), self.grid.n_tiles):
            raise ValueError("counts shape does not match players x tiles")
        if len(set(self.players)) < len(self.players):
            raise ValueError(f"repeated player {max(self.players, key=self.players.count)!r}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")


def tile_indices(xs: np.ndarray, ys: np.ndarray, grid: CourtGrid) -> np.ndarray:
    """Row-major tile id of each point; the court's far edges fold into the
    last tile, and a point off the court (or NaN) raises ValueError."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    off = ~grid.contains(xs, ys)
    if np.any(off):
        i = int(np.argmax(off))
        raise ValueError(_off_court(xs[i], ys[i], grid))
    tx, ty = grid.tile_size
    ix = np.minimum((xs // tx).astype(np.int64), grid.nx - 1)
    iy = np.minimum((ys // ty).astype(np.int64), grid.ny - 1)
    return iy * grid.nx + ix


def _off_court(x, y, grid: CourtGrid) -> str:
    return f"point ({x}, {y}) lies outside the {grid.width} x {grid.length} court"


def build_count_matrix(
    shots: ShotTable,
    grid: CourtGrid,
    min_attempts: int = 0,
    players: Sequence[str] | None = None,
) -> CountMatrix:
    """Assemble the players-by-tiles count matrix.

    Players with fewer than ``min_attempts`` shots are dropped before
    assembly.  Passing ``players`` pins the rows (in that order) instead,
    which is how train/test matrices stay aligned.  Row order is otherwise
    sorted player id.
    """
    check_number("min_attempts", min_attempts, 0, integer=True)
    if len(shots) == 0:
        raise ValueError("no shots supplied")
    if players is None:
        totals = np.bincount(shots.codes, minlength=len(shots.ids)).tolist()
        floor = max(min_attempts, 1)  # an id without shots is never a row
        players = [p for p, total in zip(shots.ids, totals) if total >= floor]
        if not players:
            raise ValueError(
                f"no player reaches the minimum of {min_attempts} attempts"
            )
    rows = shots.player_rows(players)
    keep = rows >= 0
    cells = rows[keep] * grid.n_tiles + tile_indices(shots.x[keep], shots.y[keep], grid)
    counts = np.bincount(cells, minlength=len(players) * grid.n_tiles)
    return CountMatrix(counts.reshape(len(players), grid.n_tiles), list(players), grid)


def split_holdout(
    shots: ShotTable, fraction: float, seed: int
) -> tuple[ShotTable, ShotTable]:
    """Per-player uniform holdout split without replacement.

    Each player contributes round(fraction * M) shots to the test set, at
    least 1 when M >= 2 and at most M - 1 so training is never empty; a
    single-shot player stays entirely in train.  Per-player draws come from
    streams derived from (seed, player rank), so the split does not depend
    on input order.  Both parts keep the input's row order.
    """
    check_number("fraction", fraction, 0, 1, strict=True)
    # draw over content-sorted positions so shuffled input gives the same
    # partition (up to exact-duplicate shots)
    # codes are sorted ranks, so they order players as their ids do
    order = np.lexsort((shots.made, shots.y, shots.x, shots.codes))
    _, starts, sizes = np.unique(
        shots.codes[order], return_index=True, return_counts=True
    )
    in_test = np.zeros(len(shots), dtype=bool)
    for rank, (start, m) in enumerate(zip(starts.tolist(), sizes.tolist())):
        k = min(max(int(round(fraction * m)), 1), m - 1)
        # stream tag 1: split draws stay disjoint from other stages on one seed
        rng = np.random.default_rng([seed, 1, rank])
        in_test[order[start + rng.choice(m, size=k, replace=False)]] = True
    return shots.take(~in_test), shots.take(in_test)


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

SHOT_HEADER = ["player", "x", "y", "made"]


def write_shot_csv(path, shots: ShotTable) -> None:
    # row by row, so no column is copied into a list of Python objects
    xs, ys = map(repr, map(float, shots.x)), map(repr, map(float, shots.y))
    with open_text(path, "w") as f:
        writer = csv.writer(f)
        writer.writerow(SHOT_HEADER)
        players = map(shots.ids.__getitem__, shots.codes)
        writer.writerows(zip(players, xs, ys, map(int, shots.made)))


def read_shot_csv(path, grid: CourtGrid | None = None) -> ShotTable:
    """Read shots written by write_shot_csv.

    After the ``player,x,y,made`` header (in any column order) every row
    holds four fields, a non-empty player id, numeric coordinates and a 0/1
    outcome, and, when a grid is given, a point on the court.  A row that
    breaks this raises ValueError naming the file and line; a file without
    rows names the file.

    The columns grow as typed buffers and each distinct player id is kept
    once, as a code per shot, so no per-shot Python object outlives its row.
    """
    with open_text(path) as f:
        reader = csv.reader(f)
        header = next(reader, [])
        missing = sorted(set(SHOT_HEADER) - set(header))
        if missing:
            raise ValueError(f"{path}:1: missing columns {missing}")
        if len(header) != len(SHOT_HEADER):
            raise ValueError(f"{path}:1: columns {header}, expected {SHOT_HEADER}")
        ip, ix, iy, im = (header.index(c) for c in SHOT_HEADER)
        index = {}  # player id -> its code in order of first appearance
        codes, xs, ys = array.array("q"), array.array("d"), array.array("d")
        made = array.array("b")
        for row in reader:
            try:
                if len(row) != len(SHOT_HEADER):
                    raise ValueError(f"{len(row)} fields, expected {len(SHOT_HEADER)}")
                if not row[ip]:
                    raise ValueError("empty player id")
                x, y, m = float(row[ix]), float(row[iy]), int(row[im])
                if m not in (0, 1):
                    raise ValueError(f"made must be 0 or 1, got {m}")
                if grid is not None and not grid.contains(x, y):
                    raise ValueError(_off_court(x, y, grid))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
            codes.append(index.setdefault(row[ip], len(index)))
            xs.append(x)
            ys.append(y)
            made.append(m)
    if not made:
        raise ValueError(f"{path}: no shots")
    ids = sorted(index)
    rank = np.argsort([index[p] for p in ids])  # first-appearance code -> rank
    return ShotTable(
        ids,
        rank[np.frombuffer(codes, dtype=np.int64)],
        np.frombuffer(xs, dtype=np.float64),
        np.frombuffer(ys, dtype=np.float64),
        np.frombuffer(made, dtype=np.int8),
    )


def _grid_header(grid: CourtGrid) -> str:
    return "# grid " + " ".join(map(repr, (grid.width, grid.length, *grid.tile_size)))


def _parse_grid_header(line: str) -> CourtGrid:
    """Read ``# grid width length tile_x tile_y``, or ``tile_x`` alone for both."""
    parts = line.strip().split()
    if len(parts) not in (5, 6) or parts[0] != "#" or parts[1] != "grid":
        raise ValueError(f"malformed grid header: {line!r}")
    nums = [float(p) for p in parts[2:]]
    return CourtGrid(width=nums[0], length=nums[1], tile_size=(nums[2], nums[-1]))


def write_labeled_csv(
    path, ids: Sequence[str], matrix, grid: CourtGrid | None = None
) -> None:
    """Write one labeled row per id, after a ``# grid`` header when given.

    Integer matrices are written as integers, anything else as
    ``repr(float)``, so a float64 matrix reads back bit for bit.
    """
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.integer):
        matrix = matrix.astype(np.float64)
    with open_text(path, "w") as f:
        if grid is not None:
            f.write(_grid_header(grid) + "\n")
        writer = csv.writer(f)
        for name, row in zip(ids, matrix):
            writer.writerow([name, *row.tolist()])


def read_labeled_csv(
    path, integer: bool = False
) -> tuple[list[str], np.ndarray, CourtGrid | None]:
    """Read a file written by write_labeled_csv: (ids, matrix, grid or None).

    Every row must hold the grid's tile count of values (without a header,
    a one-field first line starting with ``#``, the first row's count); an
    empty row, a value that does not parse, a non-finite value, (with
    ``integer``) a negative, non-integer or beyond-int64 value, or an id
    already on an earlier row raises ValueError naming the file and line,
    and a file without rows names the file.

    The values go into one flat typed buffer that the matrix wraps, so no
    per-value Python object outlives its row.
    """
    parse, values = (int, array.array("q")) if integer else (float, array.array("d"))
    first = {}  # id -> the line it is on, in file order
    grid, width = None, None
    with open_text(path) as f:
        reader = csv.reader(f)
        for row in reader:
            try:
                if reader.line_num == 1 and len(row) == 1 and row[0].startswith("#"):
                    grid = _parse_grid_header(row[0])
                    width = grid.n_tiles
                    continue
                if not row:
                    raise ValueError("empty row")
                if width is None:
                    width = len(row) - 1
                if len(row) - 1 != width:
                    raise ValueError(f"{len(row) - 1} values, expected {width}")
                parsed = [parse(v) for v in row[1:]]
                if integer and min(parsed, default=0) < 0:
                    raise ValueError(f"negative count {min(parsed)}")
                if not integer and not all(map(math.isfinite, parsed)):
                    raise ValueError("non-finite value")
                try:
                    values.extend(parsed)
                except OverflowError as exc:
                    raise ValueError(f"count {max(parsed)} beyond int64") from exc
                line = first.setdefault(row[0], reader.line_num)
                if line != reader.line_num:
                    raise ValueError(f"repeated player {row[0]!r}, first on line {line}")
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not first:
        raise ValueError(f"{path}: no data rows")
    matrix = np.frombuffer(values, dtype=values.typecode).reshape(len(first), width)
    return list(first), matrix, grid


def read_tile_csv(path, grid: CourtGrid | None = None, integer: bool = False):
    """Read a tile-wide file (one value per tile a row) as read_labeled_csv
    does; it must start with a grid header, equal to ``grid`` when given."""
    ids, matrix, found = read_labeled_csv(path, integer)
    if found is None or (grid is not None and found != grid):
        problem = "missing grid header" if found is None else f"grid {found}"
        expected = "" if grid is None else f", expected {grid}"
        raise ValueError(f"{path}:1: {problem}{expected}")
    return ids, matrix, found


def write_count_csv(path, cm: CountMatrix) -> None:
    write_labeled_csv(path, cm.players, cm.counts, cm.grid)


def read_count_csv(path) -> CountMatrix:
    players, counts, grid = read_tile_csv(path, integer=True)
    return CountMatrix(counts, players, grid)
