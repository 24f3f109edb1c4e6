"""Half-court geometry, shot records, tile counts, and train/test splitting."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class CourtGrid:
    """Rectangular discretization of the offensive half court.

    ``tile_size`` is either a single edge length in feet (square tiles) or an
    ``(x, y)`` pair.  Tiles are half-open boxes ``[a, a + t)`` along each axis;
    the court's far edges fold into the last tile so every in-court point maps
    to exactly one tile.  Tile ids are row-major with x varying fastest.
    """

    width: float = 35.0
    length: float = 50.0
    tile_size: float | tuple[float, float] = 1.0

    def __post_init__(self):
        if self.width <= 0 or self.length <= 0:
            raise ValueError("court dimensions must be positive")
        tx, ty = self.tile_dims
        if tx <= 0 or ty <= 0:
            raise ValueError("tile_size must be positive")
        if isinstance(self.tile_size, list):
            object.__setattr__(self, "tile_size", tuple(self.tile_size))

    @property
    def tile_dims(self) -> tuple[float, float]:
        t = self.tile_size
        if isinstance(t, (tuple, list)):
            return float(t[0]), float(t[1])
        return float(t), float(t)

    @property
    def nx(self) -> int:
        return int(np.ceil(self.width / self.tile_dims[0]))

    @property
    def ny(self) -> int:
        return int(np.ceil(self.length / self.tile_dims[1]))

    @property
    def n_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def tile_area(self) -> float:
        tx, ty = self.tile_dims
        return tx * ty

    def tile_centers(self) -> np.ndarray:
        """(V, 2) array of tile-center coordinates, row-major, x fastest."""
        tx, ty = self.tile_dims
        xs = (np.arange(self.nx) + 0.5) * tx
        ys = (np.arange(self.ny) + 0.5) * ty
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class ShotEvent:
    """One field-goal attempt: who, where on the court, and the outcome."""

    player: str
    x: float
    y: float
    made: int

    def __post_init__(self):
        if self.made not in (0, 1):
            raise ValueError(f"made must be 0 or 1, got {self.made!r}")


@dataclass
class CountMatrix:
    """Per-player, per-tile shot counts with row-aligned player ids."""

    counts: np.ndarray
    players: list[str]
    grid: CourtGrid

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValueError("counts must be 2-D")
        if self.counts.shape != (len(self.players), self.grid.n_tiles):
            raise ValueError("counts shape does not match players x tiles")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")


def tile_index(x: float, y: float, grid: CourtGrid) -> int:
    """Map an in-court point to its row-major tile id.

    Raises ValueError for points outside the court rectangle.
    """
    if not (0.0 <= x <= grid.width and 0.0 <= y <= grid.length):
        raise ValueError(
            f"point ({x}, {y}) lies outside the {grid.width} x {grid.length} court"
        )
    tx, ty = grid.tile_dims
    ix = min(int(x // tx), grid.nx - 1)
    iy = min(int(y // ty), grid.ny - 1)
    return iy * grid.nx + ix


def tile_indices(xs: np.ndarray, ys: np.ndarray, grid: CourtGrid) -> np.ndarray:
    """Vectorized tile_index; raises naming the first offending point."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    bad = (xs < 0) | (xs > grid.width) | (ys < 0) | (ys > grid.length)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"point ({xs[i]}, {ys[i]}) lies outside the "
            f"{grid.width} x {grid.length} court"
        )
    tx, ty = grid.tile_dims
    ix = np.minimum((xs // tx).astype(np.int64), grid.nx - 1)
    iy = np.minimum((ys // ty).astype(np.int64), grid.ny - 1)
    return iy * grid.nx + ix


def build_count_matrix(
    shots: Sequence[ShotEvent],
    grid: CourtGrid,
    min_attempts: int = 50,
    players: Sequence[str] | None = None,
) -> CountMatrix:
    """Assemble the players-by-tiles count matrix.

    Players with fewer than ``min_attempts`` shots are dropped before
    assembly.  Passing ``players`` pins the rows (in that order) instead,
    which is how train/test matrices stay aligned.  Row order is otherwise
    sorted player id.
    """
    if not shots:
        raise ValueError("no shots supplied")
    if players is None:
        totals: dict[str, int] = {}
        for s in shots:
            totals[s.player] = totals.get(s.player, 0) + 1
        players = sorted(p for p, m in totals.items() if m >= min_attempts)
        if not players:
            raise ValueError(
                f"no player reaches the minimum of {min_attempts} attempts"
            )
    row = {p: i for i, p in enumerate(players)}
    counts = np.zeros((len(players), grid.n_tiles), dtype=np.int64)
    for s in shots:
        i = row.get(s.player)
        if i is None:
            continue
        counts[i, tile_index(s.x, s.y, grid)] += 1
    return CountMatrix(counts, list(players), grid)


def split_holdout(
    shots: Sequence[ShotEvent], fraction: float, seed: int
) -> tuple[list[ShotEvent], list[ShotEvent]]:
    """Per-player uniform holdout split without replacement.

    Each player contributes round(fraction * M) shots to the test set, at
    least 1 when M >= 2 and at most M - 1 so training is never empty; a
    single-shot player stays entirely in train.  Per-player draws come from
    streams derived from (seed, player rank), so the split does not depend
    on input order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    by_player: dict[str, list[int]] = {}
    for i, s in enumerate(shots):
        by_player.setdefault(s.player, []).append(i)
    in_test = np.zeros(len(shots), dtype=bool)
    for rank, player in enumerate(sorted(by_player)):
        # draw over content-sorted positions so shuffled input gives the
        # same partition (up to exact-duplicate shots)
        idx = sorted(
            by_player[player], key=lambda i: (shots[i].x, shots[i].y, shots[i].made)
        )
        m = len(idx)
        if m < 2:
            continue
        k = min(max(int(round(fraction * m)), 1), m - 1)
        # stream tag 1: split draws stay disjoint from other stages on one seed
        rng = np.random.default_rng([seed, 1, rank])
        for j in rng.choice(m, size=k, replace=False):
            in_test[idx[j]] = True
    train = [s for i, s in enumerate(shots) if not in_test[i]]
    test = [s for i, s in enumerate(shots) if in_test[i]]
    return train, test


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

SHOT_HEADER = ["player", "x", "y", "made"]


def write_shot_csv(path, shots: Sequence[ShotEvent]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SHOT_HEADER)
        for s in shots:
            writer.writerow([s.player, repr(float(s.x)), repr(float(s.y)), s.made])


def read_shot_csv(path, grid: CourtGrid | None = None) -> list[ShotEvent]:
    """Read shots, validating outcomes and (when a grid is given) locations."""
    shots = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = set(SHOT_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        for line, row in enumerate(reader, start=2):
            try:
                shot = ShotEvent(
                    player=row["player"],
                    x=float(row["x"]),
                    y=float(row["y"]),
                    made=int(row["made"]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from exc
            if grid is not None:
                tile_index(shot.x, shot.y, grid)
            shots.append(shot)
    return shots


def _grid_header(grid: CourtGrid) -> str:
    tx, ty = grid.tile_dims
    if tx == ty:
        return f"# grid {repr(grid.width)} {repr(grid.length)} {repr(tx)}"
    return f"# grid {repr(grid.width)} {repr(grid.length)} {repr(tx)} {repr(ty)}"


def _parse_grid_header(line: str) -> CourtGrid:
    parts = line.strip().split()
    if len(parts) not in (5, 6) or parts[0] != "#" or parts[1] != "grid":
        raise ValueError(f"malformed grid header: {line!r}")
    nums = [float(p) for p in parts[2:]]
    tile = nums[2] if len(nums) == 3 else (nums[2], nums[3])
    return CourtGrid(width=nums[0], length=nums[1], tile_size=tile)


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
    with open(path, "w", newline="") as f:
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
    the first row's count); an empty row, a value that does not parse, or
    (with ``integer``) a negative or non-integer value raises ValueError
    naming the file and line, and a file without rows names the file.
    """
    parse = int if integer else float
    ids, rows = [], []
    grid, width = None, None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for row in reader:
            line = reader.line_num
            if line == 1 and row and row[0].startswith("#"):
                try:
                    grid = _parse_grid_header(row[0])
                except ValueError as exc:
                    raise ValueError(f"{path}:1: {exc}") from exc
                width = grid.n_tiles
                continue
            if not row:
                raise ValueError(f"{path}:{line}: empty row")
            if width is None:
                width = len(row) - 1
            if len(row) - 1 != width:
                raise ValueError(
                    f"{path}:{line}: {len(row) - 1} values, expected {width}"
                )
            try:
                rows.append([parse(v) for v in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from exc
            if integer and min(rows[-1], default=0) < 0:
                raise ValueError(f"{path}:{line}: negative count {min(rows[-1])}")
            ids.append(row[0])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    matrix = np.array(rows, dtype=np.int64 if integer else np.float64)
    return ids, matrix, grid


def write_count_csv(path, cm: CountMatrix) -> None:
    write_labeled_csv(path, cm.players, cm.counts, cm.grid)


def read_count_csv(path) -> CountMatrix:
    players, counts, grid = read_labeled_csv(path, integer=True)
    if grid is None:
        raise ValueError(f"{path}:1: missing grid header")
    return CountMatrix(counts, players, grid)
