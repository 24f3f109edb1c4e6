"""Bit-exact grayscale heatmaps of court surfaces.

Binary portable graymaps only: no palette, no compression, nothing that
could vary across platforms.  A surface renders identically everywhere,
which keeps image artifacts usable in byte-comparison tests.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .court import CourtGrid, read_tile_csv


def render_heatmap(values: np.ndarray, grid: CourtGrid, path) -> None:
    """Write one surface as a binary graymap (P5).

    Image width is the tile count along x, height along y; row 0 is the
    row of tiles nearest the baseline.  Pixels scale the value range to
    0..255; a constant surface renders all-zero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (grid.n_tiles,):
        raise ValueError(
            f"surface has {values.size} values, grid has {grid.n_tiles} tiles"
        )
    lo, hi = values.min(), values.max()
    if hi > lo:
        pixels = np.rint(255.0 * (values - lo) / (hi - lo)).astype(np.uint8)
    else:
        pixels = np.zeros(grid.n_tiles, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{grid.nx} {grid.ny}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def render_surface_csv(csv_path, out_dir) -> list:
    """Render every row of a tile-wide CSV to <out>/<id>.pgm, with ``_`` for
    all but ASCII letters, digits, ``-`` and ``_``; an empty id (which would
    name the hidden file ``.pgm``) and ids sharing a file name raise
    ValueError before anything is written."""
    ids, matrix, grid = read_tile_csv(csv_path)
    owner = {}
    for line, name in enumerate(ids, start=2):
        safe = re.sub(r"[^A-Za-z0-9_-]", "_", name)
        if not safe:
            raise ValueError(f"{csv_path}:{line}: empty id would name the image .pgm")
        if safe in owner:
            raise ValueError(f"ids {owner[safe]!r} and {name!r} both map to {safe}.pgm")
        owner[safe] = name
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"{safe}.pgm") for safe in owner]
    for path, row in zip(paths, matrix):
        render_heatmap(row, grid, path)
    return paths
