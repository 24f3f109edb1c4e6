"""Tests for the binary graymap renderer."""

import numpy as np
import pytest

from shotfactor.court import CourtGrid, write_labeled_csv
from shotfactor.render import render_heatmap, render_surface_csv


def read_heatmap(path) -> np.ndarray:
    """Read back a P5 graymap written by render_heatmap, as a (ny, nx) array."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary graymap: magic {magic!r}")
        nx, ny = (int(t) for t in f.readline().split())
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval}")
        data = f.read(nx * ny)
    if len(data) != nx * ny:
        raise ValueError("truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(ny, nx)


class TestRenderHeatmap:
    def test_constant_surface_renders_all_zero(self, tmp_path):
        """A flat surface has no range and renders as black."""
        grid = CourtGrid(width=4.0, length=3.0, tile_size=(1.0, 1.0))
        path = tmp_path / "flat.pgm"
        render_heatmap(np.full(grid.n_tiles, 2.5), grid, path)
        pixels = read_heatmap(path)
        np.testing.assert_array_equal(pixels, np.zeros((3, 4), dtype=np.uint8))

    def test_two_tile_surface_hits_both_extremes(self, tmp_path):
        """A [0, 1] surface maps to pixel values {0, 255}."""
        grid = CourtGrid(width=2.0, length=1.0, tile_size=(1.0, 1.0))
        path = tmp_path / "two.pgm"
        render_heatmap(np.array([0.0, 1.0]), grid, path)
        np.testing.assert_array_equal(read_heatmap(path), [[0, 255]])

    def test_header_for_default_grid(self, tmp_path):
        """The default 2.5 x 2 ft grid renders 14 pixels wide and 25 tall."""
        grid = CourtGrid()
        path = tmp_path / "default.pgm"
        render_heatmap(np.linspace(0.0, 1.0, grid.n_tiles), grid, path)
        with open(path, "rb") as f:
            header = f.read(13)
        assert header == b"P5\n14 25\n255\n"

    def test_scaling_formula(self, tmp_path):
        """Pixels are round(255 * (v - min) / (max - min))."""
        grid = CourtGrid(width=4.0, length=1.0, tile_size=(1.0, 1.0))
        values = np.array([1.0, 2.0, 2.5, 5.0])
        path = tmp_path / "scaled.pgm"
        render_heatmap(values, grid, path)
        expected = np.rint(255.0 * (values - 1.0) / 4.0).astype(np.uint8)
        np.testing.assert_array_equal(read_heatmap(path)[0], expected)

    def test_rendering_is_bit_exact(self, tmp_path):
        """The same surface produces identical bytes every time."""
        grid = CourtGrid(width=5.0, length=4.0, tile_size=(1.0, 1.0))
        rng = np.random.default_rng(42)
        values = rng.uniform(0.0, 3.0, grid.n_tiles)
        path_a = tmp_path / "a.pgm"
        path_b = tmp_path / "b.pgm"
        render_heatmap(values, grid, path_a)
        render_heatmap(values, grid, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_row_zero_is_nearest_baseline(self, tmp_path):
        """The first pixel row holds the tiles with the smallest y."""
        grid = CourtGrid(width=2.0, length=2.0, tile_size=(1.0, 1.0))
        # tiles ordered x-fastest: (0,0), (1,0), (0,1), (1,1)
        values = np.array([1.0, 1.0, 0.0, 0.0])
        path = tmp_path / "rows.pgm"
        render_heatmap(values, grid, path)
        pixels = read_heatmap(path)
        np.testing.assert_array_equal(pixels[0], [255, 255])
        np.testing.assert_array_equal(pixels[1], [0, 0])

    def test_wrong_length_rejected(self, tmp_path):
        """A surface that does not match the grid is an error."""
        grid = CourtGrid(width=4.0, length=3.0, tile_size=(1.0, 1.0))
        with pytest.raises(ValueError, match="tiles"):
            render_heatmap(np.zeros(5), grid, tmp_path / "bad.pgm")


class TestReadHeatmap:
    def test_rejects_wrong_magic(self, tmp_path):
        """Only the binary graymap magic is accepted."""
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 1\n255\n0 255\n")
        with pytest.raises(ValueError, match="magic"):
            read_heatmap(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        """Fewer pixel bytes than the header promises is an error."""
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n3 2\n255\n\x00\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_heatmap(path)

    def test_rejects_unsupported_maxval(self, tmp_path):
        """Only maxval 255 graymaps are supported."""
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_heatmap(path)


class TestRenderSurfaceCsv:
    def test_renders_one_image_per_row(self, tmp_path):
        """Every surface row lands as <id>.pgm with sanitized names."""
        grid = CourtGrid(width=3.0, length=2.0, tile_size=(1.0, 1.0))
        rng = np.random.default_rng(42)
        matrix = rng.uniform(0.0, 1.0, size=(3, grid.n_tiles))
        csv_path = tmp_path / "surfaces.csv"
        write_labeled_csv(csv_path, ["alpha", "b/ad name", "p03"], matrix, grid)
        out_dir = tmp_path / "img"
        paths = render_surface_csv(csv_path, out_dir)
        assert [p.split("/")[-1] for p in paths] == [
            "alpha.pgm",
            "b_ad_name.pgm",
            "p03.pgm",
        ]
        for i, p in enumerate(paths):
            pixels = read_heatmap(p)
            assert pixels.shape == (grid.ny, grid.nx)
            lo, hi = matrix[i].min(), matrix[i].max()
            expected = np.rint(255.0 * (matrix[i] - lo) / (hi - lo))
            np.testing.assert_array_equal(
                pixels.ravel(), expected.astype(np.uint8)
            )

    def test_empty_id_rejected_before_writing(self, tmp_path):
        """An empty id would render to the hidden file <out>/.pgm: the file
        and line are named and no image is written."""
        grid = CourtGrid(width=2.0, length=2.0, tile_size=(1.0, 1.0))
        csv_path = tmp_path / "surfaces.csv"
        write_labeled_csv(csv_path, ["b", ""], np.ones((2, grid.n_tiles)), grid)
        out_dir = tmp_path / "img"
        with pytest.raises(ValueError, match=r"surfaces\.csv:3: empty id"):
            render_surface_csv(csv_path, out_dir)
        assert not out_dir.exists()
