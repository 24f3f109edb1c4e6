"""Court geometry, shot tiling, count-matrix assembly, and the
per-player holdout split."""

import ast
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shotfactor import court
from shotfactor.court import (
    CountMatrix,
    CourtGrid,
    ShotTable,
    build_count_matrix,
    read_count_csv,
    read_labeled_csv,
    read_shot_csv,
    read_tile_csv,
    split_holdout,
    tile_indices,
    write_count_csv,
    write_labeled_csv,
    write_shot_csv,
)
from shotfactor.efficiency import EfficiencyConfig, EfficiencyModel
from shotfactor.nmf import FactorModel, NmfConfig
from shotfactor.pipeline import stage_efficiency, stage_factorize
from shotfactor.synth import SynthConfig, generate_dataset

DESK = CourtGrid(tile_size=(2.5, 2.0))


def _table(players, x, y, made):
    """A table from each shot's player id and its x, y and outcome."""
    ids, codes = np.unique(np.asarray(players, dtype=str), return_inverse=True)
    return ShotTable(tuple(ids.tolist()), codes, x, y, made)


def _columns(shots):
    """Each shot's player id, x, y and outcome."""
    return np.array(shots.ids)[shots.codes], shots.x, shots.y, shots.made


def _random_shots(rng, players, per_player, grid=DESK):
    n = len(players) * per_player
    return _table(
        np.repeat(players, per_player),
        rng.uniform(0, grid.width, size=n),
        rng.uniform(0, grid.length, size=n),
        rng.integers(0, 2, size=n),
    )


def _shots(*rows):
    """A table from (player, x, y, made) rows."""
    return _table(*(zip(*rows) if rows else [[]] * 4))


def _rows(shots):
    """The table as sorted (player, x, y, made) tuples."""
    return sorted(zip(*(column.tolist() for column in _columns(shots))))


def _traced_peak(read):
    """Peak traced bytes while ``read()`` runs, after one untraced call has
    paid for any first-use allocations."""
    read()
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _concat(*tables):
    return _table(*map(np.concatenate, zip(*map(_columns, tables))))


class TestCourtGrid:
    def test_desk_grid_dimensions(self):
        """2.5 x 2.0 ft tiles on a 35 x 50 ft half court: 14 x 25 = 350."""
        assert (DESK.nx, DESK.ny, DESK.n_tiles) == (14, 25, 350)
        assert DESK.tile_area == 5.0

    @pytest.mark.parametrize("tile_size", [(1.0, 2.0, 3.0), (2.0,), [2.5, 2.0]])
    def test_tile_size_other_than_number_or_pair_rejected(self, tile_size):
        """A tile size is a tuple of two; any other shape fails at
        construction with the pair message."""
        with pytest.raises(ValueError, match=r"tile_size must be an \(x, y\) pair"):
            CourtGrid(tile_size=tile_size)

    @pytest.mark.parametrize("tile_size", [1.0, 2])
    def test_number_tile_size_rejected(self, tile_size):
        """A single number is no square-tile shorthand: square tiles are
        the pair (t, t)."""
        message = f"tile_size must be an (x, y) pair, got {tile_size!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CourtGrid(tile_size=tile_size)

    def test_tile_edges_stored_as_floats(self):
        """Integer edges become floats, so the grid header of a config's
        ``tile_x = 2`` reads ``2.0``; width and length keep their type."""
        g = CourtGrid(width=4, length=2, tile_size=(2, 1))
        assert g.tile_size == (2.0, 1.0)
        assert all(type(t) is float for t in g.tile_size)
        assert g == CourtGrid(4, 2, (2.0, 1.0))
        assert (g.width, g.length) == (4, 2) and type(g.width) is int

    @pytest.mark.parametrize(
        "tile_size, message",
        [
            ((3.0, 2.0), "tile_size 3.0 must divide the court width 35.0"),
            ((2.5, 3.0), "tile_size 3.0 must divide the court length 50.0"),
            ((70.0, 2.0), "tile_size 70.0 must divide the court width 35.0"),
            ((1e-320, 2.0), "tile_size 1e-320 is too small for the court width 35.0"),
            ((1e-12, 1e-12), "tile_size 1e-12 is too small for the court length 50.0"),
        ],
        ids=["width", "length", "wider-than-the-court", "infinite-count", "int64-ids"],
    )
    def test_tile_that_does_not_divide_the_court_rejected(
        self, tmp_path, tile_size, message
    ):
        """Each tile edge must divide its court side, so no tile overhangs
        the court, and be large enough that side / edge is finite and the
        tile count fits int64 tile ids; a file whose grid header has such
        a grid fails at its first line."""
        with pytest.raises(ValueError, match=re.escape(message)):
            CourtGrid(tile_size=tile_size)
        path = tmp_path / "s.csv"
        path.write_text("# grid 35.0 50.0 %r %r\na,0.5\n" % tile_size)
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: {message}")):
            read_labeled_csv(path)

    def test_rounding_in_the_side_over_edge_ratio_adds_no_tile(self):
        """2.1 / 0.3 is 7.000000000000001 in floating point: seven tiles."""
        grid = CourtGrid(2.1, 2.7, (0.3, 0.3))
        assert (grid.nx, grid.ny, grid.n_tiles) == (7, 9, 63)

    def test_tile_centers_row_major_x_fastest(self):
        centers = DESK.tile_centers()
        assert centers.shape == (350, 2)
        np.testing.assert_allclose(centers[0], [1.25, 1.0])
        np.testing.assert_allclose(centers[1], [3.75, 1.0])
        np.testing.assert_allclose(centers[14], [1.25, 3.0])
        np.testing.assert_allclose(centers[-1], [35 - 1.25, 50 - 1.0])

    @pytest.mark.parametrize("grid", [DESK, CourtGrid(6.0, 4.0, (3.0, 2.0))])
    def test_tile_centers_are_the_axis_centers(self, grid):
        """Column x of tile_centers() repeats the x axis centres per row,
        column y repeats each y axis centre along its row."""
        xs, ys = grid.axis_centers()
        assert (len(xs), len(ys)) == (grid.nx, grid.ny)
        centers = grid.tile_centers()
        np.testing.assert_array_equal(centers[:, 0], np.tile(xs, grid.ny))
        np.testing.assert_array_equal(centers[:, 1], np.repeat(ys, grid.nx))

    @pytest.mark.parametrize("grid", [DESK, CourtGrid(tile_size=(1.0, 1.0))])
    def test_unit_volume_rows_integrate_to_one(self, grid):
        """Each scaled row integrates to 1 over the court, and rows and
        volumes are bit-equal to the one-row formula."""
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.0, 4.0, size=(5, grid.n_tiles))
        rows, volumes = grid.unit_volume(rates)
        np.testing.assert_allclose(rows.sum(axis=1) * grid.tile_area, 1.0, rtol=1e-12)
        for i, rate in enumerate(rates):
            volume = rate.sum() * grid.tile_area
            assert volumes[i] == volume
            np.testing.assert_array_equal(rows[i], rate / volume)


class TestTileIndex:
    def test_origin_and_far_corner(self):
        assert tile_indices([0.0, 35.0], [0.0, 50.0], DESK).tolist() == [0, 349]

    def test_boundary_points_clamp_to_last_tile(self):
        """Points on the right or top edge belong to the edge tile."""
        assert tile_indices([35.0, 0.0], [0.0, 50.0], DESK).tolist() == [13, 336]

    def test_out_of_court_raises(self):
        for x, y in [(-0.1, 5.0), (35.1, 5.0), (5.0, -0.1), (5.0, 50.1), (np.nan, 5.0)]:
            with pytest.raises(ValueError, match="outside the 35.0 x 50.0 court"):
                tile_indices([1.0, x], [1.0, y], DESK)

    def test_center_round_trip(self):
        centers = DESK.tile_centers()
        np.testing.assert_array_equal(
            tile_indices(centers[:, 0], centers[:, 1], DESK), np.arange(DESK.n_tiles)
        )

    def test_vectorised_out_of_court_raises(self):
        with pytest.raises(ValueError):
            tile_indices(np.array([1.0, 40.0]), np.array([1.0, 1.0]), DESK)


class TestBuildCountMatrix:
    def test_totals_match_shot_counts(self):
        rng = np.random.default_rng(7)
        shots = _random_shots(rng, ["a", "b", "c"], 60)
        cm = build_count_matrix(shots, DESK, min_attempts=50)
        assert cm.players == ["a", "b", "c"]
        np.testing.assert_array_equal(cm.counts.sum(axis=1), [60, 60, 60])

    def test_min_attempts_filter(self):
        rng = np.random.default_rng(8)
        shots = _concat(_random_shots(rng, ["big"], 80), _random_shots(rng, ["small"], 10))
        cm = build_count_matrix(shots, DESK, min_attempts=50)
        assert cm.players == ["big"]

    def test_pinned_players_keep_order_and_skip_others(self):
        rng = np.random.default_rng(9)
        shots = _random_shots(rng, ["a", "b", "c"], 5)
        cm = build_count_matrix(shots, DESK, players=["c", "a"])
        assert cm.players == ["c", "a"]
        assert cm.counts.sum() == 10

    def test_pinned_player_with_no_shots_gets_zero_row(self):
        shots = _shots(("a", 1.0, 1.0, 1))
        cm = build_count_matrix(shots, DESK, players=["a", "ghost"])
        assert cm.counts[1].sum() == 0

    def test_no_qualifying_player_raises(self):
        shots = _shots(("a", 1.0, 1.0, 1))
        with pytest.raises(ValueError):
            build_count_matrix(shots, DESK, min_attempts=50)

    def test_correct_tile_increment(self):
        shots = _shots(("a", 0.5, 0.5, 0), ("a", 0.5, 0.5, 1), ("a", 34.0, 49.0, 1))
        cm = build_count_matrix(shots, DESK, players=["a"])
        assert cm.counts[0, 0] == 2
        assert cm.counts[0, 349] == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountMatrix(-np.ones((1, DESK.n_tiles)), ["a"], DESK)

    def test_repeated_pinned_player_rejected(self):
        """A pinned id named twice is an error, not an empty first row."""
        shots = _shots(("a", 1.0, 1.0, 1), ("b", 1.0, 1.0, 0), ("b", 3.0, 3.0, 1))
        with pytest.raises(ValueError, match="repeated player 'a'"):
            build_count_matrix(shots, DESK, players=["a", "b", "a"])


class TestSplitHoldout:
    def test_partition_is_exact(self):
        """Train and test are disjoint and jointly exhaust the input."""
        rng = np.random.default_rng(10)
        shots = _random_shots(rng, ["a", "b"], 40)
        train, test = split_holdout(shots, 0.1, seed=3)
        assert len(train) + len(test) == len(shots)
        assert sorted(_rows(train) + _rows(test)) == _rows(shots)

    def test_per_player_test_size(self):
        rng = np.random.default_rng(11)
        shots = _concat(_random_shots(rng, ["a"], 40), _random_shots(rng, ["b"], 7))
        _, test = split_holdout(shots, 0.1, seed=0)
        assert np.sum(_columns(test)[0] == "a") == 4
        assert np.sum(_columns(test)[0] == "b") == 1

    def test_single_shot_player_stays_in_train(self):
        shots = _shots(("solo", 5.0, 5.0, 1))
        train, test = split_holdout(shots, 0.5, seed=0)
        assert len(train) == 1 and len(test) == 0

    def test_train_never_empty(self):
        shots = _shots(("a", 1.0, 1.0, 0), ("a", 2.0, 2.0, 1))
        train, test = split_holdout(shots, 0.95, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        shots = _random_shots(rng, ["a", "b", "c"], 30)
        first = split_holdout(shots, 0.2, seed=5)
        second = split_holdout(shots, 0.2, seed=5)
        for a, b in zip(first, second):
            for column_a, column_b in zip(_columns(a), _columns(b)):
                np.testing.assert_array_equal(column_a, column_b)

    def test_input_order_invariant(self):
        """The same shots shuffled produce the same partition as sets."""
        rng = np.random.default_rng(13)
        shots = _random_shots(rng, ["a", "b", "c"], 25)
        shuffled = shots.take(rng.permutation(len(shots)))
        _, test_a = split_holdout(shots, 0.2, seed=9)
        _, test_b = split_holdout(shuffled, 0.2, seed=9)
        assert _rows(test_a) == _rows(test_b)

    def test_bad_fraction_rejected(self):
        shots = _shots(("a", 1.0, 1.0, 0))
        for f in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split_holdout(shots, f, seed=0)


class TestShotTable:
    def test_made_must_be_binary(self):
        with pytest.raises(ValueError, match="made must be 0 or 1, got 2"):
            _shots(("a", 1.0, 1.0, 1), ("a", 1.0, 1.0, 2))

    def test_columns_must_have_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            ShotTable(("a", "b"), [0, 1], [1.0, 2.0], [1.0], [0, 1])

    @pytest.mark.parametrize(
        "ids, codes, message",
        [
            (("a",), [0, -1], r"codes must lie in \[0, 1\), got -1"),
            (("a",), [0, 3], r"codes must lie in \[0, 1\), got 3"),
            (("b", "a"), [0, 1], "ids must be sorted and distinct, got 'b' before 'a'"),
            (("a", "a"), [0, 1], "ids must be sorted and distinct, got 'a' before 'a'"),
        ],
    )
    def test_codes_and_ids_checked(self, ids, codes, message):
        """A code outside the ids, or ids out of order or repeated, is
        rejected where the table is built."""
        with pytest.raises(ValueError, match=message):
            ShotTable(ids, codes, [1.0, 2.0], [1.0, 2.0], [0, 1])

    def test_take_keeps_row_order(self):
        shots = _shots(("a", 1.0, 2.0, 0), ("b", 3.0, 4.0, 1), ("c", 5.0, 6.0, 1))
        part = shots.take([2, 0])
        assert _columns(part)[0].tolist() == ["c", "a"]
        assert part.x.tolist() == [5.0, 1.0] and part.made.tolist() == [1, 0]


SHOTS_GOLDEN = (
    b"player,x,y,made\r\n"
    b"p01,0.1,49.99999999999999,1\r\n"
    b"p00,35.0,0.0,0\r\n"
    b"p01,17.5,5.25,0\r\n"
)


class TestShotCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        shots = _random_shots(rng, ["p1", "p2"], 15)
        path = tmp_path / "shots.csv"
        write_shot_csv(path, shots)
        back = read_shot_csv(path)
        for column_back, column in zip(_columns(back), _columns(shots)):
            np.testing.assert_array_equal(column_back, column)

    def test_writer_golden_bytes(self, tmp_path):
        """Floats as repr, the outcome as an int, csv row ends."""
        path = tmp_path / "shots.csv"
        write_shot_csv(path, _shots(
            ("p01", 0.1, 49.99999999999999, 1), ("p00", 35.0, 0.0, 0), ("p01", 17.5, 5.25, 0)
        ))
        assert path.read_bytes() == SHOTS_GOLDEN

    def test_synth_shots_rewrite_byte_for_byte(self, tmp_path):
        config = SynthConfig(n_players=4, budget_range=(20, 40), seed=3, grid=DESK)
        files = generate_dataset(config, tmp_path / "shots.csv")
        path = tmp_path / "again.csv"
        write_shot_csv(path, read_shot_csv(files["shots"], DESK))
        with open(files["shots"], "rb") as f:
            assert path.read_bytes() == f.read()

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("player,x,y\np1,1.0,2.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_shot_csv(path)

    def test_bad_made_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("player,x,y,made\np1,1.0,2.0,maybe\n")
        with pytest.raises(ValueError, match=":2:"):
            read_shot_csv(path)

    def test_grid_validation_rejects_out_of_court(self, tmp_path):
        path = tmp_path / "far.csv"
        write_shot_csv(path, _shots(("a", 1.0, 1.0, 1)))
        read_shot_csv(path, DESK)
        path.write_text("player,x,y,made\na,99.0,1.0,1\n")
        with pytest.raises(ValueError):
            read_shot_csv(path, DESK)

    def test_off_court_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("player,x,y,made\np1,1.0,2.0,1\np1,40.0,2.0,0\n")
        with pytest.raises(
            ValueError, match=r"shots\.csv:3: point \(40\.0, 2\.0\) lies outside"
        ):
            read_shot_csv(path, DESK)

    def test_first_of_two_faults_named(self, tmp_path):
        """Rows are checked in file order: the point off the court on line 3
        is named, not the short row on line 5."""
        path = tmp_path / "shots.csv"
        path.write_text(
            "player,x,y,made\np1,1.0,2.0,1\np1,40.0,2.0,0\np2,1.0,2.0,1\np2,1.0,2.0\n"
        )
        with pytest.raises(
            ValueError, match=r"shots\.csv:3: point \(40\.0, 2\.0\) lies outside"
        ):
            read_shot_csv(path, DESK)
        with pytest.raises(ValueError, match=r"shots\.csv:5: 3 fields, expected 4"):
            read_shot_csv(path)

    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("player,x,y,made\np1,1.0,2.0,1\np1,3.0\n")
        with pytest.raises(ValueError, match=r"shots\.csv:3: 2 fields, expected 4"):
            read_shot_csv(path)

    def test_extra_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("player,x,y,made\np1,1.0,2.0,1,9\n")
        with pytest.raises(ValueError, match=r"shots\.csv:2: 5 fields, expected 4"):
            read_shot_csv(path)

    def test_header_only_file_names_file(self, tmp_path):
        path = tmp_path / "shots.csv"
        write_shot_csv(path, _shots())
        with pytest.raises(ValueError, match=r"shots\.csv: no shots"):
            read_shot_csv(path)

    def test_empty_player_id_names_file_and_line(self, tmp_path):
        """An empty player field is no player: the row is rejected, not read
        as a player named ''."""
        path = tmp_path / "shots.csv"
        path.write_text("player,x,y,made\n,1.0,2.0,1\nb,1.0,2.0,0\n")
        with pytest.raises(ValueError, match=r"shots\.csv:2: empty player id"):
            read_shot_csv(path)

    def test_made_two_names_file_and_line(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("player,x,y,made\np1,1.0,2.0,2\n")
        with pytest.raises(ValueError, match=r"shots\.csv:2: made must be 0 or 1, got 2"):
            read_shot_csv(path)

    def test_reading_keeps_no_object_per_shot(self, tmp_path):
        """Reading 20k shots peaks below 100 traced bytes a shot: the columns
        are typed buffers and each player id is one string (Python lists of
        every field took over 200).  One 40-character id among them costs
        no more per shot, since a shot holds an integer code, not its id (a
        fixed-width column of ids took over 200)."""
        short = [f"p{i:02d}" for i in range(50)]
        for players in (short, short[:-1] + ["x" * 40]):
            shots = _random_shots(np.random.default_rng(5), players, 400)
            path = tmp_path / "shots.csv"
            write_shot_csv(path, shots)
            peak = _traced_peak(lambda: read_shot_csv(path, DESK))
            assert peak < 100 * len(shots), max(map(len, players))

    def test_byte_order_mark_and_non_ascii_id_read(self, tmp_path):
        """A spreadsheet's UTF-8 export starts with a byte-order mark; it is
        not part of the first column's name."""
        path = tmp_path / "shots.csv"
        path.write_bytes("\ufeffplayer,x,y,made\nJokić,1.0,2.0,1\n".encode("utf-8"))
        assert _columns(read_shot_csv(path))[0].tolist() == ["Jokić"]

    def test_latin1_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "shots.csv"
        text = "player,x,y,made\np1,1.0,2.0,1\nMüller,1.0,2.0,0\n"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=r"shots\.csv: not UTF-8 text"):
            read_shot_csv(path)


def test_every_text_open_goes_through_open_text():
    """One helper decides how the package encodes text files: any other
    ``open`` is binary."""
    helper = next(
        node
        for node in ast.walk(ast.parse(Path(court.__file__).read_text("utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "open_text"
    )
    inside = range(helper.lineno, helper.end_lineno + 1)
    offenders = []
    for path in sorted(Path(court.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "open":
                continue
            args = {i: a for i, a in enumerate(node.args)}
            args.update({k.arg: k.value for k in node.keywords})
            mode = args.get(1, args.get("mode"))
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            if not (path.name == "court.py" and node.lineno in inside):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_model_modules_do_no_file_io():
    """The model modules return arrays and each stage in ``pipeline`` writes
    its own artifacts, so no model module opens a file or imports a writer."""
    banned = {"csv", "os", "open_text", "write_json", "write_labeled_csv"}
    offenders = []
    for name in ("backend", "gp", "lgcp", "nmf", "efficiency", "evaluate"):
        path = Path(court.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in ("open", "open_text"):
                    offenders.append(f"{name}.py:{node.lineno} calls {called}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = {a.name.split(".")[0] for a in node.names}
                for hit in sorted(banned & (names | {module.split(".")[0]})):
                    offenders.append(f"{name}.py:{node.lineno} imports {hit}")
    assert offenders == []


class TestCountCsvRoundTrip:
    def test_round_trip_preserves_grid_and_counts(self, tmp_path):
        rng = np.random.default_rng(22)
        shots = _random_shots(rng, ["a", "b"], 30)
        cm = build_count_matrix(shots, DESK, min_attempts=1)
        path = tmp_path / "counts.csv"
        write_count_csv(path, cm)
        back = read_count_csv(path)
        assert back.players == cm.players
        assert back.grid == DESK
        np.testing.assert_array_equal(back.counts, cm.counts)

    def test_repeated_player_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("# grid 2.0 1.0 1.0 1.0\na,0,3\nb,1,1\na,2,0\n")
        with pytest.raises(ValueError, match="repeated player 'a'"):
            read_count_csv(path)

    def test_square_tile_header_round_trip(self, tmp_path):
        g = CourtGrid(tile_size=(5.0, 5.0))
        cm = CountMatrix(np.zeros((1, g.n_tiles), dtype=np.int64), ["a"], g)
        path = tmp_path / "counts.csv"
        write_count_csv(path, cm)
        assert path.read_text().startswith("# grid 35.0 50.0 5.0 5.0\n")
        assert read_count_csv(path).grid == g

    def test_square_tile_header_reads_as_the_config_grid(self, tmp_path):
        """The three-number header of square tiles reads back as the grid
        a config with tile_x = tile_y builds."""
        path = tmp_path / "s.csv"
        path.write_text("# grid 35.0 50.0 1.0\n" + "a" + ",0.5" * 1750 + "\n")
        _, _, grid = read_labeled_csv(path)
        assert grid == CourtGrid(35.0, 50.0, (1.0, 1.0))


# a two-tile court, square and anisotropic
TWO = CourtGrid(width=2.0, length=1.0, tile_size=(1.0, 1.0))
TWO_ANISO = CourtGrid(width=2.0, length=2.0, tile_size=(1.0, 2.0))
SURFACE_ROWS = np.array([[0.1, 1 / 3], [2.5e-300, -0.0]])


class TestLabeledCsvGoldenBytes:
    """Every labeled-matrix artifact, written through the shared writer,
    pinned to its exact bytes: ints as ints, floats as repr, csv row ends."""

    def test_counts(self, tmp_path):
        path = tmp_path / "c.csv"
        write_count_csv(path, CountMatrix(np.array([[0, 3], [12, 1]]), ["a", "b"], TWO))
        assert path.read_bytes() == b"# grid 2.0 1.0 1.0 1.0\na,0,3\r\nb,12,1\r\n"

    def test_surfaces_square_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_labeled_csv(path, ["p0", "global"], SURFACE_ROWS, TWO)
        assert path.read_bytes() == (
            b"# grid 2.0 1.0 1.0 1.0\n"
            b"p0,0.1,0.3333333333333333\r\nglobal,2.5e-300,-0.0\r\n"
        )

    def test_surfaces_anisotropic_header(self, tmp_path):
        path = tmp_path / "s.csv"
        write_labeled_csv(path, ["p0", "global"], SURFACE_ROWS, TWO_ANISO)
        assert path.read_bytes() == (
            b"# grid 2.0 2.0 1.0 2.0\n"
            b"p0,0.1,0.3333333333333333\r\nglobal,2.5e-300,-0.0\r\n"
        )

    def test_factor_w_and_b(self, tmp_path, monkeypatch):
        """The factorize stage writes W by player and B by basis id under
        the surfaces' grid header."""
        model = FactorModel(
            weights=np.array([[0.5, 1.25], [3.0, 1e-12]]),
            bases=np.array([[0.1, 0.9], [0.75, 0.25]]),
            final_loss=0.5,
            trace=np.array([0.5]),
            n_iters=3,
            converged=False,
        )
        monkeypatch.setattr("shotfactor.pipeline.fit_nmf", lambda *args: model)
        surfaces = tmp_path / "s.csv"
        write_labeled_csv(surfaces, ["a", "b"], SURFACE_ROWS, TWO)
        paths = [tmp_path / "f_W.csv", tmp_path / "f_B.csv", tmp_path / "f.txt"]
        stage_factorize([surfaces], paths, 2, "kl", NmfConfig())
        assert paths[0].read_bytes() == b"a,0.5,1.25\r\nb,3.0,1e-12\r\n"
        assert paths[1].read_bytes() == (
            b"# grid 2.0 1.0 1.0 1.0\nbasis0,0.1,0.9\r\nbasis1,0.75,0.25\r\n"
        )

    def test_efficiency_beta_and_global(self, tmp_path, monkeypatch):
        """The efficiency stage writes the logits by player, then the
        global means and variances as the rows beta0 and sigma2."""
        model = EfficiencyModel(
            beta0=np.array([-0.5, 0.25]),
            sigma2=np.array([0.1, 2.0]),
            beta=np.array([[-0.4, 1 / 3], [0.0, -1.5]]),
        )
        fit = SimpleNamespace(model=model)
        monkeypatch.setattr("shotfactor.pipeline.fit_efficiency", lambda *a: fit)
        w_path, b_path, shots_path = (tmp_path / n for n in ("W.csv", "B.csv", "s.csv"))
        write_labeled_csv(w_path, ["a", "b"], np.array([[0.5, 1.25], [3.0, 1.0]]))
        write_labeled_csv(b_path, ["basis0", "basis1"], np.eye(2), TWO)
        write_shot_csv(shots_path, _shots(("a", 0.5, 0.5, 1), ("b", 1.5, 0.5, 0)))
        outputs = [tmp_path / n for n in ("e_beta.csv", "e_global.csv", "e_s.csv")]
        stage_efficiency([w_path, b_path, shots_path], outputs, EfficiencyConfig())
        assert outputs[0].read_bytes() == (
            b"a,-0.4,0.3333333333333333\r\nb,0.0,-1.5\r\n"
        )
        assert outputs[1].read_bytes() == b"beta0,-0.5,0.25\r\nsigma2,0.1,2.0\r\n"

    def test_synth_truth_weights(self, tmp_path):
        """One planted basis gives every player the weight 1.0 exactly."""
        config = SynthConfig(n_players=2, k_star=1, budget_range=(1, 1), grid=TWO)
        files = generate_dataset(config, tmp_path / "shots.csv")
        with open(files["truth_W"], "rb") as f:
            assert f.read() == b"p00,1.0\r\np01,1.0\r\n"


class TestLabeledCsvReader:
    def _counts_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_count_csv(path, CountMatrix(np.array([[0, 3], [12, 1]]), ["a", "b"], TWO))
        return path

    def _append(self, path, text):
        with open(path, "a", newline="") as f:
            f.write(text)

    def test_round_trip_without_header(self, tmp_path):
        path = tmp_path / "w.csv"
        write_labeled_csv(path, ["a", "b"], SURFACE_ROWS)
        ids, matrix, grid = read_labeled_csv(path)
        assert ids == ["a", "b"] and grid is None
        np.testing.assert_array_equal(matrix, SURFACE_ROWS)

    def test_round_trip_of_hash_id_without_header(self, tmp_path):
        """A first id starting with "#" is data: only a one-field first line
        is a grid header."""
        path = tmp_path / "w.csv"
        write_labeled_csv(path, ["#00", "# grid"], SURFACE_ROWS)
        ids, matrix, grid = read_labeled_csv(path)
        assert ids == ["#00", "# grid"] and grid is None
        np.testing.assert_array_equal(matrix, SURFACE_ROWS)

    def test_short_count_row_names_file_and_line(self, tmp_path):
        path = self._counts_file(tmp_path)
        self._append(path, "c,4\r\n")
        with pytest.raises(ValueError, match=r"counts\.csv:4: 1 values, expected 2"):
            read_count_csv(path)

    def test_trailing_comment_line_rejected(self, tmp_path):
        path = tmp_path / "truth_B.csv"
        write_labeled_csv(path, ["basis0"], SURFACE_ROWS[:1], TWO)
        self._append(path, "# edited\n")
        with pytest.raises(ValueError, match=r"truth_B\.csv:3: 0 values"):
            read_labeled_csv(path)

    def test_row_length_checked_against_first_row_without_header(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,1.0,2.0\nb,1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match=r"w\.csv:2: 3 values, expected 2"):
            read_labeled_csv(path)

    def test_empty_row_rejected(self, tmp_path):
        path = self._counts_file(tmp_path)
        self._append(path, "\r\nc,1,1\r\n")
        with pytest.raises(ValueError, match=r"counts\.csv:4: empty row"):
            read_count_csv(path)

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_labeled_csv(path, ["p0"], SURFACE_ROWS[:1], TWO)
        self._append(path, "p1,0.5,abc\r\n")
        with pytest.raises(ValueError, match=r"s\.csv:3: .*'abc'"):
            read_labeled_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("c,1.5,2", r".*'1\.5'"),
            ("c,-1,3", "negative count -1"),
            ("c,99999999999999999999,1", "count 99999999999999999999 beyond int64"),
        ],
        ids=["non_integer", "negative", "beyond_int64"],
    )
    def test_bad_count_names_file_and_line(self, tmp_path, row, message):
        path = self._counts_file(tmp_path)
        self._append(path, row + "\r\n")
        with pytest.raises(ValueError, match=r"counts\.csv:4: " + message):
            read_count_csv(path)

    def test_first_of_two_faults_named(self, tmp_path):
        """Rows are checked in file order: a non-finite value on line 3
        is named, not the short row on line 5."""
        path = tmp_path / "s.csv"
        write_labeled_csv(path, ["p0"], SURFACE_ROWS[:1], TWO)
        self._append(path, "p1,nan,0.5\r\np2,0.5,0.5\r\np3,0.5\r\n")
        with pytest.raises(ValueError, match=r"s\.csv:3: non-finite value"):
            read_labeled_csv(path)

    def test_negative_count_named_before_later_malformed_row(self, tmp_path):
        path = self._counts_file(tmp_path)
        self._append(path, "c,-1,3\r\nd,x,1\r\n")
        with pytest.raises(ValueError, match=r"counts\.csv:4: negative count -1"):
            read_count_csv(path)

    def test_reading_keeps_no_object_per_value(self, tmp_path):
        """A 60 x 350 float matrix reads below 32 traced bytes a value: the
        values fill one typed buffer (a list of Python floats per row took
        over 40)."""
        matrix = np.random.default_rng(6).gamma(1.0, 1.0, size=(60, DESK.n_tiles))
        path = tmp_path / "surfaces.csv"
        write_labeled_csv(path, [f"p{i:02d}" for i in range(60)], matrix, DESK)
        assert _traced_peak(lambda: read_tile_csv(path, DESK)) < 32 * matrix.size
        np.testing.assert_array_equal(read_tile_csv(path, DESK)[1], matrix)

    def test_header_only_file_names_file(self, tmp_path):
        path = tmp_path / "counts.csv"
        write_count_csv(path, CountMatrix(np.zeros((0, 2), dtype=int), [], TWO))
        with pytest.raises(ValueError, match=r"counts\.csv: no data rows"):
            read_count_csv(path)

    def test_counts_need_grid_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("a,1,2\n")
        with pytest.raises(ValueError, match=r"counts\.csv:1: missing grid header"):
            read_count_csv(path)

    def test_tile_csv_on_another_grid_names_both(self, tmp_path):
        path = self._counts_file(tmp_path)
        other = CourtGrid(width=1.0, length=2.0, tile_size=(1.0, 1.0))
        with pytest.raises(ValueError) as exc:
            read_tile_csv(path, other, integer=True)
        assert str(exc.value) == f"{path}:1: grid {TWO}, expected {other}"

    def test_tile_csv_without_header_names_the_expected_grid(self, tmp_path):
        path = tmp_path / "b.csv"
        write_labeled_csv(path, ["basis0"], SURFACE_ROWS[:1])
        with pytest.raises(ValueError) as exc:
            read_tile_csv(path, TWO)
        assert str(exc.value) == f"{path}:1: missing grid header, expected {TWO}"

    def test_malformed_grid_header_names_line_one(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# grid 2.0 1.0\np0,0.5,0.5\n")
        with pytest.raises(ValueError, match=r"s\.csv:1: malformed grid header"):
            read_labeled_csv(path)
