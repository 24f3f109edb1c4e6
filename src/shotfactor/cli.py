"""Command-line entry points.

Every subcommand shares --config/--seed/--out; flags beat config-file keys,
and the SHOTFACTOR_OUT environment variable beats the config's output
directory (the only environment knob there is).

Each subcommand runs with every loaded OpenBLAS held to one thread, so its
artifacts do not depend on the BLAS thread count (see ``one_blas_thread``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys

from .court import (
    build_count_matrix,
    read_count_csv,
    read_labeled_csv,
    read_shot_csv,
    write_count_csv,
)
from .evaluate import run_comparison, write_eval_report
from .nmf import fit_nmf, write_factor_model
from .pipeline import (
    StageError,
    efficiency_artifacts,
    fit_surfaces_artifact,
    load_config,
    run_pipeline,
)
from .render import render_surface_csv
from .synth import generate_dataset


# (get, set) thread-count symbols, in the order they are looked up: the
# scipy-openblas builds bundled with numpy (ILP64) and scipy, then plain
# OpenBLAS builds with and without the 64-bit suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_thread_controls() -> list:
    """A (get, set) pair of thread-count functions per loaded OpenBLAS.

    Libraries are found by name in ``/proc/self/maps``; an empty list means
    there is no such file or no loaded OpenBLAS exports the symbols.
    """
    try:
        with open("/proc/self/maps") as f:
            rows = [line.rstrip("\n").split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = sorted(
        {row[5] for row in rows if len(row) == 6 and "openblas" in row[5].lower()}
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS to one thread; restore the counts after.

    Threaded OpenBLAS kernels may round differently with the thread count;
    holding one thread makes artifacts byte-identical whatever
    ``OPENBLAS_NUM_THREADS`` says.  Without a control to hold, one warning
    line goes to stderr and the body runs as is.
    """
    controls = openblas_thread_controls()
    if not controls:
        print(
            "warning: no OpenBLAS thread control found; artifacts may depend "
            "on the BLAS thread count",
            file=sys.stderr,
        )
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="artifact directory")


def _resolve(args, **extra):
    overrides = {k: v for k, v in extra.items() if v is not None}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = load_config(args.config, overrides)
    out_dir = args.out or os.environ.get("SHOTFACTOR_OUT") or config.out
    os.makedirs(out_dir, exist_ok=True)
    return config, out_dir


def cmd_synth(args) -> int:
    config, out_dir = _resolve(args)
    files = generate_dataset(config.synth_config(), out_dir)
    for name, path in sorted(files.items()):
        print(f"{name}: {path}")
    return 0


def cmd_ingest(args) -> int:
    config, out_dir = _resolve(args, shots=args.shots)
    grid = config.grid()
    shots = read_shot_csv(config.shots, grid)
    cm = build_count_matrix(shots, grid, min_attempts=config.min_attempts)
    path = os.path.join(out_dir, "counts.csv")
    write_count_csv(path, cm)
    print(f"{len(cm.players)} players x {grid.n_tiles} tiles -> {path}")
    return 0


def cmd_fit_lgcp(args) -> int:
    config, out_dir = _resolve(args)
    counts_path = args.counts or os.path.join(out_dir, "counts.csv")
    cm = read_count_csv(counts_path)
    surf_path = os.path.join(out_dir, "surfaces.csv")
    meta_path = os.path.join(out_dir, "surfaces_meta.txt")
    fit_surfaces_artifact(cm, config, surf_path, meta_path)
    print(f"fitted {len(cm.players)} surfaces -> {surf_path}")
    return 0


def cmd_factorize(args) -> int:
    config, out_dir = _resolve(args, k=args.k, loss=args.loss, restarts=args.restarts)
    if args.input == "lgcp":
        data_path = args.data or os.path.join(out_dir, "surfaces.csv")
        players, matrix, _ = read_labeled_csv(data_path)
    else:
        data_path = args.data or os.path.join(out_dir, "counts.csv")
        matrix = read_count_csv(data_path)  # auto-jitter for raw counts
        players = matrix.players
    model = fit_nmf(matrix, config.k, loss=config.loss, config=config.nmf_config())
    prefix = os.path.join(out_dir, f"factors_{config.loss}_k{config.k}")
    write_factor_model(prefix, model, players)
    print(
        f"K={config.k} {config.loss} loss {model.final_loss:.6g} "
        f"after {model.n_iters} iterations -> {prefix}_*.csv"
    )
    return 0


def cmd_fit_efficiency(args) -> int:
    config, out_dir = _resolve(args, shots=args.shots)
    prefix = args.factors or os.path.join(
        out_dir, f"factors_{config.loss}_k{config.k}"
    )
    out_prefix = os.path.join(out_dir, "efficiency")
    surfaces_path = os.path.join(out_dir, "efficiency_surfaces.csv")
    efficiency_artifacts(
        prefix, config.shots, config.grid(), config, out_prefix, surfaces_path
    )
    print(f"efficiency model -> {out_prefix}_beta.csv, {surfaces_path}")
    return 0


def cmd_evaluate(args) -> int:
    config, out_dir = _resolve(args, shots=args.shots)
    grid = config.grid()
    shots = read_shot_csv(config.shots, grid)
    truth_path = args.truth
    if truth_path is None:
        candidate = os.path.join(os.path.dirname(config.shots), "truth_B.csv")
        truth_path = candidate if os.path.exists(candidate) else None
    truth_bases = None
    if truth_path:
        _, truth_bases, _ = read_labeled_csv(truth_path)
    report = run_comparison(
        shots, grid, list(config.k_list), config.eval_config(), truth_bases
    )
    files = write_eval_report(out_dir, report)
    with open(files["text"]) as f:
        print(f.read(), end="")
    return 0


def cmd_render(args) -> int:
    config, out_dir = _resolve(args)
    paths = render_surface_csv(args.surfaces, out_dir)
    print(f"rendered {len(paths)} surfaces into {out_dir}")
    return 0


def cmd_pipeline(args) -> int:
    config, out_dir = _resolve(args, shots=args.shots)
    paths = run_pipeline(config, out_dir)
    print(f"pipeline complete; report at {paths['eval_text']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotfactor",
        description="Spatial factorization of shot charts: intensity "
        "surfaces, non-negative bases, and per-basis efficiency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with truth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="shot CSV to a count matrix")
    p.add_argument("--shots", help="input shot CSV (default from config)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit-lgcp", help="fit per-player intensity surfaces")
    p.add_argument("--counts", help="count CSV (default <out>/counts.csv)")
    p.set_defaults(func=cmd_fit_lgcp)

    p = sub.add_parser("factorize", help="factorize surfaces or raw counts")
    p.add_argument("--k", type=int, help="number of bases")
    p.add_argument("--loss", choices=["kl", "frobenius"])
    p.add_argument("--input", choices=["lgcp", "counts"], default="lgcp")
    p.add_argument("--restarts", type=int)
    p.add_argument("--data", help="matrix file (default by --input kind)")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("fit-efficiency", help="fit the outcome model")
    p.add_argument("--factors", help="factor-model prefix")
    p.add_argument("--shots", help="shot CSV with outcomes")
    p.set_defaults(func=cmd_fit_efficiency)

    p = sub.add_parser("evaluate", help="held-out model comparison")
    p.add_argument("--shots", help="shot CSV (default from config)")
    p.add_argument("--truth", help="true basis CSV for recovery scoring")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="surfaces CSV to graymap images")
    p.add_argument("--surfaces", required=True, help="shared-format surface CSV")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--shots", help="input shot CSV (default from config)")
    p.set_defaults(func=cmd_pipeline)

    for sp in sub.choices.values():
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
