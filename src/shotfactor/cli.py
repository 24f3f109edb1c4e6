"""Command-line entry points.

Every subcommand shares --config/--seed/--out, and every one that runs
stages also --shots/--k/--loss/--restarts; flags beat config-file keys.
``synth`` writes the config's ``shots`` file, or a file of the same name
in --out when given, and the truth files and manifest beside it.

``pipeline`` runs every stage; each stage subcommand (``ingest``,
``fit-lgcp``, ``factorize``, ``fit-efficiency``, ``evaluate``) runs its
stage through the same runner, after the stages whose outputs it reads,
which skip when they are up to date.

Each subcommand runs with numpy's OpenBLAS held to one thread, so its
artifacts do not depend on the BLAS thread count (see ``one_blas_thread``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import sys

from numpy.linalg import _umath_linalg

from .nmf import LOSSES
from .pipeline import PipelineConfig, StageError, load_config, run_pipeline
from .render import render_surface_csv
from .synth import generate_dataset


# (get, set) thread-count symbols, in the order they are looked up: the
# OpenBLAS builds bundled with numpy wheels (ILP64, then 32-bit integers),
# then plain OpenBLAS builds with and without the 64-bit suffix.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def openblas_thread_controls() -> list:
    """The (get, set) thread-count pair of the OpenBLAS numpy calls, if any.

    Symbol lookup on numpy's linear-algebra extension also searches the
    libraries it links, so this finds the BLAS behind every numpy product
    and factorization; an empty list means it exports none of the pairs.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return [(get, set_)]
    return []


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS to one thread; restore its count after.

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
    parser.add_argument("--out", help="output directory")


def _resolve(args, **extra) -> PipelineConfig:
    extra.update(seed=args.seed, out=args.out)
    return load_config(args.config, {k: v for k, v in extra.items() if v is not None})


def cmd_synth(args) -> int:
    config = _resolve(args)
    shots = config.shots
    if args.out:
        shots = os.path.join(args.out, os.path.basename(shots))
    files = generate_dataset(config.synth_config(), shots)
    for name, path in sorted(files.items()):
        print(f"{name}: {path}")
    return 0


def cmd_render(args) -> int:
    config = _resolve(args)
    paths = render_surface_csv(args.surfaces, config.out)
    print(f"rendered {len(paths)} surfaces into {config.out}")
    return 0


def cmd_run(args) -> int:
    """Run the pipeline, or one stage after the stages it reads from."""
    config = _resolve(
        args, shots=args.shots, k=args.k, loss=args.loss, restarts=args.restarts
    )
    written = run_pipeline(config, config.out, stage=args.stage)
    print(f"{args.command} complete: {', '.join(written)}")
    return 0


# (command, stage, help) of each subcommand that runs stages; None runs all
RUN_COMMANDS = (
    ("ingest", "ingest", "split the shots and count them per tile"),
    ("fit-lgcp", "lgcp", "fit per-player intensity surfaces"),
    ("factorize", "factorize", "factorize the intensity surfaces"),
    ("fit-efficiency", "efficiency", "fit the outcome model"),
    ("evaluate", "evaluate", "held-out model comparison"),
    ("pipeline", None, "run every stage end to end"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotfactor",
        description="Spatial factorization of shot charts: intensity "
        "surfaces, non-negative bases, and per-basis efficiency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with truth")
    p.set_defaults(func=cmd_synth)

    for command, stage, help_text in RUN_COMMANDS:
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--shots", help="input shot CSV (default from config)")
        p.add_argument("--k", type=int, help="number of bases")
        p.add_argument("--loss", choices=LOSSES)
        p.add_argument("--restarts", type=int)
        p.set_defaults(func=cmd_run, stage=stage)

    p = sub.add_parser("render", help="surfaces CSV to graymap images")
    p.add_argument("--surfaces", required=True, help="shared-format surface CSV")
    p.set_defaults(func=cmd_render)

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
    except (ValueError, OSError, KeyError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
