"""Time the compute kernels, the prior draw and the NMF loss and fit.

Each kernel is fed inputs sized like the desk-scale problem (60 players,
350 tiles, 4 components, about 30k shots) and timed best-of-N; the
make-probability kernel gets the efficiency stage's 61 rows (the global
surface and 60 players) in its one call.  The GP prior draw
(``gp.sample_field``) is timed on the 350-tile and 1,750-tile grids.  The
KL loss (``nmf.kl_loss``) is timed on an all-positive target of 60 x 350
and 12 x 1,750 tiles, and one KL ``fit_nmf`` at 60 x 350, K = 8, with 2
restarts of 200 steps, is timed best of a few.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --repeats 50
"""

import argparse
import time

import numpy as np

from shotfactor import backend
from shotfactor.court import CourtGrid
from shotfactor.gp import KernelHyper, build_cov_factor, sample_field
from shotfactor.nmf import NmfConfig, fit_nmf, kl_loss


def _time(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def build_cases(seed):
    """Representative inputs for every kernel."""
    rng = np.random.default_rng(seed)
    n_players, n_tiles, k, n_shots = 60, 350, 4, 30000

    counts = rng.poisson(1.5, size=n_tiles).astype(np.float64)
    field = rng.normal(0.0, 1.0, size=n_tiles)
    # fit_lgcp sums log(c!) once per player
    log_norm = backend.log_factorial(counts).sum()

    makes = rng.integers(0, 40, size=(n_players, k)).astype(np.float64)
    attempts = makes + rng.integers(0, 40, size=(n_players, k))
    logits = rng.normal(0.0, 1.0, size=(n_players, k))

    weights = rng.uniform(0.1, 2.0, size=(n_players, k))
    bases = rng.uniform(0.0, 1.0, size=(k, n_tiles))
    bases /= bases.sum(axis=1, keepdims=True)
    players = rng.integers(0, n_players, size=n_shots)
    tiles = rng.integers(0, n_tiles, size=n_shots)
    uniforms = rng.random(n_shots)
    # fit_efficiency builds the type table once; each sweep only draws from it
    table, totals = backend.type_weights(weights, bases, players, tiles)
    cum = np.cumsum(table, axis=1)
    types = rng.integers(0, k, size=n_shots)
    made = (rng.random(n_shots) < 0.45).astype(np.float64)
    # efficiency_surface puts the global row on top of the player rows
    surface_weights = np.vstack([weights.mean(axis=0), weights])
    surface_logits = np.vstack([logits.mean(axis=0), logits])

    # the prior builds one matrix per court axis, at most 50 tiles long
    cx = rng.uniform(0.0, 50.0, size=50)
    cy = np.zeros(50)

    return [
        ("poisson_field_loglik", (counts, field, -0.2, 5.0, log_norm)),
        ("bernoulli_logits_loglik", (makes, attempts, logits)),
        ("type_weights", (weights, bases, players, tiles)),
        ("draw_type_indices", (cum, totals, uniforms)),
        ("sq_exp_matrix", (cx, cy, 1.3, 8.0)),
        ("aggregate_outcomes", (players, types, made, n_players, k)),
        ("mixture_probability_surface", (surface_weights, bases, surface_logits)),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the compute kernels and the GP prior draw."
    )
    parser.add_argument(
        "--repeats", type=int, default=50, help="timing repetitions per kernel"
    )
    parser.add_argument("--seed", type=int, default=0, help="input generation seed")
    args = parser.parse_args(argv)

    print(f"repeats per kernel: {args.repeats}")
    header = f"{'kernel':<30} {'time':>10}"
    print(header)
    print("-" * len(header))
    for name, inputs in build_cases(args.seed):
        t_kernel = _time(getattr(backend, name), inputs, args.repeats)
        print(f"{name:<30} {t_kernel * 1e3:>8.3f}ms")
    for tile_size in ((2.5, 2.0), (1.0, 1.0)):
        grid = CourtGrid(tile_size=tile_size)
        factor = build_cov_factor(grid, KernelHyper())
        rng = np.random.default_rng(args.seed)
        t_draw = _time(sample_field, (factor, rng), args.repeats)
        label = f"sample_field ({grid.n_tiles} tiles)"
        print(f"{label:<30} {t_draw * 1e3:>8.3f}ms")
    rng = np.random.default_rng(args.seed)
    for n_players, n_tiles in ((60, 350), (12, 1750)):
        # LGCP surfaces are strictly positive, and so are the fitted products
        target = rng.uniform(1e-5, 1.0, size=(n_players, n_tiles))
        model = rng.uniform(1e-5, 1.0, size=(n_players, n_tiles))
        t_loss = _time(kl_loss, (target, model), args.repeats)
        label = f"kl_loss ({n_players} x {n_tiles})"
        print(f"{label:<30} {t_loss * 1e3:>8.3f}ms")
    # the perfbench NMF chain (2 restarts x 200 steps) at K = 8; with tol = 0
    # a fit stops early only if its loss rises
    target = rng.uniform(1e-5, 1.0, size=(60, 350))
    config = NmfConfig(max_iters=200, tol=0.0, restarts=2, seed=args.seed)
    t_fit = _time(fit_nmf, (target, 8, "kl", config), max(1, args.repeats // 10))
    print(f"{'fit_nmf kl (60 x 350, K=8)':<30} {t_fit * 1e3:>8.3f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
