"""Identity testing as the package did it before its three sampling loops
became one, kept as the reference oracle.

The bodies are the earlier ``pit.sz_pit`` and ``pit.generator_pit``,
unchanged but for their names and their refusals, which now raise the
package's InputError with its message: each sampling mode runs its own loop, and
the randomized and grid modes evaluate every output of the map.  The
differential tests in ``test_pit_differential.py`` require the package's
verdicts to agree with these field by field, with the same warnings and
the same errors.
"""

from __future__ import annotations

import itertools
import random
import warnings
from fractions import Fraction

from annforge import config
from annforge.circuit import Circuit, evaluate_circuit, expand, metrics
from annforge.encoding import PolynomialMap, annihilates
from annforge.errors import InputError, PointBudgetExceededError, SupportOverflowError
from annforge.pit import PitVerdict, _check_grid


def reference_sz_pit(
    circuit: Circuit,
    trials: int = 10,
    grid_size: int | None = None,
    seed: int = 0,
) -> PitVerdict:
    """Schwartz-Zippel identity test: evaluate at uniform random grid points.

    A nonzero degree-d polynomial evaluates to nonzero at a random point of a
    side >= 2d grid with probability >= 1/2 per trial; a "zero" verdict
    carries the exact failure bound (d / grid_size)^trials.
    """
    if trials < 1:
        raise InputError("--trials must be >= 1")
    d = max(metrics(circuit).degree_bound, 1)
    if grid_size is None:
        grid_size = 2 * d + 1
    _check_grid(circuit.field, grid_size)
    if grid_size < 2 * d:
        warnings.warn(
            f"grid size {grid_size} below 2*degree_bound = {2 * d}; "
            "failure bound degrades",
            stacklevel=2,
        )
    f = circuit.field
    rng = random.Random(seed)
    for trial in range(1, trials + 1):
        point = tuple(f.normalize(rng.randrange(grid_size)) for _ in range(circuit.n_inputs))
        value = evaluate_circuit(circuit, point)
        if not f.is_zero(value):
            return PitVerdict(
                verdict="nonzero", trials_run=trial,
                failure_bound=Fraction(0), witness=point, seed=seed,
            )
    bound = min(Fraction(d, grid_size), Fraction(1)) ** trials
    return PitVerdict(
        verdict="zero", trials_run=trials, failure_bound=bound, seed=seed
    )


def reference_generator_pit(
    circuit: Circuit,
    pmap: PolynomialMap,
    mode: str = "symbolic",
    trials: int = 10,
    seed: int = 0,
) -> PitVerdict:
    """Test the composition (circuit o map).

    symbolic: expand the circuit and decide exactly whether the map
    annihilates it (encoding.annihilates).
    randomized: sample random seed points, push through the map, evaluate.
    deterministic_grid: evaluate the composition on the full grid of side
    deg(circuit)*deg(map)+1 over the seed variables (exact, but the point
    count is guarded by config.DEFAULT_POINT_BUDGET).
    """
    if circuit.n_inputs > pmap.out_len:
        raise SupportOverflowError(
            f"circuit reads {circuit.n_inputs} variables, map emits {pmap.out_len}"
        )
    f = circuit.field
    if mode == "symbolic":
        zero = annihilates(expand(circuit), pmap)
        return PitVerdict(
            verdict="zero" if zero else "nonzero",
            trials_run=0, failure_bound=Fraction(0), mode=mode,
        )
    if mode == "randomized":
        d = max(metrics(circuit).degree_bound * max(pmap.degree, 1), 1)
        grid = 2 * d + 1
        _check_grid(f, grid)
        rng = random.Random(seed)
        for trial in range(1, trials + 1):
            seed_point = tuple(
                f.normalize(rng.randrange(grid)) for _ in range(pmap.seed_len)
            )
            image = tuple(p.evaluate(seed_point) for p in pmap.outputs)
            value = evaluate_circuit(circuit, image[: circuit.n_inputs])
            if not f.is_zero(value):
                return PitVerdict(
                    verdict="nonzero", trials_run=trial, failure_bound=Fraction(0),
                    witness=seed_point, seed=seed, mode=mode,
                )
        bound = min(Fraction(d, grid), Fraction(1)) ** trials
        return PitVerdict(
            verdict="zero", trials_run=trials, failure_bound=bound,
            seed=seed, mode=mode,
        )
    if mode == "deterministic_grid":
        d = max(metrics(circuit).degree_bound * max(pmap.degree, 1), 1)
        side = d + 1
        total = side ** pmap.seed_len
        if total > config.DEFAULT_POINT_BUDGET:
            raise PointBudgetExceededError(
                f"{total} grid points exceed budget {config.DEFAULT_POINT_BUDGET}"
            )
        _check_grid(f, side)
        count = 0
        for raw in itertools.product(range(side), repeat=pmap.seed_len):
            count += 1
            seed_point = tuple(f.normalize(v) for v in raw)
            image = tuple(p.evaluate(seed_point) for p in pmap.outputs)
            value = evaluate_circuit(circuit, image[: circuit.n_inputs])
            if not f.is_zero(value):
                return PitVerdict(
                    verdict="nonzero", trials_run=count, failure_bound=Fraction(0),
                    witness=seed_point, mode=mode,
                )
        # Vanishing on a full (d+1)-side grid forces the composition to zero.
        return PitVerdict(
            verdict="zero", trials_run=count, failure_bound=Fraction(0), mode=mode
        )
    raise InputError(f"unknown --mode {mode!r}")
