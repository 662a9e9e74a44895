"""Polynomial identity testing: randomized (Schwartz-Zippel) and
generator-based, plus hit/fool classification against polynomial maps.

Grids are {0, 1, ..., grid_size-1} embedded in the field.  Randomized
verdicts always record the seed and an exact rational failure bound; NonZero
verdicts carry a witness point that is re-checked by exact evaluation.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import config
from .circuit import Circuit, evaluate_circuit, expand, metrics
from .encoding import PolynomialMap, annihilates
from .errors import InputError, PointBudgetExceededError, SupportOverflowError
from .fields import Field, FieldValue, PrimeField, check_same_field
from .poly import Polynomial


@dataclass(frozen=True)
class PitVerdict:
    verdict: str  # "zero" | "nonzero"
    trials_run: int
    failure_bound: Fraction  # probability a "zero" verdict is wrong
    witness: tuple[FieldValue, ...] | None = None
    seed: int | None = None
    mode: str = "randomized"

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"


def _check_grid(field: Field, grid_size: int) -> None:
    if grid_size < 1:
        raise InputError("--grid must be >= 1")
    if isinstance(field, PrimeField) and grid_size > field.p:
        raise InputError(f"grid of size {config.int_text(grid_size)} does not fit in "
                         f"GF({field.p})")


def _first_nonzero(
    f: Field, points, value, miss: Fraction, seed: int | None, mode: str
) -> PitVerdict:
    """Evaluate ``value`` at each of ``points`` in turn: "nonzero" with the
    first point where it does not vanish as witness, as field values, else
    "zero" with the failure bound min(miss, 1)^trials, ``miss`` bounding the
    chance that one point misses a nonzero polynomial.  The bound is computed
    only for a "zero" verdict: for a large trial count it is a large exact power."""
    trial = 0
    for trial, point in enumerate(points, start=1):
        if not f.is_zero(value(point)):
            return PitVerdict(
                verdict="nonzero", trials_run=trial, failure_bound=Fraction(0),
                witness=tuple(map(f.normalize, point)), seed=seed, mode=mode,
            )
    bound = min(miss, Fraction(1)) ** trial
    return PitVerdict(
        verdict="zero", trials_run=trial, failure_bound=bound, seed=seed, mode=mode
    )


def _random_points(grid: int, n: int, trials: int, seed: int):
    """``trials`` points of n ints drawn uniformly from range(grid) by
    random.Random(seed), lazily; --trials below 1 is refused.  Once
    _check_grid has passed, each int is already a field element."""
    if trials < 1:
        raise InputError("--trials must be >= 1")
    rng = random.Random(seed)
    return (tuple(rng.randrange(grid) for _ in range(n)) for _ in range(trials))


def sz_pit(
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
    f = circuit.field
    d = max(metrics(circuit).degree_bound, 1)
    if grid_size is None:
        grid_size = 2 * d + 1
    points = _random_points(grid_size, circuit.n_inputs, trials, seed)  # --trials first
    if not f.characteristic:  # over QQ values grow with the degree
        config.check_degree("circuit degree bound", d)
    _check_grid(f, grid_size)
    if grid_size < 2 * d:
        warnings.warn(
            f"grid size {grid_size} below 2*degree_bound = {config.int_text(2 * d)}; "
            "failure bound degrades",
            stacklevel=2,
        )
    return _first_nonzero(f, points, lambda point: evaluate_circuit(circuit, point),
                          Fraction(d, grid_size), seed, "randomized")


def generator_pit(
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
    check_same_field(circuit.field, pmap.field)
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
    degree = metrics(circuit).degree_bound
    d = max(degree * max(pmap.degree, 1), 1)
    read = pmap.outputs[: circuit.n_inputs]

    def value(seed_point):
        return evaluate_circuit(circuit, tuple(p.evaluate(seed_point) for p in read))

    if mode == "randomized":
        if not f.characteristic:
            # Over QQ evaluate raises point values to the exponents as read.
            e, v = max(((e, v) for p in read for mono, _ in p.iter_terms() for v, e in mono),
                       default=(0, 0))
            config.check_degree(f"variable id {v}: degree", e)
            config.check_degree("circuit degree bound", degree)
        grid = 2 * d + 1
        _check_grid(f, grid)
        points = _random_points(grid, pmap.seed_len, trials, seed)
        return _first_nonzero(f, points, value, Fraction(d, grid), seed, mode)
    if mode == "deterministic_grid":
        side = d + 1
        total = side ** pmap.seed_len
        if total > config.DEFAULT_POINT_BUDGET:
            raise PointBudgetExceededError(
                f"{config.int_text(total)} grid points exceed budget "
                f"{config.DEFAULT_POINT_BUDGET}"
            )
        _check_grid(f, side)
        points = itertools.product(range(side), repeat=pmap.seed_len)
        # Vanishing on a full (d+1)-side grid forces the composition to zero.
        return _first_nonzero(f, points, value, Fraction(0), None, mode)
    raise InputError(f"unknown --mode {config.quote(mode)}")


class HitResult(Enum):
    HIT = "hit"
    FOOLED = "fooled"
    ZERO_INPUT = "zero_input"


def hit_test(pmap: PolynomialMap, p: Polynomial) -> HitResult:
    """Exact classification: a nonzero p is Hit when p o map stays nonzero
    and Fooled when the map annihilates it."""
    if p.is_zero():
        return HitResult.ZERO_INPUT
    fooled = annihilates(p, pmap)
    return HitResult.FOOLED if fooled else HitResult.HIT
