"""Seeded multi-repeat experiment runner.

Runs a set of strategies over the same dataset/model with matched seeds
(repetition ``r`` of every strategy shares the same initial labeled set),
so differences between strategies are not confounded by different random
starts — the comparison protocol the paper's averaged curves imply.

Every (strategy, repeat) cell is an independent, fully seeded computation,
so the grid can be fanned out across a process pool (``n_jobs > 1``)
without changing a single byte of the results: each worker runs the same
``SessionEngine`` the serial path would, and the results are reassembled
in input order regardless of completion order.  Model and strategies may
be given as factories (closures; fork-started pools only) or as
:mod:`repro.specs` specs — pure data that pickles — in which case the
pool also works under the ``spawn`` start method and checkpoints embed
the specs that produced them.

The grid is also fault tolerant.  Completed cells can be checkpointed to
a directory as they finish (``checkpoint_dir``) and skipped on restart;
failing cells are retried up to :class:`RetryPolicy` bounds; a worker
process dying (OOM kill, segfault — surfacing as ``BrokenProcessPool``)
resubmits the lost cells to a fresh pool instead of aborting the grid;
and ``on_error="skip"`` degrades gracefully, aggregating the surviving
repeats and attaching a per-cell failure log to each
:class:`StrategyResult` instead of raising.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from ..core.session import ALResult, SessionEngine, run_to_completion
from ..eval.curves import LearningCurve, curve_std, mean_curve
from ..exceptions import ConfigurationError, ExecutionError
from ..rng import ensure_rng
from ..specs.core import as_spec, is_spec_like
from ..specs.models import build_model
from ..specs.strategies import build_strategy
from .checkpoint import CheckpointStore
from .config import ExperimentConfig

StrategyFactory = Callable[[], object]

#: Start methods :func:`run_comparison` accepts for its worker pool.
_START_METHODS = ("fork", "spawn")

#: Recognised partial-failure handling modes of :func:`run_comparison`.
_ON_ERROR_MODES = ("raise", "skip")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and pacing for failing (strategy, repeat) cells.

    Attributes
    ----------
    max_attempts:
        Total attempts per cell, including the first; ``1`` disables
        retries.  The same bound limits consecutive *unproductive* pool
        rebuilds after worker deaths: when a broken pool is rebuilt
        ``max_attempts`` times without a single cell completing, the
        still-pending cells are treated as permanently failed (worker
        deaths cannot be attributed to one cell, so they are bounded by
        progress rather than counted per cell).
    backoff:
        Base delay in seconds before the second attempt of a cell.
        ``0.0`` (the default) keeps the historical immediate-retry
        behaviour.  Subsequent attempts wait exponentially longer
        (``backoff * backoff_factor ** (failures - 1)``), capped at
        ``max_delay``.
    backoff_factor:
        Multiplier between consecutive delays (must be >= 1).
    max_delay:
        Upper bound on any single delay, in seconds.
    jitter:
        Fraction of each delay that is randomised *deterministically*
        from the cell's identity and attempt number, in ``[0, 1]``.  A
        delay ``d`` becomes a value in ``[d * (1 - jitter), d]``, the
        same value on every host for the same cell — retries de-herd
        without introducing nondeterminism into test runs.
    """

    max_attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_delay < 0:
            raise ConfigurationError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, failures: int, key: str = "") -> float:
        """Seconds to wait before the attempt following ``failures`` failures.

        Deterministic: the jitter fraction is derived from a hash of
        ``(key, failures)``, so the same cell waits the same time on
        every host and every rerun, while different cells spread out.
        """
        if self.backoff <= 0 or failures < 1:
            return 0.0
        raw = self.backoff * self.backoff_factor ** (failures - 1)
        delay = min(self.max_delay, raw)
        if self.jitter > 0:
            digest = hashlib.sha256(f"{key}:{failures}".encode("utf-8")).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            delay *= 1.0 - self.jitter * fraction
        return delay


@dataclass(frozen=True)
class CellFailure:
    """Audit record of one permanently failed (strategy, repeat) cell."""

    strategy: str
    repeat: int
    attempts: int
    error: str


@dataclass
class StrategyResult:
    """Aggregated outcome of one strategy across repeats.

    ``runs`` holds the successful repeats only (all of them unless the
    grid ran with ``on_error="skip"`` and some cells failed); ``curve``
    and ``std`` aggregate exactly those runs.  ``failures`` is the audit
    log of the repeats that were dropped.
    """

    name: str
    curve: LearningCurve
    std: np.ndarray
    runs: list[ALResult]
    failures: list[CellFailure] = field(default_factory=list)


class _GridState(NamedTuple):
    """Everything a cell needs besides its coordinates.

    Shared by the serial path and the pool: pool workers receive it once
    through the pool initializer (:func:`_set_pool_state`), so only the
    ``(strategy_index, repeat)`` cell crosses the boundary per task.
    Under ``fork`` it is inherited by reference, so closure factories
    still work; under ``spawn`` it is pickled, which is exactly what
    spec-built factories (plain data + module-level builders) allow.
    """

    model_factory: Callable[[], object]
    factories: list
    train_dataset: object
    test_dataset: object
    config: ExperimentConfig
    metric: object
    store: "CheckpointStore | None"
    names: list
    repeat_seeds: np.ndarray
    policy: RetryPolicy


#: The pool worker's :class:`_GridState`, installed by the initializer.
_POOL_STATE: "_GridState | None" = None


def _set_pool_state(state: _GridState) -> None:
    """Pool-worker initializer: install the shared cell-building state."""
    global _POOL_STATE
    _POOL_STATE = state


def _factory_from_spec(builder: Callable[[dict], object], spec: dict) -> Callable[[], object]:
    """A picklable zero-arg factory equivalent to ``lambda: builder(spec)``."""
    return partial(builder, spec)


def _normalise_components(
    model_factory, strategy_factories: "Mapping[str, object]"
) -> tuple[Callable[[], object], dict, "dict | None", "dict[str, dict] | None"]:
    """Accept factories *or* specs for the model and each strategy.

    Returns ``(model_factory, factories_by_name, model_spec,
    strategy_specs)`` where the factories are zero-arg callables (spec
    inputs become picklable partials over the spec builders) and the
    spec dicts are ``None`` unless *every* component was given as a spec
    — only then is the grid fully data-described (spawn-safe workers,
    spec-fingerprinted checkpoints).
    """
    model_spec = None
    if is_spec_like(model_factory):
        model_spec = as_spec(model_factory).to_dict()
        model_factory = _factory_from_spec(build_model, model_spec)
    elif not callable(model_factory):
        raise ConfigurationError(
            f"model_factory must be a zero-arg callable or a model spec, "
            f"got {type(model_factory).__name__}"
        )
    factories: dict[str, Callable[[], object]] = {}
    strategy_specs: dict[str, dict] = {}
    for name, value in strategy_factories.items():
        if is_spec_like(value):
            spec = as_spec(value).to_dict()
            strategy_specs[name] = spec
            factories[name] = _factory_from_spec(build_strategy, spec)
        elif callable(value):
            factories[name] = value
        else:
            raise ConfigurationError(
                f"strategy {name!r} must be a zero-arg factory or a "
                f"strategy spec, got {type(value).__name__}"
            )
    fully_specced = model_spec is not None and len(strategy_specs) == len(factories)
    return (
        model_factory,
        factories,
        model_spec if fully_specced else None,
        strategy_specs if fully_specced else None,
    )


def _resolve_start_method(start_method: "str | None", spec_mode: bool) -> "str | None":
    """Pick the pool start method; ``None`` means fall back to serial.

    Auto-selection (``start_method=None``) prefers ``fork`` (cheapest,
    works with closure factories) and falls back to ``spawn`` when the
    platform lacks fork *and* every component was supplied as a spec —
    a spec-described grid ships only data to the workers, so spawn is
    byte-identical to fork and serial.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in _START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {start_method!r}"
            )
        if start_method not in available:
            raise ConfigurationError(
                f"start method {start_method!r} is unavailable on this "
                f"platform (available: {available})"
            )
        return start_method
    if "fork" in available:
        return "fork"
    if spec_mode and "spawn" in available:
        return "spawn"
    return None


def grid_repeat_seeds(config: ExperimentConfig) -> np.ndarray:
    """The grid's per-repeat cell seeds (derived from ``config.seed``).

    Repetition ``r`` of *every* strategy shares seed ``r`` — the
    matched-seed protocol.  The distributed coordinator materializes the
    same seeds into its cell tickets, which is what makes a distributed
    grid byte-identical to :func:`run_comparison`.
    """
    return ensure_rng(config.seed).integers(0, 2**63 - 1, size=config.repeats)


def _run_cell(
    model_factory: Callable[[], object],
    strategy_factory: StrategyFactory,
    train_dataset,
    test_dataset,
    config: ExperimentConfig,
    metric,
    seed: int,
    store: "CheckpointStore | None" = None,
    strategy_name: "str | None" = None,
    repeat: int = 0,
) -> ALResult:
    """Run one (strategy, repeat) cell of the comparison grid.

    With a checkpoint ``store`` attached, the engine's round-level
    snapshot is written after every committed round, and an existing
    snapshot for this cell (left behind by a crash or a failed attempt)
    is restored instead of recomputing the finished rounds.  Resuming is
    byte-identical to running the cell uninterrupted, so a resumed retry
    is indistinguishable from a first-attempt success.
    """
    snapshot = None
    if store is not None:
        snapshot = store.load_session(strategy_name, repeat, int(seed))
    if snapshot is not None:
        engine = SessionEngine.restore(
            snapshot,
            model_factory(),
            strategy_factory(),
            train_dataset,
            test_dataset,
            metric=metric,
        )
    else:
        engine = SessionEngine(
            model_factory(),
            strategy_factory(),
            train_dataset,
            test_dataset,
            batch_size=config.batch_size,
            rounds=config.rounds,
            initial_size=config.initial_size,
            metric=metric,
            seed_or_rng=int(seed),
            training_mode=config.training_mode,
            track_flips=config.track_flips,
        )
    on_round_committed = None
    if store is not None:
        on_round_committed = lambda e: store.save_session(  # noqa: E731
            strategy_name, repeat, int(seed), e.snapshot()
        )
    return run_to_completion(engine, on_round_committed=on_round_committed)


def _run_cell_with_retry(
    cell: "tuple[int, int]", state: "_GridState | None" = None
) -> "ALResult | tuple[int, Exception]":
    """Run one cell under the retry policy: the grid's only retry loop.

    Returns the cell's :class:`ALResult`, or ``(attempts, last_error)``
    once the policy's attempts are spent.  Retries wait out the policy's
    (jittered, deterministic) backoff first, and a retry of a cell whose
    engine snapshotted committed rounds resumes from the last snapshot
    rather than recomputing them.  The serial path passes its ``state``;
    pool workers omit it and use the one their initializer installed.
    """
    if state is None:
        state = _POOL_STATE
    strategy_index, repeat = cell
    name = state.names[strategy_index]
    failures = 0
    while True:
        try:
            return _run_cell(
                state.model_factory,
                state.factories[strategy_index],
                state.train_dataset,
                state.test_dataset,
                state.config,
                state.metric,
                int(state.repeat_seeds[repeat]),
                store=state.store,
                strategy_name=name,
                repeat=repeat,
            )
        except Exception as error:
            failures += 1
            if failures >= state.policy.max_attempts:
                return failures, error
            time.sleep(state.policy.delay(failures, key=f"{name}:{repeat}"))


class _CellGrid:
    """Bookkeeping for one grid execution: pending, succeeded, failed cells.

    A *cell* is a ``(strategy_index, repeat_index)`` tuple.  Cells move
    from ``pending`` to either ``results`` (success, checkpointed if a
    store is attached) or ``failures`` (permanent failure under
    ``on_error="skip"``); under ``on_error="raise"`` a permanent failure
    raises :class:`ExecutionError` instead.
    """

    def __init__(self, state: _GridState, on_error: str) -> None:
        self.names = state.names
        self.repeat_seeds = state.repeat_seeds
        self.policy = state.policy
        self.store = state.store
        self.on_error = on_error
        self.pending: list[tuple[int, int]] = [
            (strategy_index, repeat_index)
            for strategy_index in range(len(self.names))
            for repeat_index in range(len(self.repeat_seeds))
        ]
        self.results: dict[tuple[int, int], ALResult] = {}
        self.failures: dict[tuple[int, int], CellFailure] = {}

    def describe(self, cell: "tuple[int, int]") -> str:
        return f"({self.names[cell[0]]!r}, repeat {cell[1]})"

    def cell_seed(self, cell: "tuple[int, int]") -> int:
        return int(self.repeat_seeds[cell[1]])

    def resume(self) -> None:
        """Load already-completed cells from the checkpoint store."""
        if self.store is None:
            return
        for cell in list(self.pending):
            loaded = self.store.load(
                self.names[cell[0]], cell[1], self.cell_seed(cell)
            )
            if loaded is not None:
                self.results[cell] = loaded
                self.pending.remove(cell)
                self.store.discard_session(self.names[cell[0]], cell[1])

    def drop_stale_sessions(self) -> None:
        """Discard leftover mid-cell snapshots of every pending cell.

        Called when ``resume=False``: snapshots from a previous run must
        not leak into a run that explicitly asked to start over.
        """
        if self.store is None:
            return
        for cell in self.pending:
            self.store.discard_session(self.names[cell[0]], cell[1])

    def settle(
        self, cell: "tuple[int, int]", outcome: "ALResult | tuple[int, Exception]"
    ) -> None:
        """Record a cell's final outcome from :func:`_run_cell_with_retry`.

        A result is kept (and checkpointed if a store is attached); an
        ``(attempts, error)`` pair becomes a :class:`CellFailure`.

        Raises
        ------
        ExecutionError
            For a failed cell when ``on_error="raise"``.
        """
        if isinstance(outcome, tuple):
            attempts, error = outcome
            if self.on_error == "raise":
                raise ExecutionError(
                    f"cell {self.describe(cell)} failed after {attempts} "
                    f"attempt{'s' if attempts != 1 else ''}: {error}"
                ) from error
            self.failures[cell] = CellFailure(
                strategy=self.names[cell[0]],
                repeat=cell[1],
                attempts=attempts,
                error=f"{type(error).__name__}: {error}",
            )
        else:
            self.results[cell] = outcome
            if self.store is not None:
                name, repeat = self.names[cell[0]], cell[1]
                self.store.save(name, repeat, self.cell_seed(cell), outcome)
                self.store.discard_session(name, repeat)
        self.pending.remove(cell)

    def record_lost_cells(self, rebuilds: int) -> None:
        """Settle the cells still pending after too many broken pools."""
        lost = list(self.pending)
        message = (
            f"worker pool kept breaking ({rebuilds} consecutive rebuilds with "
            f"no completed cell); lost cells: "
            + ", ".join(self.describe(cell) for cell in lost)
        )
        if self.on_error == "raise":
            raise ExecutionError(message)
        for cell in lost:
            self.failures[cell] = CellFailure(
                strategy=self.names[cell[0]],
                repeat=cell[1],
                attempts=0,
                error="worker process died (BrokenProcessPool)",
            )
            self.pending.remove(cell)


def _run_pool(grid: _CellGrid, n_jobs: int, start_method: str, state: _GridState) -> None:
    """Process-pool execution with broken-pool resubmission.

    Each iteration of the outer loop owns one pool.  Workers run every
    cell through :func:`_run_cell_with_retry`, so the parent only settles
    outcomes; when the pool itself breaks (a worker died), the
    not-yet-settled cells are resubmitted to a fresh pool.  Consecutive
    rebuilds that settle nothing are bounded by the retry policy, so a
    cell that reliably kills its worker cannot rebuild pools forever.  On
    any fatal error the outstanding futures are cancelled so no workers
    are left running stranded cells.

    ``state`` is installed in every worker by the pool initializer:
    inherited by reference under ``fork``, pickled under ``spawn``.
    """
    context = multiprocessing.get_context(start_method)
    unproductive_rebuilds = 0
    while grid.pending:
        pending_before = len(grid.pending)
        pool = ProcessPoolExecutor(
            max_workers=min(n_jobs, pending_before),
            mp_context=context,
            initializer=_set_pool_state,
            initargs=(state,),
        )
        futures: dict = {}
        try:
            for cell in grid.pending:
                futures[pool.submit(_run_cell_with_retry, cell)] = cell
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    continue  # the cell stays pending for the next pool
                grid.settle(futures[future], outcome)
        except BaseException:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        if not grid.pending:
            return
        # Reaching here means the pool broke mid-grid: the still-pending
        # cells were lost with their workers.  Rebuild and resubmit, but
        # only as long as pools keep making progress.
        if len(grid.pending) < pending_before:
            unproductive_rebuilds = 0
        else:
            unproductive_rebuilds += 1
        if unproductive_rebuilds >= grid.policy.max_attempts:
            grid.record_lost_cells(unproductive_rebuilds)
            return


def run_comparison(
    model_factory: "Callable[[], object] | Mapping | object",
    strategy_factories: "Mapping[str, StrategyFactory | Mapping]",
    train_dataset,
    test_dataset,
    config: ExperimentConfig | None = None,
    metric: "Callable[[object, object], float] | None" = None,
    n_jobs: int = 1,
    checkpoint_dir: "str | None" = None,
    resume: bool = True,
    retry: "RetryPolicy | None" = None,
    on_error: str = "raise",
    start_method: "str | None" = None,
    scenario: "dict | None" = None,
) -> dict[str, StrategyResult]:
    """Run every strategy ``config.repeats`` times and average the curves.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh unfitted model, or a
        model :class:`~repro.specs.core.Spec` (or its dict form) naming
        a registered model kind.
    strategy_factories:
        Mapping from display name to a zero-argument strategy factory
        (factories, not instances: history-aware strategies are stateful
        per run) or to a strategy spec.  When the model *and* every
        strategy are given as specs the grid is fully data-described:
        checkpoints embed the specs and the worker pool can use the
        ``spawn`` start method.
    n_jobs:
        Worker processes for the (strategy, repeat) grid.  ``1`` (the
        default) runs serially in-process.  Higher values fan the cells
        out over a process pool; because every cell is seeded
        independently and results are reassembled in input order, the
        output is byte-identical to the serial run regardless of the
        start method.  Without an explicit ``start_method`` the runner
        prefers ``fork``, falls back to ``spawn`` on fork-less platforms
        when the grid is spec-described, and otherwise degrades to
        serial execution (same results, no speedup).
    start_method:
        Force the pool start method (``"fork"`` or ``"spawn"``).
        ``spawn`` pickles the shared state instead of inheriting it, so
        it needs spec-described (or otherwise picklable) components,
        datasets, metric, and factories.
    checkpoint_dir:
        When set, every completed cell is written to this directory as a
        JSON checkpoint the moment it finishes (atomically — a crash
        mid-write never leaves a corrupt file), and with ``resume=True``
        cells already checkpointed by a previous identically-configured
        run are loaded instead of recomputed.  In-flight cells
        additionally snapshot their session after every committed round
        (``session_*.json``), so a crash *inside* a cell resumes from
        the last finished round rather than round zero; the snapshot is
        deleted when its cell completes.  A resumed grid produces
        results byte-identical to an uninterrupted run.
    resume:
        Whether to reuse existing checkpoints in ``checkpoint_dir``.
        With ``False``, existing cell files are ignored and overwritten.
        Checkpoints whose fingerprint does not match this run raise
        :class:`~repro.exceptions.CheckpointError` rather than being
        silently reused.
    retry:
        Per-cell retry budget (default: no retries).  Retrying reruns
        the whole cell from its seed, so a successful retry is
        indistinguishable from a first-attempt success.
    on_error:
        ``"raise"`` (default) aborts the grid on the first permanently
        failed cell, cancelling outstanding work.  ``"skip"`` drops the
        failed cells, aggregates each strategy over its surviving
        repeats, and records the failures on
        :attr:`StrategyResult.failures`.  A strategy whose repeats *all*
        failed still raises — there is nothing left to aggregate.

    Returns
    -------
    dict
        Display name -> :class:`StrategyResult`, in input order.
    """
    if not strategy_factories:
        raise ConfigurationError("no strategies to compare")
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    if on_error not in _ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )
    config = config or ExperimentConfig()
    needed = config.labels_needed
    if needed > len(train_dataset):
        raise ConfigurationError(
            f"experiment needs {needed} pool samples (initial_size + "
            f"rounds * batch_size) but train_dataset has only "
            f"{len(train_dataset)}; shrink rounds/batch_size or enlarge "
            "the pool"
        )
    model_factory, factories_by_name, model_spec, strategy_specs = (
        _normalise_components(model_factory, strategy_factories)
    )
    names = list(factories_by_name)
    factories = [factories_by_name[name] for name in names]
    store = (
        CheckpointStore(
            checkpoint_dir,
            config,
            model_spec=model_spec,
            strategy_specs=strategy_specs,
            # Scenario fingerprint of the (already perturbed) datasets:
            # checkpoints written under a different perturbation are
            # stale, not reusable.
            scenario=scenario,
        )
        if checkpoint_dir
        else None
    )

    state = _GridState(
        model_factory,
        factories,
        train_dataset,
        test_dataset,
        config,
        metric,
        store,
        names,
        grid_repeat_seeds(config),
        retry or RetryPolicy(),
    )
    grid = _CellGrid(state, on_error)
    if resume:
        grid.resume()
    else:
        grid.drop_stale_sessions()

    resolved_start = _resolve_start_method(start_method, spec_mode=model_spec is not None)
    if n_jobs > 1 and len(grid.pending) > 1 and resolved_start is not None:
        _run_pool(grid, n_jobs, resolved_start, state)
    else:
        for cell in list(grid.pending):
            grid.settle(cell, _run_cell_with_retry(cell, state))

    return aggregate_strategy_results(names, config.repeats, grid.results, grid.failures)


def aggregate_strategy_results(
    names: "list[str]",
    repeats: int,
    cell_results: "Mapping[tuple[int, int], ALResult]",
    cell_failures: "Mapping[tuple[int, int], CellFailure]",
) -> dict[str, StrategyResult]:
    """Fold per-cell outcomes into per-strategy aggregates, in input order.

    Shared by :func:`run_comparison` and the distributed coordinator:
    both settle every ``(strategy_index, repeat_index)`` cell into either
    an :class:`~repro.core.session.ALResult` or a :class:`CellFailure`,
    and aggregation is where the two execution paths must converge to
    the exact same curves.

    Raises
    ------
    ExecutionError
        When every repeat of some strategy failed — there is nothing
        left to aggregate for it.
    """
    results: dict[str, StrategyResult] = {}
    for strategy_index, name in enumerate(names):
        runs = [
            cell_results[(strategy_index, repeat_index)]
            for repeat_index in range(repeats)
            if (strategy_index, repeat_index) in cell_results
        ]
        strategy_failures = [
            cell_failures[cell]
            for cell in sorted(cell_failures)
            if cell[0] == strategy_index
        ]
        if not runs:
            raise ExecutionError(
                f"all {repeats} repeats of strategy {name!r} failed; "
                "nothing to aggregate"
            )
        curves = [run.curve(label=name) for run in runs]
        results[name] = StrategyResult(
            name=name,
            curve=mean_curve(curves, label=name),
            std=curve_std(curves),
            runs=runs,
            failures=strategy_failures,
        )
    return results
