"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while still being able to distinguish specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SpecError(ConfigurationError):
    """A declarative spec could not be parsed, built, or extracted.

    Raised by :mod:`repro.specs` for an unknown kind, malformed or
    invalid params, an unsupported spec version, or an object that no
    registered kind knows how to serialise back into a spec.
    """


class CurveMismatchError(ConfigurationError, ValueError):
    """Learning curves with incompatible count grids were aggregated.

    Raised by :func:`repro.eval.mean_curve` / :func:`repro.eval.curve_std`
    when the curves being averaged do not share the same labeled-count
    grid.  ``labels`` names the offending curves so sweep reports can say
    *which* repeats diverged, not just that something did.
    """

    def __init__(self, message: str, labels: "tuple[str, ...]" = ()) -> None:
        super().__init__(message)
        self.labels = tuple(labels)


class DataError(ReproError):
    """A dataset, vocabulary, or tagging scheme is malformed."""


class NotFittedError(ReproError):
    """A model or ranker was used before :meth:`fit` was called."""


class PoolError(ReproError):
    """An illegal labeled/unlabeled pool operation was attempted.

    Examples include labeling an index twice or selecting more samples
    than remain in the unlabeled pool.
    """


class HistoryError(ReproError):
    """An inconsistent write or read was attempted on a history store."""


class StrategyError(ReproError):
    """A query strategy was used with an incompatible model or dataset."""


class ExecutionError(ReproError):
    """An experiment cell failed permanently.

    Raised by the comparison runner when a (strategy, repeat) cell keeps
    failing after its retry budget is exhausted, when worker processes
    keep dying without making progress, or when every repeat of a
    strategy failed and there is nothing left to aggregate.
    """


class QueueError(ReproError):
    """A distributed work queue is malformed or was driven illegally.

    Raised by :mod:`repro.experiments.distributed` for a queue directory
    that is missing or not a cell queue, a queue materialized with a
    removed backend, an attempt
    to materialize a different experiment into an existing queue, or a
    lease-protocol violation (e.g. committing a cell that was never
    ticketed).
    """


class CheckpointError(ReproError):
    """A checkpoint file is corrupt or does not match the current run.

    Stale checkpoints (written by a run with a different configuration,
    seed, or strategy set) are rejected with this error instead of being
    silently reused.
    """


class StoreError(ReproError):
    """A session store could not read or write a stored document.

    Raised by :mod:`repro.service.store` backends for corrupt documents,
    illegal session ids, and backend I/O failures.
    """


class StoreConflictError(StoreError):
    """An optimistic-concurrency session write lost the race.

    Raised by a version-checked compare-and-swap
    :meth:`~repro.service.store.SessionStore.save` whose expected
    version no longer matches the stored one (another writer got there
    first), and by :meth:`~repro.service.store.SessionStore.create` when
    the session id already exists.  The AL service maps it to HTTP 409.
    """


class ServiceError(ReproError):
    """An AL-service request failed; carries the HTTP status code.

    The service layer (:mod:`repro.service.app`) raises it for
    request-level problems — unknown session id (404), malformed create
    body (400), unknown store backend (400) — and the client re-raises
    it for server-side errors that map to no more specific class.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


class SessionError(ReproError):
    """An active-learning session was driven or restored illegally.

    Raised when a :class:`~repro.core.session.SessionEngine` method is
    called in the wrong lifecycle state (e.g. ``step()`` while waiting
    for labels, ``result()`` before the session finished) or when a
    snapshot does not match the components it is being restored with.
    """


class IngestError(SessionError):
    """A label batch handed to a session was rejected.

    Covers every ingest-path validation failure: indices that were never
    proposed or are already labeled, duplicated indices, a label list
    whose length does not match the indices, and label values that are
    invalid for the dataset (class id out of range, tag sequence of the
    wrong length).
    """
