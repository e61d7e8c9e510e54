"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError, ValueError):
    """A tensor shape is malformed or incompatible with an operation."""


class GraphError(ReproError):
    """A layer graph is structurally invalid (cycles, dangling tensors...)."""


class GraphVerificationError(GraphError):
    """The static IR verifier rejected a graph.

    Raised by :func:`repro.analysis.static.verify_graph` when one or more
    invariants fail; ``findings`` carries the individual
    :class:`~repro.analysis.static.verifier.GraphFinding` records so callers
    (and the ``repro.lint --strict`` driver) can report per-rule detail
    instead of one opaque message.
    """

    def __init__(self, message: str, findings=()):
        super().__init__(message)
        self.findings = tuple(findings)

    def __reduce__(self):
        # Extra constructor state needs an explicit pickle recipe so the
        # error survives the multiprocessing result queue intact.
        return (type(self), (self.args[0], self.findings))


class PassError(ReproError):
    """A restructuring pass was applied to a graph it cannot legally touch."""


class ExecutionError(ReproError):
    """The functional executor hit an inconsistent runtime state."""


class HardwareSpecError(ReproError, ValueError):
    """A hardware description is incomplete or non-physical."""


class SimulationError(ReproError):
    """The performance simulator was asked something it cannot answer."""


class SweepSpecError(ReproError, ValueError):
    """A sweep grid declaration references unknown axes or axis values."""


class PrecisionError(ReproError, ValueError):
    """A kernel or tensor was asked to run at an unsupported precision,
    or with an accumulate dtype narrower than the contract allows."""


class SweepExecutionError(ReproError):
    """A sweep run could not price every cell — retries were exhausted
    *and* the serial in-process degrade path failed too.

    Carries the content keys of the cells left unpriced (``cell_keys``)
    and, when raised by the supervised runner, the run's
    :class:`~repro.sweep.retry.FailureReport` (``report``) describing
    every recovery step that was attempted first.
    """

    def __init__(self, message: str, cell_keys=(), report=None):
        super().__init__(message)
        self.cell_keys = tuple(cell_keys)
        self.report = report

    def __reduce__(self):
        # Exceptions with extra constructor state need an explicit
        # recipe to survive the multiprocessing result queue.
        return (type(self), (self.args[0], self.cell_keys, self.report))


class CellPricingError(SweepExecutionError):
    """Pricing one cell raised; ``cell_keys`` names the cell(s) affected.

    Pool workers normalize arbitrary pricer exceptions into this type
    before shipping them back — it is always picklable and always says
    *which* cell failed, so the supervisor can retry exactly the
    surviving remainder of a bundle.
    """

