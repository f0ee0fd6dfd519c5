"""The enactor's one observer protocol (docs/observability.md,
"Observers"): the tracer and the BSP sanitizer override these no-op
hooks, and every observer site of the enactor
loop is one plain ``for`` loop over the run's observers — empty, and so
free of Python calls, when none is attached.
"""

from __future__ import annotations

__all__ = ["Observer"]


class Observer:
    """No-op hooks of the enactor loop, in the order a run calls them."""

    def begin_run(self, enactor, metrics) -> None:
        """A run starts, after the reset; ``metrics`` is its RunMetrics."""

    def on_superstep_start(self, gpu, iteration, vt, frontier) -> None:
        """GPU ``gpu``'s turn opens at virtual time ``vt`` — in the
        process that runs it, on that process's copy of the observer."""

    def on_superstep_end(self, vt, eff):
        """The turn closes at ``vt``; returns this observer's stage of
        it, which rides ``eff.stages`` to :meth:`on_effects`."""

    def on_effects(self, eff, stage) -> None:
        """The merge reached one GPU's effects (GPU-index order)."""

    def on_barrier(self, enactor, iteration, rec) -> None:
        """Superstep ``iteration`` closed; ``rec`` is its record."""

    def instant(self, type_, vt=None, **fields) -> None:
        """One point event, from ``Enactor.emit``."""

    def on_error(self, reason, **fields) -> None:
        """A failure, from ``Enactor.report_error``."""

    def end_run(self, metrics) -> None:
        """The run finished with ``metrics``."""
