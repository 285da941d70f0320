"""Execution-context state shared by the dispatch and statistics layers.

An :class:`ExecutionContext` is the low-level bundle of mutable state one
session owns: the active arithmetic :class:`~repro.core.backend.Backend`,
the installed statistics collectors, the vectorizable-region depth, and
the memo of program evaluations and kernel reports shared across every
search and flow run under the session.
:mod:`repro.core.ops` dispatches arithmetic through the *current*
context's backend; :mod:`repro.core.stats` records into the *current*
context's collectors.

A *per-thread* stack holds the active contexts.  The bottom entry of
every thread's stack is the shared process-wide default (what the compat
shims and the default session use, matching the seed library's global
collector semantics across threads); :class:`repro.session.Session`
pushes its own context on activation, so sessions get fully isolated
statistics and backend selection -- including from sessions activated
concurrently in other threads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from .backend import Backend, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stats import Stats

__all__ = [
    "ExecutionContext",
    "current_context",
    "default_context",
    "push_context",
    "pop_context",
    "install_collector",
    "vector_region",
    "use_backend",
]


class ExecutionContext:
    """Backend + statistics state for one logical execution scope.

    ``memo`` caches reference outputs and SQNRs for
    :class:`~repro.tuning.search.DistributedSearch`, and kernel reports
    for :meth:`repro.hardware.VirtualPlatform.run_app`; its keys carry
    the backend, so a :func:`use_backend` swap never reads another
    backend's entries.
    """

    __slots__ = ("backend", "collectors", "vector_depth", "memo")

    def __init__(self, backend: "Backend | str | None" = None) -> None:
        self.backend: Backend = resolve_backend(backend)
        self.collectors: list["Stats"] = []
        self.vector_depth: int = 0
        self.memo: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"<ExecutionContext backend={self.backend.name!r} "
            f"collectors={len(self.collectors)}>"
        )


#: The single process-wide default context, shared by every thread's
#: stack bottom (and never popped).
_DEFAULT_CONTEXT = ExecutionContext()


class _ContextStack(threading.local):
    """Per-thread stack of active contexts, bottomed on the default."""

    def __init__(self) -> None:
        self.stack: list[ExecutionContext] = [_DEFAULT_CONTEXT]


_local = _ContextStack()


def current_context() -> ExecutionContext:
    """The context arithmetic and statistics currently route through."""
    return _local.stack[-1]


def default_context() -> ExecutionContext:
    """The process-wide default context (bottom of every stack)."""
    return _DEFAULT_CONTEXT


def push_context(ctx: ExecutionContext) -> None:
    """Make ``ctx`` the current context until popped (this thread only)."""
    _local.stack.append(ctx)


def pop_context(ctx: ExecutionContext) -> None:
    """Remove the topmost occurrence of ``ctx`` (never the default)."""
    stack = _local.stack
    for i in range(len(stack) - 1, 0, -1):
        if stack[i] is ctx:
            del stack[i]
            return


@contextmanager
def install_collector(ctx: ExecutionContext, stats) -> Iterator[None]:
    """Install a collector on ``ctx`` for the duration of the block.

    Removal is by identity, not equality: Stats is a dataclass, and two
    collectors with equal contents would confuse ``list.remove()``.
    """
    ctx.collectors.append(stats)
    try:
        yield
    finally:
        for i in range(len(ctx.collectors) - 1, -1, -1):
            if ctx.collectors[i] is stats:
                del ctx.collectors[i]
                break


@contextmanager
def vector_region(ctx: ExecutionContext) -> Iterator[None]:
    """Mark a vectorizable region on ``ctx`` for the duration of the block."""
    ctx.vector_depth += 1
    try:
        yield
    finally:
        ctx.vector_depth -= 1


@contextmanager
def use_backend(
    backend: "Backend | str", ctx: ExecutionContext | None = None
) -> Iterator[Backend]:
    """Temporarily swap a context's backend (the current one by default).

    Statistics collection keeps flowing to the same collectors -- only
    the arithmetic engine changes, which is the right granularity for
    "run this block on the fast backend" experiments.
    """
    if ctx is None:
        ctx = current_context()
    previous, ctx.backend = ctx.backend, resolve_backend(backend)
    try:
        yield ctx.backend
    finally:
        ctx.backend = previous
