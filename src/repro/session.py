"""The Session facade: one object owning the platform's execution state.

A :class:`Session` bundles everything the layers above the emulation
library used to re-derive by hand:

* the arithmetic :class:`~repro.core.backend.Backend` (``reference`` or
  ``fast``),
* the statistics-collection state (previously a module-global list in
  :mod:`repro.core.stats`; now scoped to the session's execution
  context),
* the tuning-result cache directory,
* the default precision-tuning strategy (``greedy``, ``bisect``,
  ``cast_aware``, ``anneal``, or anything registered via
  :func:`repro.tuning.register_strategy`), and
* the :class:`~repro.hardware.VirtualPlatform` the kernels are timed on.

Construct one and pass it down -- ``TransprecisionFlow``, the analysis
drivers' :class:`~repro.analysis.common.ExperimentConfig`, and the CLI
all accept a session -- or activate it as a context manager so every
emulated operation in the block dispatches through it:

>>> from repro.session import Session
>>> from repro.apps import make_app
>>> from repro.core import BINARY16ALT
>>> from repro.tuning import uniform_binding
>>> app = make_app("conv", "tiny")
>>> s = Session(backend="fast")
>>> with s, s.collect() as stats:
...     out = app.run_numeric(uniform_binding(app, BINARY16ALT))
>>> stats.total_arith_ops()
800

Sessions nest: activating a session pushes its execution context, so
statistics and backend choice are fully isolated from the enclosing
session.  Module-level helpers (:func:`repro.core.collect`,
:func:`repro.core.record_op`, ...) keep working as thin shims over the
*current* session, which is the process-wide default one when none is
active.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import faults
from .core.backend import Backend, resolve_backend
from .core.context import (
    ExecutionContext,
    default_context,
    install_collector,
    pop_context,
    push_context,
    vector_region,
)
from .core.context import use_backend as _use_backend
from .core.stats import Stats
from .telemetry import span as _span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flow import TransprecisionFlow
    from .hardware import VirtualPlatform
    from .server import JobServer

__all__ = ["Session", "get_session", "use_session", "use_backend"]


def default_cache_dir() -> Path:
    """Where tuning results are cached when a session does not say."""
    return Path.cwd() / "results" / "tuning"


class Session:
    """One execution context for the whole stack.

    Parameters
    ----------
    backend:
        Backend instance or name (``"reference"``/``"fast"``);
        defaults to the exact reference engine.
    cache_dir:
        Tuning-result cache directory (created on demand); defaults to
        ``./results/tuning``.
    default_strategy:
        Tuning strategy (registry name or instance) flows use when they
        do not name one themselves; ``greedy`` -- the pre-registry
        behaviour -- unless told otherwise.
    """

    def __init__(
        self,
        backend: Backend | str | None = None,
        cache_dir: str | Path | None = None,
        default_strategy=None,
        _context: ExecutionContext | None = None,
    ) -> None:
        from .tuning import registered_name

        self._context = (
            _context if _context is not None else ExecutionContext(backend)
        )
        self._cache_dir = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self._platform: "VirtualPlatform | None" = None
        # Resolve eagerly: a typo'd strategy name (or a configured
        # instance the registry cannot rebuild by name) should fail at
        # session construction, not deep inside the first flow.
        self._default_strategy = registered_name(default_strategy)

    # ------------------------------------------------------------------
    # Owned state
    # ------------------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        """The execution context (backend + stats state) this session owns."""
        return self._context

    @property
    def backend(self) -> Backend:
        return self._context.backend

    @backend.setter
    def backend(self, spec: Backend | str) -> None:
        self._context.backend = resolve_backend(spec)

    @property
    def cache_dir(self) -> Path:
        return self._cache_dir

    @property
    def default_strategy(self) -> str:
        """Name of the tuning strategy flows fall back to."""
        return self._default_strategy

    @property
    def platform(self) -> "VirtualPlatform":
        """The calibrated virtual platform kernels are timed on (lazily
        constructed, then shared)."""
        if self._platform is None:
            from .hardware import VirtualPlatform

            self._platform = VirtualPlatform()
        return self._platform

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        _sessions.active.append(self)
        push_context(self._context)
        return self

    def __exit__(self, *exc) -> bool:
        pop_context(self._context)
        active = _sessions.active
        for i in range(len(active) - 1, -1, -1):
            if active[i] is self:
                del active[i]
                break
        return False

    def activate(self) -> "Session":
        """Context manager form: ``with session.activate(): ...``."""
        return self

    # ------------------------------------------------------------------
    # Statistics (session-scoped)
    # ------------------------------------------------------------------
    @contextmanager
    def collect(self, stats: Stats | None = None) -> Iterator[Stats]:
        """Install a collector on *this* session's context.

        Works whether or not the session is currently active; ops only
        reach the collector while the session's context is current.
        """
        if stats is None:
            stats = Stats()
        with _span("session.collect"):
            with install_collector(self._context, stats):
                yield stats

    @contextmanager
    def vectorizable(self) -> Iterator[None]:
        """Tag the enclosed operations as vectorizable in this session."""
        with vector_region(self._context):
            yield

    def use_backend(self, spec: Backend | str):
        """Temporarily swap this session's backend (stats keep flowing)."""
        return _use_backend(spec, ctx=self._context)

    # ------------------------------------------------------------------
    # Worker bootstrap (experiment runner)
    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """A picklable description from which :meth:`from_spec` rebuilds
        an equivalent session.

        Only durable configuration crosses a process boundary -- the
        backend *name*, the cache directory and the default
        tuning-strategy *name* -- never live context state (collectors,
        vector-region depth): each worker owns a fresh execution
        context, so no statistics or backend state can leak between
        processes.

        Raises ``TypeError`` when the backend instance is not what its
        name resolves to: failing here (at spec time) beats a silently
        wrong backend materializing in every worker.
        """
        try:
            resolved = resolve_backend(self.backend.name)
        except KeyError:
            raise TypeError(
                f"backend {self.backend.name!r} is not a shipped "
                "backend; workers rebuild the backend by name, so this "
                "session cannot cross a process boundary"
            ) from None
        if type(resolved) is not type(self.backend):
            raise TypeError(
                f"backend {self.backend.name!r} resolves to "
                f"{type(resolved).__name__}, not "
                f"{type(self.backend).__name__}: workers rebuild the "
                "backend by name, so this session cannot cross a process "
                "boundary"
            )
        plan = faults.active_plan()
        return {
            "backend": self.backend.name,
            "cache_dir": str(self._cache_dir),
            "strategy": self._default_strategy,
            # The active fault plan rides along so pool workers rehearse
            # exactly the faults the parent process would (None = none).
            "faults": plan.to_payload() if plan is not None else None,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Session":
        """Rebuild a worker-side session from :meth:`spec`'s output.

        Also activates the spec's fault plan (if any) in *this* process,
        so a pool worker bootstrapped from a rehearsing parent rehearses
        the same deterministic plan.
        """
        if spec.get("faults") is not None:
            faults.activate(faults.FaultPlan.from_payload(spec["faults"]))
        return cls(
            backend=spec["backend"],
            cache_dir=spec["cache_dir"],
            default_strategy=spec.get("strategy"),
        )

    # ------------------------------------------------------------------
    # Higher layers
    # ------------------------------------------------------------------
    def flow(
        self, app, type_system, precision: float, **kwargs
    ) -> "TransprecisionFlow":
        """A :class:`TransprecisionFlow` wired to this session.

        The flow times its kernels on the session's platform and
        inherits its tuning cache unless overridden via ``kwargs``
        (``cache_dir=None`` disables caching).
        """
        from .flow import TransprecisionFlow

        return TransprecisionFlow(
            app, type_system, precision, session=self, **kwargs
        )

    def server(self, **kwargs) -> "JobServer":
        """A :class:`repro.server.JobServer` computing under this
        session (constructed, not yet started).

        Keyword arguments pass through to the server -- ``scale``,
        ``store_dir``, ``jobs``, ``host``/``port``, ... -- and its
        workers rebuild this session via :meth:`from_spec`, so served
        results are byte-identical to ones this session computes
        directly.
        """
        from .server import JobServer

        return JobServer(session=self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Session(backend={self.backend.name!r}, "
            f"cache_dir={str(self._cache_dir)!r})"
        )


# ----------------------------------------------------------------------
# Current / default session
# ----------------------------------------------------------------------
class _SessionStack(threading.local):
    """Per-thread list of activated sessions (innermost last)."""

    def __init__(self) -> None:
        self.active: list[Session] = []


_sessions = _SessionStack()
_default_session: Session | None = None
_default_lock = threading.Lock()


def get_session() -> Session:
    """The innermost active session (in this thread), or the default one.

    The default session wraps the default execution context, so the
    module-level compat shims (:func:`repro.core.collect`, ...) and the
    default session observe the same state.
    """
    if _sessions.active:
        return _sessions.active[-1]
    global _default_session
    with _default_lock:
        if _default_session is None:
            _default_session = Session(_context=default_context())
    return _default_session


@contextmanager
def use_session(session: Session) -> Iterator[Session]:
    """Functional alias for ``with session: ...``."""
    with session:
        yield session


#: Re-export: temporarily swap the *current* context's backend.
use_backend = _use_backend
