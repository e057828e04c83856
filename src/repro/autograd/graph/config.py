"""One configuration object for the graph-execution knobs.

:class:`CompileConfig` is the single way to choose an execution tier: a
frozen, picklable value (safe to ship to DSE pool workers) passed as
``compile_config=`` to every trainer / search entry point.  Any ``None``
field defers to the corresponding ``REPRO_*`` environment variable at use
time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .executor import ENV_COMPILE, compile_step_default
from .passes import resolve_graph_opt

__all__ = [
    "ENV_LOOP_CAPTURE",
    "CompileConfig",
    "loop_capture_default",
]

ENV_LOOP_CAPTURE = "REPRO_LOOP_CAPTURE"
_TRUTHY = ("1", "true", "yes", "on")


def loop_capture_default() -> bool:
    """Process-wide default for ``loop_capture=None`` knobs.

    The ``REPRO_LOOP_CAPTURE`` environment variable when set (read per
    call so tests can flip it), else False — whole-loop capture is opt-in
    for now, mirroring how ``REPRO_COMPILE_STEP`` was introduced.
    """
    return os.environ.get(ENV_LOOP_CAPTURE, "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class CompileConfig:
    """The three graph-execution knobs as one immutable, picklable value.

    Every field defaults to None, meaning "defer to the environment at use
    time" (``REPRO_COMPILE_STEP`` / ``REPRO_GRAPH_OPT`` /
    ``REPRO_LOOP_CAPTURE``), so a default-constructed config is
    behavior-identical to passing no config at all.
    """

    compile_step: Optional[bool] = None
    graph_opt: Optional[str] = None
    loop_capture: Optional[bool] = None

    @classmethod
    def resolve(cls, config: Optional["CompileConfig"] = None
                ) -> "CompileConfig":
        """``config`` itself, or a default config for None.

        The single entry point every trainer / search layer uses to
        normalize its ``compile_config=`` argument; anything else is a
        :class:`TypeError`.
        """
        if config is None:
            return cls()
        if not isinstance(config, CompileConfig):
            raise TypeError(
                f"compile_config must be a CompileConfig, got {config!r}")
        return config

    # -- resolved views (environment applied) --------------------------

    def _loop_flag(self) -> bool:
        if self.loop_capture is not None:
            return bool(self.loop_capture)
        return loop_capture_default()

    def want_compile(self) -> bool:
        """Whether step compilation is enabled (env-defaulted).

        Loop capture implies compilation — an epoch loop is built from
        compiled step bodies — so the loop flag turns the compiler on when
        ``compile_step`` was left *unset*.  Anything explicit about
        compilation wins over the loop flag: a ``compile_step=False``
        field, or a ``REPRO_COMPILE_STEP`` variable actually present in
        the environment (so ``REPRO_COMPILE_STEP=0 REPRO_LOOP_CAPTURE=1``
        still means eager).
        """
        if self.compile_step is not None:
            return bool(self.compile_step)
        if os.environ.get(ENV_COMPILE, "").strip():
            return compile_step_default()
        return compile_step_default() or self._loop_flag()

    def want_loop(self) -> bool:
        """Whether whole-loop capture is enabled (env-defaulted).

        False whenever :meth:`want_compile` is False: loops replay
        compiled bodies, so disabling compilation disables the loop too.
        """
        return self._loop_flag() and self.want_compile()

    def resolved_opt(self) -> str:
        """The optimization level, validated against ``OPT_LEVELS``."""
        return resolve_graph_opt(self.graph_opt)

    def validate(self) -> "CompileConfig":
        """Eagerly validate ``graph_opt``; returns self for chaining."""
        if self.graph_opt is not None:
            resolve_graph_opt(self.graph_opt)
        return self
