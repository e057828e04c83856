"""One configuration object for the graph-execution tier.

:class:`CompileConfig` is the single way to choose an execution tier: a
frozen, picklable value (safe to ship to DSE pool workers) passed as
``compile_config=`` to every trainer / search entry point.  The default is
the compiled tier — each training step traced once and replayed as
optimized generated code, each epoch replayed as one loop program.  Eager
execution is the reference and the opt-out: ``compile_step=False``, or
``REPRO_COMPILE_STEP=0`` in the environment when the config is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CompileConfig", "ENV_COMPILE", "compile_step_default"]

ENV_COMPILE = "REPRO_COMPILE_STEP"


def compile_step_default() -> bool:
    """Default of :attr:`CompileConfig.compile_step`: compilation is on.

    Only a falsy ``REPRO_COMPILE_STEP`` (``0``/``false``/``no``/``off``)
    opts out, leaving eager execution as the reference tier.
    """
    return (os.environ.get(ENV_COMPILE, "").strip().lower()
            not in ("0", "false", "no", "off"))


@dataclass(frozen=True)
class CompileConfig:
    """The execution tier as one immutable, picklable value.

    ``compile_step`` traces each training step once and replays it as
    generated code; it defaults to True unless ``REPRO_COMPILE_STEP`` is
    falsy, read once when the config is constructed.  ``loop_capture``
    additionally replays each whole epoch as one loop program; loops
    replay compiled bodies, so it is normalized to False without
    ``compile_step`` and callers read it alone.  ``loop_capture=False``
    pins the per-step tier.  Every tier is bit-identical to eager.
    """

    compile_step: bool = field(default_factory=compile_step_default)
    loop_capture: bool = True

    def __post_init__(self):
        if not self.compile_step:
            object.__setattr__(self, "loop_capture", False)

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
