"""Shared evaluation loop.

Three near-identical copies of "mean loss over a loader, in eval mode,
under ``no_grad``" had grown in the codebase (the core trainer, the
evaluation metrics, ad-hoc benchmark loops); this module is the single
implementation they all delegate to.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..autograd import Tensor, no_grad
from .module import Module

__all__ = ["mean_loss_over_loader"]


def mean_loss_over_loader(model: Module, loader,
                          loss_fn: Callable[[Tensor, Tensor], Tensor],
                          empty_message: str = "loader produced no batches",
                          step: Optional[Callable] = None) -> float:
    """Mean of ``loss_fn(model(x), y)`` over a loader, without gradients.

    The model is put in evaluation mode for the sweep and restored to its
    previous mode afterwards.  Raises ``ValueError(empty_message)`` when
    the loader yields nothing — callers pass their own message so existing
    error texts stay stable.  ``step`` is an optional forward-only runner
    ``step(x, y) -> (loss,)`` computing the same loss (a compiled
    validation step); it replaces the eager forward bit for bit.
    """
    was_training = model.training
    model.eval()
    total, batches = 0.0, 0
    with no_grad():
        for x, y in loader:
            if step is None:
                total += loss_fn(model(Tensor(x)), Tensor(y)).item()
            else:
                total += step(x, y)[0]
            batches += 1
    if was_training:
        model.train()
    if batches == 0:
        raise ValueError(empty_message)
    return total / batches
