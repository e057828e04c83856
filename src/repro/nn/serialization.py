"""Model checkpointing: save/load state dicts to ``.npz`` archives.

The library's models are plain numpy underneath, so an npz of the
``state_dict`` is a complete, dependency-free checkpoint.  Archives are
stored uncompressed: training checkpoints are rewritten every epoch, and
deflating them cost more time than the bytes it saved.  Compressed
archives written by earlier versions still load.  Metadata
(arbitrary JSON-serializable dict) travels alongside, which the DSE driver
uses to record the λ / warmup / dilations that produced a model.

Writes are torn-write-proof: the archive is assembled in a tempfile in the
target directory and moved into place with ``os.replace`` (the same flush
discipline as :class:`repro.evaluation.DSECache`), so a crash mid-write
can never leave a half-written file under the final name.  Reads raise a
typed :class:`CheckpointError` on truncated/corrupt archives instead of a
raw ``zipfile.BadZipFile``; callers with a recovery story (the trainer
checkpoint layer) can additionally ask for the corrupt file to be
quarantined to ``<path>.corrupt`` for post-mortems.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .module import Module

__all__ = ["save_model", "load_model", "save_state", "load_state",
           "CheckpointError"]

_META_KEY = "__repro_metadata__"


class CheckpointError(RuntimeError):
    """A checkpoint archive could not be read (truncated, corrupt, or
    carrying unreadable metadata).

    Typed so callers can tell a damaged file — recoverable by retraining
    or by falling back to an older checkpoint — from programming errors.
    The original low-level exception (``zipfile.BadZipFile``, ``OSError``,
    ``json.JSONDecodeError``, …) rides along as ``__cause__``.
    """


def save_state(state: Dict[str, np.ndarray], path: Union[str, Path],
               metadata: Optional[dict] = None) -> None:
    """Atomically write a state dict (+ optional metadata) to an npz.

    The payload is staged in a tempfile in the target directory and
    renamed over ``path``, so readers only ever see a complete archive.
    """
    path = Path(path)
    payload = dict(state)
    if _META_KEY in payload:
        raise ValueError(f"state may not contain the reserved key {_META_KEY!r}")
    if metadata is not None:
        payload[_META_KEY] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_state(path: Union[str, Path], *, quarantine: bool = False
               ) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Read back a state dict and its metadata (None if absent).

    A file that cannot be parsed — truncated by a crash mid-write, garbage
    bytes, unreadable embedded metadata — raises :class:`CheckpointError`.
    With ``quarantine=True`` the damaged file is first moved to
    ``<path>.corrupt`` (overwriting any previous quarantine) with a
    warning, so the broken state is preserved for post-mortems but can
    never be re-read as a live checkpoint.  A missing file stays a plain
    ``FileNotFoundError`` — absence is not corruption.
    """
    path = Path(path)
    try:
        with np.load(path) as archive:
            state = {}
            metadata = None
            for key in archive.files:
                if key == _META_KEY:
                    metadata = json.loads(bytes(archive[key]).decode("utf-8"))
                else:
                    state[key] = archive[key]
        return state, metadata
    except FileNotFoundError:
        raise
    except Exception as exc:
        if quarantine:
            target = str(path) + ".corrupt"
            try:
                os.replace(path, target)
            except OSError:
                target = "<unmovable>"
            warnings.warn(
                f"checkpoint file {str(path)!r} is corrupt ({exc}); "
                f"quarantined to {target!r}", stacklevel=2)
        raise CheckpointError(
            f"cannot read checkpoint {str(path)!r}: {exc}") from exc


def save_model(model: Module, path: Union[str, Path],
               metadata: Optional[dict] = None) -> None:
    """Checkpoint a model's parameters and buffers."""
    save_state(model.state_dict(), path, metadata=metadata)


def load_model(model: Module, path: Union[str, Path]) -> Optional[dict]:
    """Load a checkpoint into an already-constructed model.

    The model must have the same architecture (strict key/shape matching,
    enforced by :meth:`Module.load_state_dict`).  Returns the metadata.
    Raises :class:`CheckpointError` when the archive is damaged.
    """
    state, metadata = load_state(path)
    model.load_state_dict(state)
    return metadata
