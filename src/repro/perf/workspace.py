"""Reusable buffer pool for the sampling kernels.

One :class:`Workspace` lives per simulated device (see
``repro.core.scheduler.DeviceState``) and hands out preallocated arrays
keyed by a *role* string.  Buffers grow geometrically and are never
shrunk, so after the first iteration over a device's chunks every
``take`` is a slice of an existing allocation — the steady state the
paper's GPU kernels get from static device buffers.

Contract
--------
- A role names one logical temporary; two roles never alias.  Callers
  must not hold a role's array across a second ``take`` of the same
  role.
- Returned arrays are **uninitialised** (like ``np.empty``); use
  :meth:`Workspace.zeros` when the kernel relies on zero-fill.
- ``memo`` caches immutable derived data (e.g. a chunk's present-word
  list) keyed by caller-chosen hashables; it is the workspace-scoped
  equivalent of the CPU-side preprocessing the paper performs once per
  chunk.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from math import prod
from typing import Any

import numpy as np

__all__ = ["Workspace"]

#: Growth factor when a role needs a bigger buffer (amortises resizes).
_GROWTH = 1.5

_ALLOWED_COMPUTE = (np.dtype(np.float32), np.dtype(np.float64))


class Workspace:
    """Grow-only arena of named scratch buffers.

    Parameters
    ----------
    compute_dtype:
        Floating dtype the owning kernel should compute in; ``take``
        uses it when no explicit dtype is passed.  ``float64`` (the
        default) is bit-identical to the workspace-free kernels;
        ``float32`` halves bandwidth at the cost of a different (still
        valid) sampling chain.
    """

    def __init__(self, compute_dtype: np.dtype | str = np.float64):
        dt = np.dtype(compute_dtype)
        if dt not in _ALLOWED_COMPUTE:
            raise ValueError(
                f"compute_dtype must be float32 or float64, got {dt}"
            )
        self.compute_dtype = dt
        self._pool: dict[tuple[str, str], np.ndarray] = {}
        self._memo: dict[Hashable, Any] = {}
        self._arange = np.arange(0, dtype=np.int64)
        #: takes served from an existing buffer / takes that (re)allocated
        self.hits = 0
        self.misses = 0
        #: which p1 walk ("native" / "numpy") the last sampling pass on
        #: this workspace ran, and why it fell back to NumPy (if it did)
        self.sampler_kernel: str | None = None
        self.sampler_kernel_reason: str | None = None

    # -- buffers ---------------------------------------------------------

    def take(
        self,
        role: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | str | None = None,
    ) -> np.ndarray:
        """Uninitialised array of ``shape`` for ``role`` (pool-backed).

        This sits on the per-chunk-call hot path (a sampling pass takes
        ~50 buffers), so the common cases — an ``int`` shape and a
        ``np.dtype`` instance — are handled without any normalisation
        work.
        """
        if type(shape) is tuple:
            n = prod(shape)
        else:
            n = shape = int(shape)
        if dtype is None:
            dt = self.compute_dtype
        elif type(dtype) is np.dtype:
            dt = dtype
        else:
            dt = np.dtype(dtype)
        key = (role, dt)
        buf = self._pool.get(key)
        if buf is None or buf.size < n:
            cap = n if buf is None else max(n, int(buf.size * _GROWTH))
            buf = np.empty(cap, dtype=dt)
            self._pool[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        out = buf[:n]
        if type(shape) is tuple:
            return out.reshape(shape)
        return out

    def zeros(
        self,
        role: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | str | None = None,
    ) -> np.ndarray:
        """Like :meth:`take` but zero-filled."""
        out = self.take(role, shape, dtype)
        out[...] = 0
        return out

    def arange(self, n: int) -> np.ndarray:
        """Read-only ``int64`` ramp ``[0, n)`` (shared, grown on demand)."""
        n = int(n)
        if self._arange.shape[0] < n:
            ramp = np.arange(max(n, int(self._arange.shape[0] * _GROWTH)),
                             dtype=np.int64)
            ramp.setflags(write=False)
            self._arange = ramp
        return self._arange[:n]

    # -- memoised derived data ------------------------------------------

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return ``build()`` cached under ``key`` (immutable data only)."""
        try:
            return self._memo[key]
        except KeyError:
            value = build()
            self._memo[key] = value
            return value

    # -- introspection ---------------------------------------------------

    def note_kernel(self, kernel: str, reason: str | None) -> None:
        """Record which kernel a pass on this workspace ran (see describe)."""
        self.sampler_kernel = kernel
        self.sampler_kernel_reason = reason

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool (excluding memos)."""
        return sum(b.nbytes for b in self._pool.values()) + self._arange.nbytes

    def describe(self) -> dict:
        """Pool occupancy and reuse counters (for perf reports)."""
        return {
            "compute_dtype": self.compute_dtype.name,
            "roles": len(self._pool),
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "memo_entries": len(self._memo),
            "sampler_kernel": self.sampler_kernel,
            "sampler_kernel_reason": self.sampler_kernel_reason,
        }

    def clear(self) -> None:
        """Drop every buffer and memo (frees memory; keeps dtype)."""
        self._pool.clear()
        self._memo.clear()
        self._arange = np.arange(0, dtype=np.int64)
        self.hits = 0
        self.misses = 0
