"""Native (C) inner loops, compiled on first use and loaded via ctypes.

``_kernels.c`` holds the loops that NumPy can only express by
materialising one array entry per (token, theta non-zero) pair: the p1
walk of the sampler (mass and draw) and the update-phi scatter.  This
module builds it once per host with the system ``gcc`` and hands out a
:class:`NativeKernels` handle; :func:`kernels` returns ``None`` when the
build or load fails, and every caller then runs its NumPy reference
code instead.  Nothing here changes a result: the C loops are
bit-identical to the NumPy reference (tests/test_native_kernels.py).

Build rules
-----------
- ``-O2 -fPIC -ffp-contract=off``; never ``-ffast-math`` or
  ``-march=native``, so no FMA contraction or reassociation can move a
  rounding and the binary is the same on every host of an ISA.
- The shared object is cached as ``repro_kernels-<hash>.so``, the hash
  covering the C source, the flags and ``gcc --version``.  It lives in
  the ``__pycache__`` directory beside this module, or in
  ``~/.cache/repro`` when that is not writable.
- A build writes a private temporary file and publishes it with an
  atomic ``os.replace``, so processes racing the first build, or a
  killed build, never expose a torn file.  A cached file whose ELF
  section table runs past its end (a truncated copy) is rebuilt rather
  than loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import struct
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["NativeKernels", "kernels", "reset", "status"]

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernels.c")
CFLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-shared")
COMPILER = "gcc"

_c_i64 = ctypes.c_int64
_c_ptr = ctypes.c_void_p

_F64 = np.dtype(np.float64)
_F32 = np.dtype(np.float32)
_U16 = np.dtype(np.uint16)
_I32 = np.dtype(np.int32)
_I64 = np.dtype(np.int64)
_FLOAT_TAG = {_F64: "f64", _F32: "f32"}
_INDEX_TAG = {_U16: "u16", _I32: "i32"}
_PHI_TAG = {_I32: "i32", _I64: "i64"}


def _ptr(a: np.ndarray | None) -> int | None:
    return None if a is None else a.ctypes.data


class NativeKernels:
    """Typed entry points of the loaded shared object.

    Every array argument must be C-contiguous with the dtype the caller
    checked through :meth:`supports_p1` / :meth:`supports_phi`; the
    methods pass raw pointers and do no conversion.
    """

    def __init__(self, lib: ctypes.CDLL, path: Path):
        self.path = path
        self._p1_mass = {}
        self._p1_draw = {}
        self._phi_update = {}
        for ft in _FLOAT_TAG.values():
            for it in _INDEX_TAG.values():
                mass = getattr(lib, f"p1_mass_{ft}_{it}")
                mass.restype = _c_i64
                mass.argtypes = [_c_i64, *[_c_ptr] * 5, _c_i64, *[_c_ptr] * 6]
                self._p1_mass[ft, it] = mass
                draw = getattr(lib, f"p1_draw_{ft}_{it}")
                draw.restype = None
                draw.argtypes = [_c_i64, *[_c_ptr] * 5, _c_i64, *[_c_ptr] * 7]
                self._p1_draw[ft, it] = draw
        for pt in _PHI_TAG.values():
            fn = getattr(lib, f"phi_update_{pt}")
            fn.restype = _c_i64
            fn.argtypes = [_c_i64, _c_i64, _c_i64, *[_c_ptr] * 7]
            self._phi_update[pt] = fn

    @staticmethod
    def supports_p1(real: np.dtype, indptr: np.ndarray, indices: np.ndarray,
                    data: np.ndarray) -> bool:
        """Whether the p1 loops exist for this compute/theta dtype mix."""
        return (
            real in _FLOAT_TAG and indptr.dtype == _I64
            and indices.dtype in _INDEX_TAG and data.dtype == _I32
        )

    def p1_mass(self, docs, indptr, indices, data, p_sub, wcol, z_old,
                p_z_excl, s, base, lens) -> int:
        """Fill ``s``/``base``/``lens``; -1 or the first token missing its topic."""
        fn = self._p1_mass[_FLOAT_TAG[p_sub.dtype], _INDEX_TAG[indices.dtype]]
        return fn(
            docs.shape[0], _ptr(docs), _ptr(indptr), _ptr(indices), _ptr(data),
            _ptr(p_sub), p_sub.shape[1], _ptr(wcol), _ptr(z_old),
            _ptr(p_z_excl), _ptr(s), _ptr(base), _ptr(lens),
        )

    def p1_draw(self, docs, indptr, indices, data, p_sub, wcol, z_old,
                p_z_excl, base, t1, take, out) -> None:
        """Write the p1 draw of every ``take`` token into ``out``."""
        fn = self._p1_draw[_FLOAT_TAG[p_sub.dtype], _INDEX_TAG[indices.dtype]]
        fn(
            docs.shape[0], _ptr(docs), _ptr(indptr), _ptr(indices), _ptr(data),
            _ptr(p_sub), p_sub.shape[1], _ptr(wcol), _ptr(z_old),
            _ptr(p_z_excl), _ptr(base), _ptr(t1), _ptr(take), _ptr(out),
        )

    @staticmethod
    def supports_phi(phi, totals, accum_phi, accum_totals) -> bool:
        """Whether the update-phi loop exists for these arrays."""
        return (
            phi.dtype in _PHI_TAG and phi.flags.c_contiguous
            and totals.dtype == _I64 and totals.flags.c_contiguous
            and totals.shape == phi.shape[:1]
            and (accum_phi is None or (
                accum_phi.dtype == _I64 and accum_phi.flags.c_contiguous
                and accum_phi.shape == phi.shape))
            and (accum_totals is None or (
                accum_totals.dtype == _I64 and accum_totals.flags.c_contiguous
                and accum_totals.shape == totals.shape))
        )

    def phi_update(self, words, z_old, z_new, phi, totals, accum_phi,
                   accum_totals) -> int:
        """Apply the changed tokens' updates; changed count or ``-1 - i``."""
        fn = self._phi_update[_PHI_TAG[phi.dtype]]
        return fn(
            words.shape[0], phi.shape[0], phi.shape[1], _ptr(words),
            _ptr(z_old), _ptr(z_new), _ptr(phi), _ptr(totals),
            _ptr(accum_phi), _ptr(accum_totals),
        )


# -- build and cache ------------------------------------------------------


def _cache_dirs() -> list[Path]:
    return [SOURCE.parent / "__pycache__", Path.home() / ".cache" / "repro"]


def _build_hash() -> str:
    version = subprocess.run(
        [COMPILER, "--version"], capture_output=True, check=True, timeout=30,
    ).stdout
    h = hashlib.sha256()
    for part in (SOURCE.read_bytes(), " ".join(CFLAGS).encode(), version):
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()[:16]


def _elf_complete(path: Path) -> bool:
    """True when the file holds a whole ELF image (section table inside it).

    Linkers write the section header table last, so a truncated shared
    object loses it; loading such a file could fault on first call.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(64)
            size = os.fstat(fh.fileno()).st_size
    except OSError:
        return False
    if len(head) < 64 or head[:4] != b"\x7fELF" or head[4] != 2:
        return False
    order = "<" if head[5] == 1 else ">"
    (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    return shnum > 0 and shoff + shentsize * shnum <= size


def _compile(target: Path) -> None:
    """Build into a private temp file, then atomically publish ``target``."""
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [COMPILER, *CFLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{COMPILER} exited {proc.returncode}: {proc.stderr.strip()[:400]}"
            )
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load() -> NativeKernels:
    name = f"repro_kernels-{_build_hash()}.so"
    last_error: Exception | None = None
    for directory in _cache_dirs():
        target = directory / name
        try:
            if not _elf_complete(target):
                directory.mkdir(parents=True, exist_ok=True)
                _compile(target)
            return NativeKernels(ctypes.CDLL(str(target)), target)
        except (OSError, RuntimeError, AttributeError) as exc:
            last_error = exc
    raise RuntimeError(f"no usable cache directory: {last_error}")


# The loaded object is process-wide (dlopen), so its handle is too.
_UNSET = object()
_kernels: NativeKernels | None | object = _UNSET
_reason: str | None = None


def kernels() -> NativeKernels | None:
    """The process's native kernels, built on first call; ``None`` on failure.

    The outcome (handle or failure reason) is cached for the process, so
    a missing compiler costs one failed attempt, not one per call.
    """
    global _kernels, _reason
    if _kernels is _UNSET:
        try:
            _kernels = _build_and_load()
            _reason = None
        except (OSError, RuntimeError, AttributeError,
                subprocess.SubprocessError) as exc:
            _kernels = None
            _reason = f"{type(exc).__name__}: {exc}"
            _log.warning("native kernels unavailable, using NumPy: %s", _reason)
    return _kernels  # type: ignore[return-value]


def status() -> dict:
    """``{"kernel": "native" | "numpy", "reason": str | None}`` for this process."""
    k = kernels()
    return {"kernel": "numpy" if k is None else "native", "reason": _reason}


def reset() -> None:
    """Forget the cached outcome so the next :func:`kernels` call rebuilds
    or reloads (tests use it to exercise the fallback)."""
    global _kernels, _reason
    _kernels = _UNSET
    _reason = None
