"""The native p1 walk and update-phi loop against their NumPy references.

``repro/perf/_kernels.c`` replaces the sum-Kd-sized NumPy passes of the
sampler's theta-row walk and the ``.at`` scatters of update-phi.  The
chain is only allowed to get faster, never to move, so these tests pin:

- bit-identity of the two p1-walk implementations called directly
  (uint16 and int32 theta indices, float64 and float32, rows with
  Kd=1, own counts of 1, p1 targets past the row end);
- integer identity of the two update-phi implementations;
- that the native kernel is what runs when ``gcc`` is on PATH (a silent
  fallback would hide a lost speed-up while every golden still passed);
- the fallback (missing or failing compiler: same draws, no error) and
  the build cache (a truncated cached object is rebuilt, processes
  racing the first build all load the kernel).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import TrainerConfig
from repro.core.model import LdaState
from repro.core.rng import RngPool
from repro.core.sampler import p1_walk_native, p1_walk_numpy, sample_chunk
from repro.core.sparse import CsrCounts
from repro.core.updates import _apply_phi_update_numpy, apply_phi_update
from repro.perf import Workspace, native

SRC = Path(__file__).resolve().parents[1] / "src"
HAVE_GCC = shutil.which(native.COMPILER) is not None


@pytest.fixture(scope="module")
def lib():
    k = native.kernels()
    if k is None:
        pytest.skip(f"native kernels unavailable: {native.status()['reason']}")
    return k


@pytest.fixture
def isolated_build(monkeypatch, tmp_path):
    """Route builds to a private cache directory; restore the process's
    kernel state afterwards."""
    monkeypatch.setattr(native, "_cache_dirs", lambda: [tmp_path])
    native.reset()
    yield tmp_path
    native.reset()


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64 if a.dtype.itemsize == 8 else np.uint32)


def _walk_case(seed, num_docs, num_topics, wp, n, index_dtype, real):
    """A random chunk-shaped p1 problem whose theta is consistent with z_old."""
    rng = np.random.default_rng(seed)
    indptr = [0]
    cols, counts = [], []
    for _ in range(num_docs):
        # a third of the rows have Kd=1
        kd = 1 if rng.random() < 0.33 else int(rng.integers(1, num_topics + 1))
        row = np.sort(rng.choice(num_topics, size=kd, replace=False))
        cols.append(row)
        # many counts of 1: the token's excluded weight is then exactly 0
        counts.append(np.where(rng.random(kd) < 0.5, 1, rng.integers(1, 9, kd)))
        indptr.append(indptr[-1] + kd)
    theta = CsrCounts(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.concatenate(cols).astype(index_dtype),
        data=np.concatenate(counts).astype(np.int32),
        num_cols=num_topics,
    )
    docs = rng.integers(0, num_docs, n).astype(np.int64)
    z_old = np.array(
        [cols[d][rng.integers(len(cols[d]))] for d in docs], dtype=np.int64
    )
    wcol = np.sort(rng.integers(0, wp, n)).astype(np.int64)
    p_sub = rng.random((num_topics, wp)).astype(real)
    p_z_excl = rng.random(n).astype(real)
    return docs, theta, p_sub, wcol, z_old, p_z_excl


class TestP1WalkBitIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_docs=st.integers(1, 12),
        num_topics=st.integers(1, 40),
        wp=st.integers(1, 6),
        n=st.integers(1, 60),
        index_dtype=st.sampled_from([np.uint16, np.int32]),
        real=st.sampled_from([np.float64, np.float32]),
    )
    def test_mass_and_draw_match_numpy(
        self, lib, seed, num_docs, num_topics, wp, n, index_dtype, real
    ):
        args = _walk_case(seed, num_docs, num_topics, wp, n, index_dtype, real)
        ref = p1_walk_numpy(Workspace(real), *args)
        nat = p1_walk_native(lib, Workspace(real), *args)
        assert np.array_equal(_bits(nat.s), _bits(ref.s))
        assert np.array_equal(_bits(nat.base), _bits(ref.base))
        assert np.array_equal(nat.lens, ref.lens)

        rng = np.random.default_rng(seed ^ 0x5EED)
        u = rng.random(n).astype(real)
        # a quarter of the targets sit on or past the row end: the clip
        end = ref.base + ref.s
        past = rng.random(n) < 0.25
        t1 = np.where(past, np.nextafter(end, np.inf), ref.base + u * ref.s)
        on_end = rng.random(n) < 0.1  # exactly on the row end: also clips
        t1[on_end] = end[on_end]
        t1 = t1.astype(real)
        take = rng.random(n) < 0.7
        outs = []
        for walk in (ref, nat):
            out = np.full(n, -1, dtype=np.int64)
            walk.draw(t1, take, out)
            outs.append(out)
        assert np.array_equal(outs[0], outs[1])
        assert np.all(outs[1][~take] == -1)

    def test_target_past_row_end_clips_to_last_entry(self, lib):
        theta = CsrCounts(
            indptr=np.array([0, 3], dtype=np.int64),
            indices=np.array([2, 5, 7], dtype=np.uint16),
            data=np.array([1, 2, 3], dtype=np.int32),
            num_cols=8,
        )
        args = (
            np.zeros(1, np.int64), theta, np.ones((8, 1)),
            np.zeros(1, np.int64), np.array([5], np.int64), np.ones(1),
        )
        for walk in (p1_walk_numpy(Workspace(), *args),
                     p1_walk_native(lib, Workspace(), *args)):
            out = np.full(1, -1, dtype=np.int64)
            walk.draw(np.array([1e9]), np.ones(1, bool), out)
            assert out[0] == 7

    def test_missing_topic_raises(self, lib):
        docs, theta, p_sub, wcol, z_old, p_z_excl = _walk_case(
            3, 4, 16, 3, 20, np.uint16, np.float64
        )
        lens = np.diff(theta.indptr)[docs]
        i = int(np.flatnonzero(lens < 16)[0])  # a token whose row is not full
        d = int(docs[i])
        row = set(theta.indices[theta.indptr[d]:theta.indptr[d + 1]].tolist())
        z_old[i] = next(k for k in range(16) if k not in row)
        args = (docs, theta, p_sub, wcol, z_old, p_z_excl)
        with pytest.raises(AssertionError, match="missing from its theta row"):
            p1_walk_numpy(Workspace(), *args)
        with pytest.raises(AssertionError, match="missing from its theta row"):
            p1_walk_native(lib, Workspace(), *args)


    def test_out_of_range_input_is_refused_before_c(self, lib):
        docs, theta, p_sub, wcol, z_old, p_z_excl = _walk_case(
            5, 4, 16, 3, 20, np.int32, np.float64
        )
        bad_theta = CsrCounts(theta.indptr, theta.indices.copy(), theta.data, 16)
        bad_theta.indices[-1] = 16
        with pytest.raises(IndexError):
            p1_walk_native(lib, Workspace(), docs, bad_theta, p_sub, wcol,
                           z_old, p_z_excl)
        with pytest.raises(IndexError):
            p1_walk_native(lib, Workspace(), docs + 4, theta, p_sub, wcol,
                           z_old, p_z_excl)
        with pytest.raises(ValueError):
            p1_walk_native(lib, Workspace(), docs.astype(np.int32), theta,
                           p_sub, wcol, z_old, p_z_excl)


class TestPhiUpdateIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        phi_dtype=st.sampled_from([np.int32, np.int64]),
        with_accum=st.booleans(),
    )
    def test_matches_numpy(self, lib, seed, phi_dtype, with_accum):
        rng = np.random.default_rng(seed)
        k, v, n = int(rng.integers(1, 9)), int(rng.integers(1, 30)), 200
        words = rng.integers(0, v, n).astype(np.int64)
        zo = rng.integers(0, k, n).astype(np.int64)
        zn = np.where(rng.random(n) < 0.5, zo, rng.integers(0, k, n))
        phi = rng.integers(50, 100, (k, v)).astype(phi_dtype)
        totals = phi.sum(axis=1, dtype=np.int64)
        acc = (np.zeros((k, v), np.int64), np.zeros(k, np.int64))
        got = [phi.copy(), totals.copy(), acc[0].copy(), acc[1].copy()]
        want = [phi.copy(), totals.copy(), acc[0].copy(), acc[1].copy()]
        if not with_accum:
            got[2:] = want[2:] = [None, None]
        assert lib.supports_phi(*got)
        c1 = apply_phi_update(got[0], got[1], words, zo, zn, *got[2:])
        c2 = _apply_phi_update_numpy(want[0], want[1], words, zo, zn, *want[2:])
        assert c1 == c2 == int(np.count_nonzero(zo != zn))
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)

    def test_out_of_range_topic_raises(self, lib):
        phi = np.zeros((2, 3), np.int32)
        totals = np.zeros(2, np.int64)
        with pytest.raises(IndexError, match="out of range"):
            apply_phi_update(phi, totals, np.array([0]), np.array([0]),
                             np.array([2]))


def _chunk_pass(corpus, compute_dtype=np.float64):
    config = TrainerConfig(num_topics=12, seed=4)
    state = LdaState.initialize(corpus, config)
    cs = state.chunks[0]
    ws = Workspace(compute_dtype)
    result = sample_chunk(
        cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
        alpha=config.effective_alpha, beta=config.effective_beta,
        rng=RngPool(config.seed).chunk_stream(0, 0), workspace=ws,
    )
    return result.new_topics, ws


def _numpy_pass(corpus, monkeypatch, compute_dtype=np.float64):
    """A chunk pass forced onto the NumPy p1 walk."""
    with monkeypatch.context() as m:
        m.setattr(native, "kernels", lambda: None)
        return _chunk_pass(corpus, compute_dtype)


class TestKernelSelection:
    @pytest.mark.skipif(not HAVE_GCC, reason="gcc not on PATH: fallback expected")
    def test_native_runs_when_gcc_is_on_path(self, small_corpus):
        """Fails on a silent fallback, which no golden would notice."""
        _, ws = _chunk_pass(small_corpus)
        assert native.status() == {"kernel": "native", "reason": None}
        assert ws.describe()["sampler_kernel"] == "native"

    @pytest.mark.skipif(HAVE_GCC, reason="gcc on PATH: native expected")
    def test_numpy_runs_without_gcc(self, small_corpus):
        _, ws = _chunk_pass(small_corpus)
        assert native.status()["kernel"] == "numpy"
        assert ws.describe()["sampler_kernel"] == "numpy"
        assert ws.describe()["sampler_kernel_reason"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_native_and_reference_draw_the_same(
        self, small_corpus, dtype, monkeypatch
    ):
        z_ref, ws_ref = _numpy_pass(small_corpus, monkeypatch, dtype)
        z, _ = _chunk_pass(small_corpus, compute_dtype=dtype)
        assert ws_ref.sampler_kernel == "numpy"
        assert np.array_equal(z, z_ref)


class TestFallback:
    def test_missing_compiler(self, small_corpus, isolated_build, monkeypatch):
        z_ref, _ = _numpy_pass(small_corpus, monkeypatch)
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-compiler")
        z, ws = _chunk_pass(small_corpus)
        assert np.array_equal(z, z_ref)
        assert ws.sampler_kernel == "numpy"
        assert "FileNotFoundError" in ws.sampler_kernel_reason
        assert native.status()["kernel"] == "numpy"

    def test_failing_compiler(self, small_corpus, isolated_build, monkeypatch):
        fake = isolated_build / "fake-gcc"
        fake.write_text(textwrap.dedent("""\
            #!/bin/sh
            [ "$1" = "--version" ] && { echo "fake 1.0"; exit 0; }
            echo "internal compiler error" >&2
            exit 1
        """))
        fake.chmod(0o755)
        monkeypatch.setattr(native, "COMPILER", str(fake))
        z_ref, _ = _numpy_pass(small_corpus, monkeypatch)
        z, ws = _chunk_pass(small_corpus)
        assert np.array_equal(z, z_ref)
        assert "internal compiler error" in ws.sampler_kernel_reason
        assert not list(isolated_build.glob("*.so"))
        assert not list(isolated_build.glob("*.tmp"))


@pytest.mark.skipif(not HAVE_GCC, reason="needs gcc")
class TestBuildCache:
    def test_truncated_object_is_rebuilt(self, isolated_build):
        target = isolated_build / f"repro_kernels-{native._build_hash()}.so"
        native._compile(target)
        full = target.stat().st_size
        with open(target, "r+b") as fh:
            fh.truncate(full // 2)
        assert not native._elf_complete(target)
        k = native.kernels()
        assert k is not None and k.path == target
        assert native._elf_complete(target)
        assert target.stat().st_size == full

    def test_racing_first_builds_all_load(self, tmp_path):
        go = tmp_path / "go"
        script = textwrap.dedent(f"""\
            import sys, time
            from pathlib import Path
            sys.path.insert(0, {str(SRC)!r})
            from repro.perf import native
            native._cache_dirs = lambda: [Path({str(tmp_path)!r})]
            while not Path({str(go)!r}).exists():
                time.sleep(0.005)
            print(native.status()["kernel"])
        """)
        procs = [
            subprocess.Popen([sys.executable, "-c", script],
                             stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        go.touch()
        outs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert outs == ["native", "native"]
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert not list(tmp_path.glob("*.tmp"))
