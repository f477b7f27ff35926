"""The NumPy reference kernel's int32 fast-path overflow guard.

The NumPy p1 walk of ``sample_chunk`` (``p1_walk_numpy``: the reference
implementation, and the fallback when the native kernel cannot be
built) materialises its nnz-sized gather/scatter helpers with int32
indices (index bandwidth is its bottleneck) and must fall back to int64
when the largest flattened index it forms — ``n * K`` for the p1 target
keys, ``K * Wp`` for the shared-tree gather — would overflow.  The
decision lives in ``index_dtype_for``; these tests pin its boundary
exactly and drive a real chunk pass through the int64 path with the
native kernel switched off.

The native kernel (``repro/perf/_kernels.c``) uses int64 offsets
everywhere, so it has no int32 threshold; the wide pass checks that it
draws the same topics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TrainerConfig
from repro.core.model import LdaState
from repro.core.rng import RngPool
from repro.core.sampler import index_dtype_for, sample_chunk
from repro.core.updates import apply_phi_update, verify_phi_consistency
from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus
from repro.perf import native

_I32 = np.dtype(np.int32)
_I64 = np.dtype(np.int64)


class TestBoundary:
    def test_small_products_take_int32(self):
        assert index_dtype_for(10_000, 1024, 500) == _I32

    def test_token_topic_product_at_boundary(self):
        n, k = 2**16, 2**15  # n * k == 2**31 exactly
        assert index_dtype_for(n - 1, k, 10) == _I32  # just below
        assert index_dtype_for(n, k, 10) == _I64  # at the boundary
        assert index_dtype_for(n + 1, k, 10) == _I64  # above

    def test_tree_gather_product_at_boundary(self):
        k, wp = 2**16, 2**15
        assert index_dtype_for(100, k, wp - 1) == _I32
        assert index_dtype_for(100, k, wp) == _I64

    def test_either_condition_suffices(self):
        # huge n*K, small K*Wp — and vice versa — both force int64
        assert index_dtype_for(2**26, 2**6, 4) == _I64
        assert index_dtype_for(64, 2**16, 2**15) == _I64


class TestWidePathIntegration:
    """A real chunk pass where n * K crosses 2**31 (the int64 path)."""

    @pytest.fixture(scope="class")
    def wide_run(self):
        spec = SyntheticSpec(
            name="wide", num_docs=700, num_words=40, mean_doc_len=48.0,
            doc_len_sigma=0.4, num_topics=4,
        )
        corpus = generate_synthetic_corpus(spec, seed=3)
        n = corpus.num_tokens
        k = 2**31 // n + 1  # smallest K pushing n*K past the int32 range
        assert n * k >= 2**31 and k <= np.iinfo(np.uint16).max + 1
        config = TrainerConfig(num_topics=k, seed=1)
        state = LdaState.initialize(corpus, config)
        return corpus, config, state

    def test_guard_engages(self, wide_run):
        corpus, config, state = wide_run
        cs = state.chunks[0]
        wp = np.count_nonzero(np.diff(cs.chunk.word_offsets))
        assert index_dtype_for(
            cs.chunk.num_tokens, config.num_topics, wp
        ) == _I64

    def test_wide_pass_is_consistent_and_deterministic(
        self, wide_run, monkeypatch
    ):
        corpus, config, state = wide_run
        cs = state.chunks[0]

        def draw():
            rng = RngPool(config.seed).chunk_stream(0, 0)
            return sample_chunk(
                cs.chunk, cs.topics, cs.theta, state.phi, state.topic_totals,
                alpha=config.effective_alpha, beta=config.effective_beta,
                rng=rng,
            )

        z_native = draw().new_topics
        with monkeypatch.context() as m:
            m.setattr(native, "kernels", lambda: None)  # the NumPy walk
            r1, r2 = draw(), draw()
        z = r1.new_topics.astype(np.int64)
        assert np.array_equal(z, r2.new_topics.astype(np.int64))
        assert np.array_equal(z, z_native)
        assert z.min() >= 0 and z.max() < config.num_topics
        assert r1.stats.num_p1_draws + r1.stats.num_p2_draws == cs.num_tokens
        # the index arithmetic must keep counts conserved end to end
        phi = state.phi.copy()
        totals = state.topic_totals.copy()
        apply_phi_update(phi, totals, cs.chunk.token_words, cs.topics,
                         r1.new_topics)
        verify_phi_consistency(phi, totals, corpus.num_tokens)
