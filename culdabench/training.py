"""The two culda training workloads.

Protocol of one run:

1. Inputs: a synthetic corpus drawn from the run's seed, written as a
   UCI docword file — the only thing the program receives.
2. Set-up, repeated ``setup_reps`` times: parse the docword file (or
   ingest it into a ``CorpusStore`` and open that), build the trainer,
   run the warm-up iteration.  ``setup_s`` is the median.  The first
   half of the repetitions run before the timed window and the last of
   them is kept for it; the rest run after it, so the median samples the
   host at both ends of the run.  Only one trainer is alive at a time.
   Every repetition must reach bit-identical state.
3. The timed window: a fixed number of iterations, each timed alone.
   The speed figures skip the first ``burn_in_iterations`` of them;
   time-to-target uses them all.  With tracing on, even iterations are
   traced and odd ones are not, so the two medians give the tracing
   overhead.
4. Output checks on the final state, then the trainer is closed.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import serving
from host import TreeMemory
from measure import Run, median, tail
from spans import Tracer


def _platform(name: str):
    from repro.gpusim import platform

    return {p.name: p for p in platform.ALL_PLATFORMS}[name]


def make_inputs(cfg: dict, seed: int, workdir: Path) -> tuple[Path, list[np.ndarray]]:
    """The docword file the trainer reads, and the held-out documents.

    One draw of ``num_docs + heldout_docs`` documents from the generative
    process: the first ``num_docs`` are written as the training corpus;
    the rest, long enough to keep unseen tokens after a request's
    prefix, are the request pool of the serving probe.
    """
    from repro.corpus.io import write_uci_bow
    from repro.corpus.synthetic import SyntheticSpec, generate_synthetic_corpus

    spec = dict(cfg["corpus"])
    n_train = spec["num_docs"]
    spec["num_docs"] += cfg.get("heldout_docs", 0)
    corpus = generate_synthetic_corpus(SyntheticSpec(name="bench", **spec), seed=seed)
    path = workdir / "docword.txt"
    write_uci_bow(corpus.subset(0, n_train), path)
    pool = []
    if "serve" in cfg:
        mix = cfg["serve"]["mix"]
        offsets = corpus.doc_offsets
        for d in range(n_train, corpus.num_docs):
            doc = corpus.word_ids[offsets[d]:offsets[d + 1]].astype(np.int64)
            if doc.size >= mix["long_len"] + mix["short_len"]:
                pool.append(doc)
    return path, pool


def _layer_patches(tracer: Tracer) -> None:
    """Wrap every layer boundary the trainer's iteration crosses."""
    from repro.core import model, scheduler, trainer
    from repro.parallel.engine import ProcessEngine

    def merge_bytes(record, args, kwargs, result):
        record["attrs"]["bytes"] = sum(
            a.nbytes for a in _arrays(args) + _arrays(list(kwargs.values()))
        )

    tracer.wrap(trainer, "run_iteration", "core.scheduler")
    tracer.wrap(trainer, "replay_parallel_accounting", "core.scheduler")
    tracer.wrap(scheduler, "sample_chunk", "core.sampler")
    tracer.wrap(scheduler, "apply_phi_update", "core.updates.phi_update")
    tracer.wrap(scheduler, "charge_chunk_costs", "gpusim.account")
    tracer.wrap(model.ChunkState, "rebuild_theta", "core.model.theta_rebuild")
    tracer.wrap(trainer, "synchronize", "core.sync.merge", merge_bytes)
    tracer.wrap(trainer, "synchronize_prereduced", "core.sync.merge", merge_bytes)
    tracer.wrap(trainer, "simulate_phi_sync", "gpusim.account")
    tracer.wrap(trainer, "barrier", "gpusim.account")
    tracer.wrap(trainer, "log_likelihood_per_token", "core.likelihood")
    tracer.wrap(trainer, "log_likelihood_from_terms", "core.likelihood")
    tracer.wrap(ProcessEngine, "dispatch_iteration", "parallel.engine.dispatch")
    tracer.wrap(ProcessEngine, "collect_iteration", "parallel.engine.wait")
    tracer.wrap(ProcessEngine, "start", "parallel.engine.start")


def _setup_patches(tracer: Tracer) -> None:
    """Wrap the layers set-up crosses: store reads and state initialisation."""
    from repro.core import model
    from repro.corpus import store

    def shard_bytes(record, args, kwargs, result):
        record["attrs"]["bytes"] = sum(a.nbytes for a in _arrays(list(result)))

    tracer.wrap(store, "_read_shard", "corpus.store.shard_read", shard_bytes)
    tracer.wrap(store.CorpusStore, "subset", "corpus.store.subset")
    tracer.wrap(model.LdaState, "initialize", "core.model.initialize")


def _arrays(values) -> list[np.ndarray]:
    out = []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            out.extend(_arrays(v))
    return out


def _state_digest(trainer) -> str:
    h = hashlib.sha256(np.ascontiguousarray(trainer.state.phi).tobytes())
    for cs in trainer.state.chunks:
        h.update(np.ascontiguousarray(cs.topics).tobytes())
    return h.hexdigest()


def _set_up(cfg: dict, seed: int, docword: Path, workdir: Path, rep: int, tracer):
    """Input to warm trainer: parse or ingest+open, build, warm-up iteration."""
    from repro.core.config import TrainerConfig
    from repro.core.trainer import CuLdaTrainer
    from repro.corpus.io import read_uci_bow
    from repro.corpus.store import CorpusStore, ingest_uci_bow

    def span(name: str, **attrs):
        return tracer.span(name, **attrs) if tracer is not None else nullcontext()

    if cfg["source"] == "docword":
        with span("corpus.io.parse"):
            corpus = read_uci_bow(docword)
    else:
        store_dir = workdir / f"store-{rep}"
        with span("corpus.store.ingest"):
            ingest_uci_bow(docword, store_dir, docs_per_shard=cfg["docs_per_shard"])
        with span("corpus.store.open"):
            corpus = CorpusStore.open(store_dir)
    config = TrainerConfig(seed=seed, **cfg["trainer"])
    with span("core.trainer.build"):
        trainer = CuLdaTrainer(corpus, config, platform=_platform(cfg["platform"]))
    try:
        t0 = time.perf_counter()
        with span("core.trainer.iteration", phase="warmup"):
            trainer.train(1)
        warm_s = time.perf_counter() - t0
    except BaseException:
        trainer.close()
        raise
    return trainer, warm_s


def _set_up_rep(cfg: dict, seed: int, docword: Path, workdir: Path, rep: int, tracer):
    """One timed set-up repetition: (trainer, set-up s, warm-up s, first span)."""
    first_span = None
    if tracer is not None:
        first_span = len(tracer.spans)
        _setup_patches(tracer)
        _layer_patches(tracer)
    try:
        t0 = time.perf_counter()
        with (tracer.span("setup", rep=rep) if tracer is not None else nullcontext()):
            trainer, warm = _set_up(cfg, seed, docword, workdir, rep, tracer)
        return trainer, time.perf_counter() - t0, warm, first_span
    finally:
        if tracer is not None:
            tracer.unwrap_all()


def timed_iterations(cfg: dict, seconds: int) -> int:
    """Fixed iteration count for a run of ``seconds`` (never measured)."""
    return max(cfg["min_iterations"], round(seconds / cfg["nominal_iter_s"]))


def run(cfg: dict, seed: int, seconds: int, trace: bool, workdir: Path,
        root: Path) -> tuple[Run, Tracer | None]:
    from repro.core.likelihood import log_likelihood_per_token
    from repro.core.updates import verify_phi_consistency

    result = Run()
    tracer = Tracer() if trace else None
    docword, pool = make_inputs(cfg, seed, workdir)
    model_path = None

    setup_s, warm_s, warm_ll, digests, setup_roots = [], [], [], [], []

    def set_up(rep: int):
        trainer, dt, warm, first_span = _set_up_rep(cfg, seed, docword, workdir, rep, tracer)
        setup_s.append(dt)
        warm_s.append(warm)
        setup_roots.append(first_span)
        warm_ll.append(trainer.history[-1].log_likelihood_per_token)
        digests.append(_state_digest(trainer))
        return trainer

    # A trainer is closed and its last reference dropped before the next
    # one is built, so two workspaces never share the process and
    # peak_rss_mb covers exactly one trainer.
    reps_before = (cfg["setup_reps"] + 1) // 2
    trainer = None
    try:
        for rep in range(reps_before):
            if trainer is not None:
                trainer.close()
                trainer = None
                gc.collect()
            trainer = set_up(rep)
        kept_warm_s = warm_s[-1]

        with TreeMemory() as memory:
            n_iter = timed_iterations(cfg, seconds)
            iter_s: list[float] = []
            traced_roots: list[int] = []
            untraced_s: list[float] = []
            for i in range(n_iter):
                traced = tracer is not None and i % 2 == 0
                steady = i >= cfg["burn_in_iterations"]
                if traced:
                    _layer_patches(tracer)
                    first_span = len(tracer.spans)
                    t0 = time.perf_counter()
                    with tracer.span("core.trainer.iteration", phase="timed"):
                        trainer.train(1)
                    dt = time.perf_counter() - t0
                    tracer.unwrap_all()
                    if steady:
                        traced_roots.append(first_span)
                else:
                    t0 = time.perf_counter()
                    trainer.train(1)
                    dt = time.perf_counter() - t0
                    if tracer is not None and steady:
                        untraced_s.append(dt)
                iter_s.append(dt)
            history = trainer.history
            recoveries = len(trainer.recovery_events)
            result.operations(attempted=n_iter + 1, failed=recoveries)

            # -- output checks, on every replica, before the engine closes --
            total_tokens = trainer.state.num_tokens
            try:
                trainer.state.validate()
                for d in trainer.devices:
                    verify_phi_consistency(d.phi, d.totals, total_tokens)
                ok, detail = True, f"{len(trainer.devices)} replicas consistent"
            except AssertionError as exc:
                ok, detail = False, str(exc)
            result.check("state.validate + verify_phi_consistency", ok, detail)
            lls = [r.log_likelihood_per_token for r in history]
            result.check(
                "LL trajectory finite",
                all(v is not None and math.isfinite(v) for v in lls),
                f"{len(lls)} iterations",
            )
            oracle = log_likelihood_per_token(trainer.state)
            result.check(
                "final LL equals the serial oracle on the final state",
                oracle == lls[-1],
                f"recorded {lls[-1]!r}, oracle {oracle!r}",
            )
            ws = trainer.workspace_stats()
            breakdown = trainer.kernel_breakdown()
            if tracer is not None and "serve" in cfg:
                from repro.model.artifact import TopicModel

                model_path = workdir / "model.npz"
                TopicModel.from_state(trainer.state).save(model_path)
        trainer.close()
        trainer = None
        gc.collect()

        for rep in range(reps_before, cfg["setup_reps"]):
            trainer = set_up(rep)
            trainer.close()
            trainer = None
            gc.collect()
        result.check(
            "setup repetitions reach identical state",
            len(set(digests)) == 1 and len(set(warm_ll)) == 1,
            f"{len(set(digests))} distinct states over {len(digests)} repetitions",
        )
    finally:
        if trainer is not None:
            trainer.close()
            trainer = None
        if tracer is not None:
            tracer.unwrap_all()

    timed = history[1:]
    # Iteration time falls while theta sparsifies; the speed figures
    # come from the iterations after the burn-in, where it has levelled.
    steady = iter_s[cfg["burn_in_iterations"]:]
    p50 = median(steady)
    tail_s, tail_pct = tail(steady)
    result.metric("setup_s", median(setup_s), "s", len(setup_s),
                  "parse/ingest+open, build, warm-up iteration")
    result.metric("tokens_per_s", total_tokens / p50, "tok/s", len(steady),
                  "tokens per iteration / median iteration wall")
    result.metric("nll_per_token", -lls[-1], "nat/tok", 1,
                  f"-LL/token after {len(lls)} iterations")
    result.metric("peak_rss_mb", memory.peak_mib, "MiB", 1,
                  "this process and the engine workers")

    target = cfg["target_ll_per_token"]
    walls = [kept_warm_s] + iter_s
    ttt = _time_to_target(lls, walls, target)
    result.check(f"LL/token reaches the target {target}", ttt is not None,
                 f"best {max(lls)!r} after {len(lls)} iterations")
    if ttt is None:
        ttt = sum(walls)  # a miss reads as the whole window, never as fast
    sim_tok = total_tokens * len(timed) / sum(r.sim_seconds for r in timed)
    result.diagnostics["sim_tokens_per_s"] = sim_tok
    result.diagnostics["iter_s_p50"] = p50
    result.diagnostics[f"iter_s_tail (p{tail_pct:.0f}, n={len(steady)})"] = tail_s
    result.diagnostics["time_to_target_s"] = ttt

    if tracer is not None:
        result.layer("core.trainer.iter_s_p50", p50, "s")
        result.layer("core.trainer.iter_s_tail", tail_s, "s")
        _layers(result, tracer, setup_roots, traced_roots, untraced_s, warm_s,
                timed, total_tokens, ws, breakdown, recoveries, sim_tok, ttt)
    if model_path is not None:
        serving.probe(cfg["serve"], seed, model_path, pool, workdir, root, result, tracer)
    return result, tracer


def _time_to_target(lls, walls, target) -> float | None:
    """Summed iteration wall until LL/token first reaches ``target``.

    Linear interpolation inside the crossing iteration, so the figure
    moves smoothly with per-iteration speed instead of in whole steps.
    """
    elapsed = 0.0
    prev = None
    for ll, wall in zip(lls, walls):
        if ll >= target:
            if prev is None or ll == prev:
                return elapsed + wall
            return elapsed + wall * (target - prev) / (ll - prev)
        elapsed += wall
        prev = ll
    return None


def _layers(result, tracer, setup_roots, traced_roots, untraced_s, warm_s,
            timed, total_tokens, ws, breakdown, recoveries, sim_tok, ttt) -> None:
    L = result.layer

    # -- set-up layers: median over repetitions -------------------------
    per_rep = [tracer.summary(r) for r in setup_roots]

    def setup_median(name: str, key: str = "s") -> float:
        return median([rep.get(name, {}).get(key, 0) for rep in per_rep])

    L("corpus.io.parse_s", setup_median("corpus.io.parse"), "s")
    L("corpus.store.ingest_s", setup_median("corpus.store.ingest"), "s")
    L("corpus.store.open_s", setup_median("corpus.store.open"), "s")
    L("corpus.store.shard_reads", setup_median("corpus.store.shard_read", "n"), "count")
    L("corpus.store.read_mb", setup_median("corpus.store.shard_read", "bytes") / 2**20, "MiB")
    L("core.trainer.build_s", setup_median("core.trainer.build"), "s")
    L("parallel.engine.start_s", setup_median("parallel.engine.start"), "s")

    # -- iteration layers: median self time over traced iterations -------
    per_iter = [tracer.summary(r) for r in traced_roots]
    durations = [tracer.spans[r]["end"] - tracer.spans[r]["start"] for r in traced_roots]

    def self_median(name: str) -> float:
        return median([it.get(name, {}).get("self", 0.0) for it in per_iter])

    layer_names = {
        "core.trainer.self_s": "core.trainer.iteration",
        "core.scheduler.self_s": "core.scheduler",
        "core.sampler.self_s": "core.sampler",
        "core.updates.phi_update_s": "core.updates.phi_update",
        "core.model.theta_rebuild_s": "core.model.theta_rebuild",
        "core.sync.merge_s": "core.sync.merge",
        "core.likelihood.s": "core.likelihood",
        "parallel.engine.dispatch_s": "parallel.engine.dispatch",
        "parallel.engine.wait_s": "parallel.engine.wait",
        "gpusim.account_s": "gpusim.account",
    }
    for metric, span_name in layer_names.items():
        L(metric, self_median(span_name), "s")
    traced_p50 = median(durations)
    L("trace.self_sum_share", sum(self_median(n) for n in layer_names.values()) / traced_p50, "ratio")
    L("trace.overhead_s", traced_p50 - median(untraced_s), "s")

    L("core.sync.bytes", median([it.get("core.sync.merge", {}).get("bytes", 0) for it in per_iter]), "B")
    L("parallel.engine.recoveries", recoveries, "count")

    # -- deterministic work counts from IterationRecord -------------------
    L("core.sampler.mean_kd", float(np.mean([r.mean_kd for r in timed])), "topics")
    L("core.sampler.p1_fraction", float(np.mean([r.p1_fraction for r in timed])), "ratio")
    L("core.updates.changed_fraction", float(np.mean([r.changed_fraction for r in timed])), "ratio")
    L("core.trainer.time_to_target_s", ttt, "s")

    # -- workspace ---------------------------------------------------------
    steady = median(durations + untraced_s)
    L("perf.workspace.warmup_s", median(warm_s) - steady, "s")
    hits = sum(w["hits"] for w in ws)
    misses = sum(w["misses"] for w in ws)
    L("perf.workspace.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    L("perf.workspace.nbytes", sum(w["nbytes"] for w in ws), "B")

    # -- simulated clocks ----------------------------------------------------
    L("gpusim.sim_tokens_per_s", sim_tok, "tok/s")
    L("gpusim.sim_s_per_iter", median([r.sim_seconds for r in timed]), "s")
    total_sim = sum(breakdown.values())
    for key in ("sampling", "update_phi", "update_theta", "transfer", "sync"):
        L(f"gpusim.share.{key}", breakdown.get(key, 0.0) / total_sim if total_sim else 0.0, "ratio")
