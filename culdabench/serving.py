"""Serving-layer probe: ``repro serve`` in a subprocess over a trained model.

Run inside the traced run of a training workload, after training: the
trained state is exported as an artifact and served; nothing here is
gated.  Protocol:

1. Set-up, repeated ``setup_reps`` times: spawn ``repro serve`` and time
   it until its first successful reply.  The last server is kept.
2. A capacity burst: every request of the phase sent at once, so the
   coalescer always has a full queue; requests answered per second of
   the burst is the server's capacity.  The fixed offered rates were
   derived from it (workloads.json) and each run reports it again, so a
   rate that has drifted off its share of capacity shows.
3. Two open-loop phases at the fixed ``low`` and ``high`` offered rates
   (seeded Poisson arrivals, each request timed from its scheduled send,
   requests pipelined over two connections).
4. Output checks: every request answered exactly once and without error,
   and a seeded sample of replies bit-identical to an in-process
   ``InferenceSession.transform`` of the same request.  The unseen rest
   of every request document, scored under its served theta, gives the
   held-out NLL.

Requests mix one long and a few short documents, cut from held-out
documents the trainer never saw.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from pathlib import Path

import numpy as np

from host import TreeMemory
from measure import Run, median, percentile, tail
from spans import Tracer


def build_requests(cfg: dict, docs: list[np.ndarray], rng: np.random.Generator, n: int):
    """``n`` requests of the fixed mix, cut from held-out documents.

    Every request folds in the observed prefix of one long and of
    ``short_per_request`` short documents; the rest of each document is
    kept to score the served theta (document completion).  Returns
    ``[((observed docs, seed), scored docs)]``.
    """
    mix = cfg["mix"]
    lengths = [mix["long_len"]] + [mix["short_len"]] * mix["short_per_request"]
    out = []
    for _ in range(n):
        picks = rng.choice(len(docs), size=len(lengths), replace=False)
        observed = [docs[d][:n_obs] for d, n_obs in zip(picks, lengths)]
        scored = [docs[d][n_obs:] for d, n_obs in zip(picks, lengths)]
        out.append(((observed, int(rng.integers(0, 2**31 - 1))), scored))
    return out


class Connection:
    """One pipelined protocol connection: many requests in flight, by id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, asyncio.Future] = {}
        self.unknown_replies = 0
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> Connection:
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read(self) -> None:
        from repro.serving.protocol import read_frame

        loop = asyncio.get_running_loop()
        while True:
            reply = await read_frame(self.reader)
            if reply is None:
                break
            fut = self.pending.pop(reply.get("id"), None)
            if fut is None:
                self.unknown_replies += 1
            elif not fut.done():
                fut.set_result((reply, loop.time()))
        for fut in self.pending.values():
            if not fut.done():
                fut.set_exception(ConnectionError("server closed the connection"))

    async def send(self, message: dict) -> asyncio.Future:
        from repro.serving.protocol import write_frame

        fut = asyncio.get_running_loop().create_future()
        if message["id"] in self.pending:
            raise ValueError(f"request id {message['id']} already in flight")
        self.pending[message["id"]] = fut
        await write_frame(self.writer, message)
        return fut

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        try:
            await asyncio.wait_for(self._task, 5.0)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self._task.cancel()


def _infer_message(rid: int, docs, seed: int) -> dict:
    return {"op": "infer", "id": rid, "docs": [d.tolist() for d in docs], "seed": seed}


class Server:
    """One ``repro serve`` subprocess over the artifact."""

    def __init__(self, root: Path, model: Path, workdir: Path, cfg: dict):
        self.root = root
        self.model = model
        self.workdir = workdir
        self.cfg = cfg
        self.proc: asyncio.subprocess.Process | None = None
        self.address: tuple[str, int] | None = None
        self._drain: asyncio.Task | None = None

    async def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.workdir / "serve.stderr", "ab") as err:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve",
                "--model", str(self.model), "--port", "0",
                "--num-workers", str(self.cfg["serve_workers"]),
                "--sweeps", str(self.cfg["sweeps"]), "--burn-in", str(self.cfg["burn_in"]),
                cwd=str(self.root), env=env,
                stdout=asyncio.subprocess.PIPE, stderr=err,
            )
        try:
            line = await asyncio.wait_for(self.proc.stdout.readline(), timeout_s)
            text = line.decode().strip()
            if not text.startswith("serving "):
                raise RuntimeError(f"repro serve did not become ready: {text!r}")
        except BaseException:
            self.proc.kill()
            await self.proc.wait()
            raise
        host, port = text.rsplit(" on ", 1)[1].rsplit(":", 1)
        self.address = (host, int(port))
        self._drain = asyncio.get_running_loop().create_task(self.proc.stdout.read())

    async def stop(self, timeout_s: float = 30.0) -> bool:
        """Ask for a graceful shutdown; True when it exited cleanly."""
        if self.proc is None:
            return True
        clean = True
        try:
            conn = await Connection.open(*self.address)
            fut = await conn.send({"op": "shutdown", "id": 0})
            await asyncio.wait_for(fut, timeout_s)
            await conn.close()
            await asyncio.wait_for(self.proc.wait(), timeout_s)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            clean = False
            self.proc.kill()
            await self.proc.wait()
        if self._drain is not None:
            await self._drain
        clean = clean and self.proc.returncode == 0
        self.proc = None
        return clean


async def _open_loop(conns, requests, rate: float, rng, first_id: int):
    """Send ``requests`` at seeded Poisson times.

    Returns ((scheduled, received) or None per request, send lags, replies).
    """
    loop = asyncio.get_running_loop()
    gaps = rng.exponential(1.0 / rate, size=len(requests))
    t0 = loop.time() + 0.05
    due = t0 + np.cumsum(gaps) - gaps[0]
    futures, lags = [], []
    for i, ((docs, seed), at) in enumerate(zip(requests, due)):
        delay = at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - at))
        futures.append(await conns[i % len(conns)].send(_infer_message(first_id + i, docs, seed)))
    replies = await asyncio.gather(*futures, return_exceptions=True)
    times, out = [], []
    for at, r in zip(due, replies):
        reply, t_recv = (None, None) if isinstance(r, BaseException) else r
        # A failed request has no latency; it counts as failed instead.
        times.append((float(at), t_recv) if _ok(reply) else None)
        out.append(reply)
    return times, lags, out


async def _burst(conns, requests, first_id: int):
    """Send every request at once; returns (wall seconds, replies)."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    futures = [
        await conns[i % len(conns)].send(_infer_message(first_id + i, docs, seed))
        for i, (docs, seed) in enumerate(requests)
    ]
    replies = await asyncio.gather(*futures, return_exceptions=True)
    out, last = [], t0
    for r in replies:
        reply, t_recv = (None, None) if isinstance(r, BaseException) else r
        out.append(reply)
        if t_recv is not None:
            last = max(last, t_recv)
    return last - t0, out


def _ok(reply) -> bool:
    return reply is not None and reply.get("type") == "result"


async def _set_up(cfg, root, model_path, workdir, warm, result, tracer):
    """Spawn the server ``setup_reps`` times; keep the last. (server, times)"""
    setup_s = []
    server = None
    for rep in range(cfg["setup_reps"]):
        if server is not None and not await server.stop():
            result.check("server shut down cleanly", False, f"set-up repetition {rep}")
        server = Server(root, model_path, workdir, cfg)
        t0 = time.perf_counter()
        await server.start()
        conn = await Connection.open(*server.address)
        reply, _ = await (await conn.send(_infer_message(1, *warm)))
        setup_s.append(time.perf_counter() - t0)
        await conn.close()
        if not _ok(reply):
            await server.stop()
            raise RuntimeError(f"first request failed: {reply}")
        tracer.add("serving.setup", t0, t0 + setup_s[-1], rep=rep)
    return server, setup_s


async def _probe(cfg, seed, model_path, pool, workdir, root, result: Run, tracer: Tracer):
    rng = np.random.default_rng([seed, 1])
    open_loop = cfg["open_loop"]
    phases = {
        name: build_requests(cfg, pool, rng, round(p["rate_rps"] * p["seconds"]))
        for name, p in open_loop.items()
    }
    burst = build_requests(cfg, pool, rng, cfg["capacity_burst"]["requests"])
    (warm_docs, warm_seed), _ = build_requests(cfg, pool, rng, 1)[0]
    warm = ([warm_docs[-1]], warm_seed)  # one short document: set-up, not fold-in, dominates

    server, setup_s = await _set_up(cfg, root, model_path, workdir, warm, result, tracer)
    memory = TreeMemory([server.proc.pid])
    answered = []  # (((docs, seed), scored), reply) of every request sent
    latency, lags = {}, []
    try:
        with memory:
            conns = [await Connection.open(*server.address) for _ in range(2)]
            next_id = 10
            burst_wall, burst_replies = await _burst(conns, [req for req, _ in burst], next_id)
            answered.extend(zip(burst, burst_replies))
            next_id += len(burst)
            for name, items in phases.items():
                times, phase_lags, replies = await _open_loop(
                    conns, [req for req, _ in items], open_loop[name]["rate_rps"], rng, next_id
                )
                latency[name] = [t[1] - t[0] for t in times if t is not None]
                lags.extend(phase_lags)
                answered.extend(zip(items, replies))
                for rid, t in enumerate(times, start=next_id):
                    if t is not None:
                        tracer.add("serving.request", *t, request_id=rid, phase=name)
                next_id += len(items)
            stats = (await (await conns[0].send({"op": "stats", "id": 1})))[0]
            unknown = sum(c.unknown_replies for c in conns)
            for c in conns:
                await c.close()
    finally:
        stopped = await server.stop()
    result.check("server shut down cleanly", stopped, "exit code 0 after the shutdown op")
    # A segment the server leaked is unlinked by its own resource tracker
    # at exit, which warns on stderr; that warning is the leak.
    leak_lines = [line for line in (workdir / "serve.stderr").read_text().splitlines()
                  if "leaked shared_memory" in line]
    result.check("repro serve leaked no shared memory", not leak_lines, "; ".join(leak_lines))

    sent = len(answered)
    replied = sum(1 for _, r in answered if _ok(r))
    result.operations(attempted=sent, failed=sent - replied)
    result.check(
        "every request answered exactly once",
        unknown == 0 and replied == sent,
        f"{sent} sent, {replied} answered, {unknown} unmatched replies",
    )

    # -- bit-identity against in-process fold-in --------------------------
    from repro.model.artifact import TopicModel
    from repro.model.inference import InferenceSession

    load_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        model = TopicModel.load(model_path)
        load_s.append(time.perf_counter() - t0)
    session = InferenceSession(model, num_sweeps=cfg["sweeps"], burn_in=cfg["burn_in"])
    picks = np.random.default_rng([seed, 2]).choice(sent, size=cfg["identity_sample"], replace=False)
    mismatched = n_docs = 0
    t0 = time.perf_counter()
    for i in picks:
        ((docs, rseed), _), reply = answered[i]
        expect = session.transform(docs, seed=rseed)
        n_docs += len(docs)
        if not _ok(reply) or not np.array_equal(np.asarray(reply["theta"]), expect):
            mismatched += 1
    docs_per_s = n_docs / (time.perf_counter() - t0)
    result.check(
        "sampled replies bit-identical to InferenceSession.transform",
        mismatched == 0,
        f"{mismatched} of {len(picks)} differ",
    )

    # -- held-out NLL: each document's unseen rest under its served theta --
    log_p = n_tok = 0.0
    for (_, scored), reply in answered:
        if _ok(reply):
            for words, mixture in zip(scored, np.asarray(reply["theta"])):
                log_p += session.log_predictive(words, mixture) * words.size
                n_tok += words.size

    L = result.layer
    L("serving.setup_s", median(setup_s), "s")
    L("model.artifact.load_verify_s", median(load_s), "s")
    L("model.inference.docs_per_s", docs_per_s, "doc/s")
    sustained = [0.0]
    for name, lat in latency.items():
        p50, (t, _) = median(lat), tail(lat)
        L(f"serving.query_s_p50.{name}", p50, "s")
        L(f"serving.query_s_tail.{name}", t, "s")
        # No growing backlog: the last quarter's median latency stays
        # within 1.5x of the first quarter's.
        q = len(lat) // 4
        if t <= cfg["latency_limit_s"] and (
            median(lat[-q:]) <= 1.5 * median(lat[:q])
        ):
            sustained.append(open_loop[name]["rate_rps"])
    L("serving.max_rate_rps", max(sustained), "1/s")
    capacity = sum(1 for r in burst_replies if _ok(r)) / burst_wall
    L("serving.capacity_rps", capacity, "1/s")
    for name, p in open_loop.items():
        result.diagnostics[f"serving.offered_share.{name}"] = p["rate_rps"] / capacity
    L("serving.nll_per_token", -log_p / n_tok, "nat/tok")
    L("serving.peak_rss_mb", memory.peak_mib, "MiB")
    lat = stats["latency"]
    L("serving.queue_wait_s_p50", lat["queue_wait_s"]["p50"], "s")
    L("serving.queue_wait_s_p99", lat["queue_wait_s"]["p99"], "s")
    L("serving.service_s_p50", lat["service_s"]["p50"], "s")
    L("serving.service_s_p99", lat["service_s"]["p99"], "s")
    L("serving.busy_rejected", lat["busy_rejected"], "count")
    L("serving.shed_expired", lat["shed_expired"], "count")
    L("loadgen.lag_s_p99", percentile(lags, 99), "s")


def probe(cfg: dict, seed: int, model_path: Path, pool: list[np.ndarray], workdir: Path,
          root: Path, result: Run, tracer: Tracer) -> None:
    """Serve ``model_path`` and add the serving layers' figures to ``result``."""
    asyncio.run(_probe(cfg, seed, model_path, pool, workdir, root, result, tracer))
