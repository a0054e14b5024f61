"""The three closed-loop serving workloads and their metrics.

Each workload sets its system up several times (``setup_s`` is the median),
warms up, then drives a closed loop for the timed window: a caller sends
its next request only after the previous one (or burst) has been answered.
With ``trace`` on, the first half of the window runs untraced and the second
half with span tracing installed, so tracing overhead is their throughput
ratio.  A seeded sample of the responses -- wire and cache-hit responses
included -- is compared bitwise with solo ``encode_ragged`` on a clean model
after the window.

* ``short-burst`` -- bursts of 32 unique 8-16 token requests into the
  in-thread supervised service (tiny-base, cache off).
* ``long-closed`` -- unique 128-768 token tiny-long requests, one at a time,
  dense attention; every softmax call must stay on the native kernel.
* ``daemon-sharded-dup`` -- the TCP daemon in its own process over one shard
  worker (cache on), driven by two connections; half of the requests repeat
  one of the last 64 unique requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import Counter, deque
from pathlib import Path

import numpy as np

from perfbench.tracing import Tracer, clock
from repro.kernels import auto_kernel_choice
from repro.serving import ServiceConfig, SupervisedService, build_encoder_model

#: Seed of the served model's weights (the workload seed drives requests).
MODEL_SEED = 0

#: Token 0 is the pad id; requests use ids 1..VOCAB-1.
VOCAB = 32

#: Leading tokens of every fresh request spell its index in base VOCAB-1,
#: which makes fresh requests unique without remembering them.
_INDEX_DIGITS = 4

#: Percentiles tried for ``latency_tail_ms``, highest first.  The ladder
#: stops at p90: on a 2-vCPU VM shared with other machines, a p99 read
#: 0.12-0.27 apart (quartile distance over median) across ten seeds of
#: daemon-sharded-dup, and a p95 still 0.25 when the host stalled the VM
#: for a minute at a time (p95 doubled while p50 rose by a seventh).
_TAIL_LADDER = (90.0, 80.0, 75.0, 50.0)

#: Samples a tail percentile must leave beyond it.
_TAIL_MIN_BEYOND = 10

#: The timed window is cut into this many equal time slices.  The p50 is
#: the mean of the slice medians and the tail the median of the slice
#: tails: on a 2-vCPU VM the host was seen to slow the benchmark for tens
#: of seconds at a time, and a mean moves with the disturbed share of the
#: window where a median jumps between the two speeds; a tail is set by a
#: handful of samples, so one disturbed slice must not set it.
SLICES = 10

#: Fewest answers a slice holds on average.  A slice that answers at a
#: third of the window's mean rate then still leaves 13 samples beyond its
#: p90, so the tail percentile does not change with the speed of the run.
_SLICE_MIN_ANSWERS = 400

_WARMUP_S = 2.0
_RESULT_TIMEOUT_S = 30.0


# --------------------------------------------------------------------------- #
# request generation
# --------------------------------------------------------------------------- #
class RequestStream:
    """Deterministic request sequence drawn from ``seed``.

    Lengths come from shuffled decks holding each of ``lengths`` once, so
    every deck carries the same amount of work.  The deck order is the same
    for every seed (only token ids and repeats are drawn from ``seed``): the
    order decides which buffer shapes the plan's arena holds at once, and so
    the peak RSS.  With ``dup_frac`` > 0 a request repeats, with that
    probability, one of the last ``recent`` fresh requests: the repeat's
    original is still in the service's LRU cache however long the run is.
    """

    def __init__(self, seed: int, lengths, dup_frac: float = 0.0,
                 recent: int = 64, sample_frac: float = 0.0) -> None:
        self._rng = np.random.default_rng(seed)
        self._deck_rng = np.random.default_rng(0)
        self._sample_rng = np.random.default_rng([seed, 1])
        self._lengths = np.asarray(lengths)
        self._deck: list = []
        self._recent: deque = deque(maxlen=recent)
        self.dup_frac = dup_frac
        self.sample_frac = sample_frac
        self.fresh = 0
        self.repeats = 0
        self.histogram: Counter = Counter()

    def next(self) -> tuple:
        if self._recent and self._rng.random() < self.dup_frac:
            key = self._recent[int(self._rng.integers(len(self._recent)))]
            self.repeats += 1
        else:
            if not self._deck:
                self._deck = self._deck_rng.permutation(
                    self._lengths).tolist()
            length = self._deck.pop()
            index, prefix = self.fresh, []
            for _ in range(_INDEX_DIGITS):
                index, digit = divmod(index, VOCAB - 1)
                prefix.append(digit + 1)
            body = self._rng.integers(1, VOCAB, length - _INDEX_DIGITS)
            key = tuple(prefix + body.tolist())
            self.fresh += 1
            self._recent.append(key)
        self.histogram[len(key)] += 1
        return key

    def sampled(self) -> bool:
        """Should the next response be kept for the bitwise check?  (The
        first answer of a run always is.)"""
        return self._sample_rng.random() < self.sample_frac

    def setup_key(self) -> tuple:
        """The request every set-up answers first: the same for every
        seed, so set-up time does not depend on the drawn length."""
        return tuple(i % (VOCAB - 1) + 1 for i in range(min(self._lengths)))


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #
class Window:
    """Outcome of one timed closed-loop window."""

    def __init__(self) -> None:
        self.start = clock()
        self.latencies = array("d")
        #: Completion time of each answered request, from ``start``.
        self.finished = array("d")
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.client_cpu = 0.0
        self.response_bytes = 0

    def answered(self, sent: float, answered: float) -> None:
        self.latencies.append(answered - sent)
        self.finished.append(answered - self.start)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def slices(self) -> list:
        """``(throughput, latencies)`` of equal time slices: ``SLICES`` of
        them, fewer when a slice would get under ``_SLICE_MIN_ANSWERS``."""
        count = min(SLICES, max(1, len(self.latencies) // _SLICE_MIN_ANSWERS))
        width = self.elapsed / count
        buckets = [[] for _ in range(count)]
        for latency, finished in zip(self.latencies, self.finished):
            buckets[min(int(finished / width), count - 1)].append(latency)
        return [(len(bucket) / width, bucket) for bucket in buckets]

    def throughput(self) -> float:
        """Answered requests per second over the whole window."""
        return len(self.latencies) / self.elapsed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it:
    ``(value, percentile, samples_beyond)``."""
    n = len(values)
    for q in _TAIL_LADDER:
        beyond = n - max(1, math.ceil(q / 100.0 * n))
        if beyond >= _TAIL_MIN_BEYOND:
            return percentile(values, q), q, beyond
    raise RuntimeError(f"{n} latency samples cannot support a tail "
                       f"percentile with {_TAIL_MIN_BEYOND} beyond it")


def peak_rss_mb(pids) -> float:
    """Sum of peak resident set sizes (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited since it was listed
    return total_kb / 1024.0


def descendants(pid: int) -> list:
    """Live descendant pids of ``pid``, from the parent links in /proc."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [child for child, ppid in parents.items()
                    if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def digest(hidden: np.ndarray) -> bytes:
    """Bitwise fingerprint of a response (dtype, shape and bytes); samples
    keep this instead of the array, so they add next to nothing to the
    measured peak RSS."""
    return hashlib.blake2b(
        f"{hidden.dtype.str}{hidden.shape}".encode()
        + np.ascontiguousarray(hidden).tobytes()).digest()


def verify(samples, model_name: str) -> dict:
    """Compare sampled responses bitwise with solo ``encode_ragged`` on a
    freshly built model; returns checked/mismatched/cached counts."""
    clean = build_encoder_model(model_name=model_name, seed=MODEL_SEED)
    mismatched = cached = 0
    for key, fingerprint, was_cached in samples:
        solo = clean.encode_ragged([list(key)], engine="plan")[0]
        mismatched += digest(solo) != fingerprint
        cached += bool(was_cached)
    return {"checked": len(samples), "mismatched": mismatched,
            "cached": cached}


def median_setup(setups: list) -> dict:
    return {name: statistics.median(s[name] for s in setups)
            for name in setups[0]}


# --------------------------------------------------------------------------- #
# in-process workloads
# --------------------------------------------------------------------------- #
class InProcessWorkload:
    """A caller thread driving the in-thread supervised service."""

    setups = 15

    def __init__(self, name: str, model_name: str, lengths, burst: int,
                 sample_frac: float, config: ServiceConfig) -> None:
        self.name = name
        self.model_name = model_name
        self.lengths = lengths
        self.burst = burst
        self.sample_frac = sample_frac
        self.config = config

    def stream(self, seed: int) -> RequestStream:
        return RequestStream(seed, self.lengths,
                             sample_frac=self.sample_frac)

    def check_regime(self, stream: RequestStream, heads: int,
                     layers) -> None:
        """Workload-specific guard on the requests actually served."""

    def setup(self, stream: RequestStream):
        start = clock()
        model = build_encoder_model(model_name=self.model_name,
                                    seed=MODEL_SEED)
        built = clock()
        model.inference_plan()
        compiled = clock()
        service = SupervisedService(model, self.config).start()
        started = clock()
        service.submit(stream.setup_key()).result(timeout=_RESULT_TIMEOUT_S)
        answered = clock()
        return service, {"model_s": built - start,
                         "plan_compile_s": compiled - built,
                         "spawn_s": started - compiled,
                         "first_response_s": answered - started,
                         "total_s": answered - start}

    def drive(self, service, stream: RequestStream, seconds: float,
              samples: list) -> Window:
        window = Window()
        burst = self.burst
        cpu_start = time.thread_time()
        end = window.start + seconds
        while clock() < end:
            keys = [stream.next() for _ in range(burst)]
            sent = []
            for key in keys:
                window.attempted += 1
                submitted = clock()
                try:
                    sent.append((key, submitted, service.submit(key)))
                except Exception:  # noqa: BLE001 - counted as failed
                    window.failed += 1
            for key, submitted, request in sent:
                try:
                    hidden = request.result(timeout=_RESULT_TIMEOUT_S)
                except Exception:  # noqa: BLE001 - counted as failed
                    window.failed += 1
                    continue
                window.answered(submitted, clock())
                if stream.sampled() or not samples:
                    samples.append((key, digest(hidden), request.cached))
        window.elapsed = clock() - window.start
        window.client_cpu = time.thread_time() - cpu_start
        return window

    def run(self, seed: int, seconds: float, trace: bool, out_dir: Path):
        stream = self.stream(seed)
        setups = []
        for attempt in range(self.setups):
            service, timings = self.setup(stream)
            setups.append(timings)
            if attempt < self.setups - 1:
                service.stop()
        samples: list = []
        try:
            self.drive(service, stream, _WARMUP_S, [])
            if not trace:
                windows = [self.drive(service, stream, seconds, samples)]
                rss = peak_rss_mb([os.getpid()])
                layers = None
            else:
                windows, rss, layers = self._traced(
                    service, stream, seconds, samples, out_dir, seed)
        finally:
            service.stop()
        self.check_regime(stream, service.model.config.num_heads, layers)
        check = verify(samples, self.model_name)
        return summarize(windows, setups, rss, check, stream, layers)

    def _traced(self, service, stream, seconds, samples, out_dir, seed):
        untraced = self.drive(service, stream, seconds / 2, samples)
        rss = peak_rss_mb([os.getpid()])
        tracer = Tracer()
        tracer.install(service.model)
        self.drive(service, stream, _WARMUP_S, [])
        tracer.reset()
        plan = service.model.inference_plan()
        misses_before = plan.arena.misses
        service.stats.start()
        traced = self.drive(service, stream, seconds / 2, samples)
        snap = service.snapshot()
        tracer.write(out_dir / f"{self.name}-seed{seed}-spans.jsonl.gz")
        layers = tracer.layer_metrics()
        layers.update({
            "arena.misses": plan.arena.misses - misses_before,
            "arena.pooled_mb": plan.arena.stats()["free_bytes"] / 1e6,
            "batcher.queue_wait_p50_ms": snap["queue_wait_p50_ms"],
            "batcher.queue_wait_p99_ms": snap["queue_wait_p99_ms"],
            "batcher.batch_size_mean": snap["mean_batch_size"],
            "batcher.batches": snap["batches"],
            "service.forward_p50_ms": snap["forward_p50_ms"],
            "service.overhead_ms_per_req": (
                (traced.elapsed - tracer.forward_seconds()) * 1e3
                / traced.completed),
            "cache.hit_rate": 0.0,
            "cache.hits": 0,
            "shard.roundtrip_p50_ms": 0.0,
            "shard.hop_p50_ms": 0.0,
            "shard.restarts": 0,
            "daemon.overhead_p50_ms": 0.0,
            "daemon.response_kb_mean": 0.0,
        })
        layers.update(trace_overhead(untraced, traced))
        return [untraced, traced], rss, layers


class LongClosed(InProcessWorkload):
    def check_regime(self, stream: RequestStream, heads: int,
                     layers) -> None:
        # One request per forward: the attention scores of a length-L
        # request are (heads * L) rows of L.  Every one must stay below the
        # process-pool threshold, on the native kernel.
        if layers is not None and layers["kernel.native_frac"] < 1.0:
            raise RegimeError(
                f"kernel.native_frac {layers['kernel.native_frac']} < 1.0")
        for length in stream.histogram:
            choice = auto_kernel_choice(heads * length, length)
            if choice != "softermax-native":
                raise RegimeError(
                    f"length {length} dispatches to {choice}, not "
                    "softermax-native; the workload left its regime")


class RegimeError(RuntimeError):
    """A workload's requests left the regime the workload is defined by."""


def trace_overhead(untraced: Window, traced: Window) -> dict:
    return {"trace.throughput_rps_untraced": untraced.throughput(),
            "trace.throughput_rps_traced": traced.throughput(),
            "trace.overhead_frac": 1.0 - traced.throughput()
            / untraced.throughput()}


def summarize(windows, setups, rss: float, check: dict,
              stream: RequestStream, layers) -> dict:
    """End-to-end metrics of the first (untraced) window; attempts and
    failures of all windows.  The bitwise check sees a sample of the
    answers, so its mismatch rate is extrapolated to every answer."""
    window = windows[0]
    slices = window.slices()
    tails = [tail(latencies) for _, latencies in slices]
    setup = median_setup(setups)
    attempted = sum(w.attempted for w in windows)
    unanswered = sum(w.failed for w in windows)
    wrong = math.ceil((attempted - unanswered) * check["mismatched"]
                      / max(check["checked"], 1))
    failed = unanswered + wrong
    metrics = {
        "throughput_rps": window.throughput(),
        "latency_p50_ms": 1e3 * statistics.mean(
            percentile(latencies, 50.0) for _, latencies in slices),
        "latency_tail_ms": 1e3 * statistics.median(v for v, _, _ in tails),
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": setup["total_s"],
        "peak_rss_mb": rss,
    }
    if layers is not None:
        for name in ("model_s", "plan_compile_s", "spawn_s",
                     "first_response_s"):
            if name in setup:
                layers[f"setup.{name}"] = setup[name]
        layers["client.busy_frac"] = (sum(w.client_cpu for w in windows)
                                      / sum(w.elapsed for w in windows))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "record": {
            "latency_tail_percentile": [q for _, q, _ in tails],
            "latency_tail_samples_beyond": [n for _, _, n in tails],
            "latency_samples": len(window.latencies),
            "slices": [[rate, 1e3 * percentile(latencies, 50.0), 1e3 * t[0]]
                       for (rate, latencies), t in zip(slices, tails)],
            "requests": stream.fresh + stream.repeats,
            "fresh_requests": stream.fresh,
            "repeated_requests": stream.repeats,
            "length_histogram": {str(k): v for k, v
                                 in sorted(stream.histogram.items())},
            "setups": setups,
            "verified": check,
        },
    }


# --------------------------------------------------------------------------- #
# daemon workload
# --------------------------------------------------------------------------- #
class DaemonProcess:
    """``repro.cli daemon`` in its own process group."""

    def __init__(self, root: Path, log_path: Path, argv) -> None:
        self.root = root
        self.log_path = log_path
        self.argv = list(argv)
        self.proc = None
        self.port = None

    def start(self, timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.cli", "daemon",
                 *self.argv],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True)
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                match = re.search(rb"listening on [^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    return
        finally:
            watchdog.cancel()
        self.stop()
        raise RuntimeError(f"daemon exited before listening; see "
                           f"{self.log_path}")

    def pids(self) -> list:
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left of the
        process group; returns once every process of it has ended."""
        proc = self.proc
        if proc is None:
            return
        pids = self.pids() if proc.poll() is None else []
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # any straggling shard
        except ProcessLookupError:
            pass
        deadline = clock() + 15.0
        while any(_alive(pid) for pid in pids) and clock() < deadline:
            time.sleep(0.01)
        proc.stdout.close()
        self.proc = None


def _alive(pid: int) -> bool:
    """Is ``pid`` a running (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class DaemonClient:
    """Two closed-loop connections to the daemon, on one event loop."""

    connections = 2

    def __init__(self, port: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.conns = [self.loop.run_until_complete(asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22))
            for _ in range(self.connections)]
        self._ids = 0

    def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            try:
                self.loop.run_until_complete(writer.wait_closed())
            except (ConnectionError, OSError):
                pass
        self.loop.close()

    async def _call(self, reader, writer, payload: dict):
        line = json.dumps(payload).encode() + b"\n"
        writer.write(line)
        await writer.drain()
        return await reader.readline()

    def stats(self) -> dict:
        reader, writer = self.conns[0]
        raw = self.loop.run_until_complete(
            self._call(reader, writer, {"op": "stats"}))
        return json.loads(raw)["stats"]

    def infer(self, key) -> dict:
        reader, writer = self.conns[0]
        raw = self.loop.run_until_complete(
            self._call(reader, writer, {"op": "infer", "id": 0,
                                        "tokens": list(key)}))
        return json.loads(raw)

    def drive(self, stream: RequestStream, seconds: float,
              samples: list) -> Window:
        window = Window()

        async def closed_loop(reader, writer, end):
            while clock() < end:
                key = stream.next()
                self._ids += 1
                window.attempted += 1
                sent = clock()
                raw = await self._call(reader, writer, {
                    "op": "infer", "id": self._ids, "tokens": key})
                answered = clock()
                if not raw:  # the daemon closed the connection
                    window.failed += 1
                    return
                response = json.loads(raw)
                if not response.get("ok") \
                        or response["shape"][0] != len(key):
                    window.failed += 1
                    continue
                window.answered(sent, answered)
                window.response_bytes += len(raw)
                if stream.sampled() or not samples:
                    hidden = np.asarray(response["hidden"], dtype=np.float64)
                    samples.append((key, digest(hidden), response["cached"]))

        async def all_loops():
            end = window.start + seconds
            await asyncio.gather(*(closed_loop(reader, writer, end)
                                   for reader, writer in self.conns))

        cpu_start = time.thread_time()
        self.loop.run_until_complete(all_loops())
        window.elapsed = clock() - window.start
        window.client_cpu = time.thread_time() - cpu_start
        return window


class DaemonShardedDup:
    name = "daemon-sharded-dup"
    model_name = "tiny-base"
    setups = 7
    replay_forwards = 400

    def __init__(self, root: Path) -> None:
        self.root = root
        self.argv = ["--model", self.model_name, "--port", "0",
                     "--workers", "1", "--max-batch-size", "32",
                     "--max-wait-ms", "0.5", "--cache-size", "1024",
                     "--seed", str(MODEL_SEED)]

    def stream(self, seed: int) -> RequestStream:
        return RequestStream(seed, range(8, 17), dup_frac=0.5, recent=64,
                             sample_frac=1 / 16)

    def setup(self, stream, out_dir: Path):
        start = clock()
        daemon = DaemonProcess(self.root, out_dir / "daemon.log", self.argv)
        daemon.start()
        listening = clock()
        try:
            client = DaemonClient(daemon.port)
            response = client.infer(stream.setup_key())
        except Exception:
            daemon.stop()
            raise
        answered = clock()
        if not response.get("ok"):
            client.close()
            daemon.stop()
            raise RuntimeError(f"first daemon response failed: {response}")
        return daemon, client, {"spawn_s": listening - start,
                                "first_response_s": answered - listening,
                                "total_s": answered - start}

    def run(self, seed: int, seconds: float, trace: bool, out_dir: Path):
        stream = self.stream(seed)
        setups = []
        for attempt in range(self.setups):
            daemon, client, timings = self.setup(stream, out_dir)
            setups.append(timings)
            if attempt < self.setups - 1:
                client.close()
                daemon.stop()
        samples: list = []
        try:
            client.drive(stream, _WARMUP_S, [])
            if not trace:
                windows = [client.drive(stream, seconds, samples)]
                layers = None
            else:
                untraced = client.drive(stream, seconds / 2, samples)
                before = client.stats()
                traced = client.drive(stream, seconds / 2, samples)
                after = client.stats()
                layers = self._layers(untraced, traced, before, after, seed,
                                      out_dir)
                windows = [untraced, traced]
            rss = peak_rss_mb(daemon.pids())
        finally:
            client.close()
            daemon.stop()
        check = verify(samples, self.model_name)
        return summarize(windows, setups, rss, check, stream, layers)

    def _layers(self, untraced, traced, before, after, seed, out_dir):
        def delta(*path):
            a, b = before, after
            for part in path:
                a, b = a[part], b[part]
            return b - a

        batches = delta("batches")
        batched = (after["mean_batch_size"] * after["batches"]
                   - before["mean_batch_size"] * before["batches"])
        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        latencies_ms = [v * 1e3 for v in traced.latencies]
        replay, replay_p50_ms = self._replay(batched / batches, seed,
                                             out_dir)
        layers = dict(replay)
        layers.update({
            "batcher.queue_wait_p50_ms": after["queue_wait_p50_ms"],
            "batcher.queue_wait_p99_ms": after["queue_wait_p99_ms"],
            "batcher.batch_size_mean": batched / batches,
            "batcher.batches": batches,
            "service.forward_p50_ms": after["forward_p50_ms"],
            "service.overhead_ms_per_req": (
                (traced.elapsed * 1e3 - batches * after["forward_p50_ms"])
                / traced.completed),
            "cache.hit_rate": hits / (hits + misses),
            "cache.hits": hits,
            "shard.roundtrip_p50_ms": after["forward_p50_ms"],
            "shard.hop_p50_ms": after["forward_p50_ms"] - replay_p50_ms,
            "shard.restarts": after["restarts"],
            "daemon.overhead_p50_ms": (percentile(latencies_ms, 50.0)
                                       - after["p50_ms"]),
            "daemon.response_kb_mean": (traced.response_bytes / 1024
                                        / traced.completed),
        })
        layers.update(trace_overhead(untraced, traced))
        return layers

    def _replay(self, batch_mean: float, seed: int, out_dir: Path):
        """Trace the forward in-process at the daemon's batch sizes.

        The served forward runs inside the shard process, out of reach of
        the wrappers; replaying batches of the same mean size on a fresh
        model gives its plan/kernel split and the in-process forward time
        the shard hop is measured against.
        """
        stream = RequestStream(seed + 1, range(8, 17))
        start = clock()
        model = build_encoder_model(model_name=self.model_name,
                                    seed=MODEL_SEED)
        built = clock()
        model.inference_plan()
        compiled = clock()
        tracer = Tracer()
        tracer.install(model)
        plan = model.inference_plan()
        rng = np.random.default_rng(seed)
        low = max(1, int(batch_mean))
        upper_frac = batch_mean - low
        for forward in range(self.replay_forwards):
            if forward == self.replay_forwards // 4:
                # Warm forwards done; measure from here.
                tracer.reset()
                misses_before = plan.arena.misses
            size = low + int(rng.random() < upper_frac)
            model.encode_ragged([list(stream.next()) for _ in range(size)],
                                engine="plan")
        tracer.write(out_dir / f"{self.name}-seed{seed}-replay-spans.jsonl.gz")
        layers = tracer.layer_metrics()
        layers["arena.misses"] = plan.arena.misses - misses_before
        layers["arena.pooled_mb"] = plan.arena.stats()["free_bytes"] / 1e6
        layers["setup.model_s"] = built - start
        layers["setup.plan_compile_s"] = compiled - built
        durations = [(end - begin) * 1e3
                     for _, begin, end, _, _ in tracer.forwards]
        return layers, percentile(durations, 50.0)


def workload(name: str, root: Path):
    if name == "short-burst":
        return InProcessWorkload(
            name, "tiny-base", range(8, 17), burst=32, sample_frac=1 / 256,
            config=ServiceConfig(max_batch_size=32, cache_size=0,
                                 engine="plan"))
    if name == "long-closed":
        return LongClosed(
            name, "tiny-long", range(128, 769, 16), burst=1,
            sample_frac=1 / 16,
            # A lone caller never has a second request to coalesce.
            config=ServiceConfig(max_batch_size=32, max_wait_ms=0.0,
                                 cache_size=0, engine="plan"))
    if name == "daemon-sharded-dup":
        return DaemonShardedDup(root)
    raise KeyError(name)
