"""The workload stacks and the timed user operations.

One :class:`Session` holds a workload's serving stack and runs its cycle
of operations, each timed from outside through the program's public
functions:

* ``assess_sources`` / ``assess_contributors`` — an observer's cold
  assessment: fresh quality models over the whole corpus;
* ``write`` — a burst of journaled mutations;
* ``fresh_read`` — flush, then the top-k quality rank, the contributor
  ranks of the hot sources and one search;
* ``search`` — a batch of searches from a pool larger than the result
  memo;
* ``checkpoint`` — a checkpoint while one writer thread mutates;
* ``restart`` — recover the stack from disk and serve the first rank and
  search;
* ``shard_read`` / ``shard_search`` (traced runs only) — the same fresh
  reads and searches served by a :class:`ShardCoordinator` over two
  worker processes, measured for the per-layer ``sharding.*`` metrics.

Every result is compared with a from-scratch oracle outside the timed
spans; a mismatch is a failed operation.
"""

from __future__ import annotations

import gc
import json
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core.contributor_quality import ContributorQualityModel
from repro.core.source_quality import SourceQualityModel
from repro.persistence import CorpusStore
from repro.search.engine import SearchEngine
from repro.serving import EagerRefreshScheduler, RefreshMode
from repro.sharding import ShardCoordinator
from repro.sources.crawler import Crawler
from repro.sources.webstats import AlexaLikeService, FeedburnerLikeService

from inputs import (
    BURST,
    DOMAIN,
    CorpusPlan,
    MutationStream,
    Shape,
    build_corpus,
    hot_sources,
    post_count,
    query_pool,
)
from spans import NullTracer

#: Results compared per read: the top-k of the quality rank and of searches.
TOP_K = 10
LIMIT = 10
#: Pause between two mutations of the checkpoint writer thread, and how
#: many it has ready: more than it can issue while one checkpoint runs.
WRITER_PAUSE_S = 0.002
WRITER_MUTATIONS = 64
#: Live iterations (burst, fresh read, search batch) per cycle.
LIVE_ITERS = 1
#: Worker processes of the sharded stack of traced runs, and how many of
#: its reads pass between two comparisons with a single-process twin.
SHARDS = 2
SHARD_ORACLE_EVERY = 3
#: Queries the restart and oracle checks compare beyond the fresh one.
PROBE_QUERIES = ("travel food", "hotel", "recipe dinner", "flight resort beach")

now = time.perf_counter


#: The fixed payload of the host-speed probe.
_PROBE_PAYLOAD = [
    {"id": i, "text": "travel food hotel review " * 2, "score": i * 0.5, "tags": ["a", "b"]}
    for i in range(200)
]


def host_probe() -> float:
    """Milliseconds for a fixed mix of interpreter work: the host-speed probe.

    Dictionary updates, a JSON round trip and word counting, the kinds of
    work the program's hot paths are made of.  Timed next to every
    sample, it tracks how fast the host runs Python at that moment.
    """
    start = now()
    table: dict[int, int] = {}
    for i in range(15000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    for _ in range(4):
        json.loads(json.dumps(_PROBE_PAYLOAD))
    counts: dict[str, int] = {}
    for word in " ".join(item["text"] for item in _PROBE_PAYLOAD).split():
        counts[word] = counts.get(word, 0) + 1
    return (now() - start) * 1000.0


class Recorder:
    """Timed samples, host probes, operation counts and oracle outcomes."""

    def __init__(self) -> None:
        #: metric -> [(value, probe index, traced)]
        self.samples: dict[str, list[tuple[float, int, bool]]] = {}
        self.probes: list[float] = []
        #: per-layer counters sampled in traced cycles: name -> values
        self.counters: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, int] = {}
        self.errors: list[str] = []
        self.traced = False

    def probe(self) -> None:
        self.probes.append(host_probe())

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(
            (value, len(self.probes) - 1, self.traced)
        )

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(float(value))

    def ops(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, kind: str, ok: bool, detail: str) -> None:
        """One oracle comparison: an attempted operation, failed on mismatch."""
        self.attempted += 1
        self.checks[kind] = self.checks.get(kind, 0) + 1
        if not ok:
            self.fail(f"oracle {kind}: {detail}")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", flush=True)


def ranking_pairs(ranking) -> list[tuple[str, float]]:
    return [(assessment.source_id, assessment.overall) for assessment in ranking]


def contributor_pairs(ranking) -> list[tuple[str, float]]:
    return [(assessment.user_id, assessment.overall) for assessment in ranking]


def score_pairs(pairs) -> list[tuple[str, dict]]:
    return [(source_id, score.to_dict()) for source_id, score in pairs]


def assessment_pairs(ranking) -> list[tuple[str, dict]]:
    return [(assessment.source_id, assessment.score.to_dict()) for assessment in ranking]


class Session:
    """One workload's stack, its seeded streams and its timed operations."""

    def __init__(
        self,
        shape: Shape,
        seed: int,
        plan: CorpusPlan,
        workdir: Path,
        recorder: Recorder,
        tracer: Any = None,
    ) -> None:
        self.shape = shape
        self.seed = seed
        self.plan = plan
        self.workdir = workdir
        self.rec = recorder
        self.tracer = tracer or NullTracer()
        self.queries = query_pool(seed, shape)
        self._query_cursors = {"live": 0, "shard": 0}
        self.store_dir: Optional[Path] = None
        self.corpus = None
        self.engine = None
        self.model = None
        self.contributors: dict[str, ContributorQualityModel] = {}
        self.scheduler = None
        self.store = None
        self.coordinator: Optional[ShardCoordinator] = None
        self.hot: list[str] = []
        self.bursts = 0
        self.shard_reads = 0

    # -- set-up ---------------------------------------------------------------------

    def build(self, index: int) -> None:
        """Generate the corpus and build, persist and warm the stack."""
        span = self.tracer.span
        self.store_dir = self.workdir / f"store-{index}"
        with span("sources.generate"):
            self.corpus = build_corpus(self.plan)
        self.hot = hot_sources(self.corpus, self.shape.hot)
        with span("search.index_build"):
            self.engine = SearchEngine(self.corpus)
            self.engine.static_rank()
        self.model = SourceQualityModel(DOMAIN)
        self.model.rank(self.corpus)
        for source_id in self.hot:
            model = ContributorQualityModel(DOMAIN)
            model.rank(self.corpus.get(source_id))
            self.contributors[source_id] = model
        self.scheduler = EagerRefreshScheduler(self.corpus, RefreshMode.DEFERRED)
        self.scheduler.register_search_engine(self.engine, name="search")
        self.scheduler.register_source_model(self.model, name="source-model")
        for source_id, model in self.contributors.items():
            self.scheduler.register_contributor_model(
                model, self.corpus.get(source_id), name=f"contributors-{source_id}"
            )
        self.store = CorpusStore(self.store_dir, fsync=True)
        self.store.attach(
            self.corpus,
            engine=self.engine,
            source_model=self.model,
            contributor_models=self.contributors,
        )
        with span("persistence.checkpoint"):
            self.store.checkpoint()
        for query in PROBE_QUERIES:
            self.engine.search(query, LIMIT)
        plan = self.plan
        self.stream = MutationStream(self.shape, self.seed, self.hot, plan)
        self.writer_stream = MutationStream(self.shape, self.seed, self.hot, plan, "writer")
        self.tail_stream = MutationStream(self.shape, self.seed, self.hot, plan, "tail")

    def start_shards(self) -> None:
        """Traced runs only: a sharded stack over its own copy of the corpus.

        The coordinator owns a second corpus generated from the same plan,
        so the live stack's writes never route through it; its mutations
        come from a stream of their own.
        """
        self.coordinator = ShardCoordinator(build_corpus(self.plan), SHARDS, domain=DOMAIN)
        self.shard_stream = MutationStream(self.shape, self.seed, self.hot, self.plan, "shard")
        self.coordinator.rank_top(TOP_K)
        for query in PROBE_QUERIES:
            self.coordinator.search(query, LIMIT)

    def instrument(self) -> None:
        """Traced runs only: spans around the long-lived stack's collaborators."""
        wrap = self.tracer.wrap
        wrap(self.store.journal, "append", "persistence.journal_append")
        for name in self.scheduler.consumer_names():
            if name == "search":
                label = "search.patch"
            elif name == "source-model":
                label = "core.patch"
            else:
                label = "core.contributor_patch"
            wrap(self.scheduler.queue(name), "drain", label)

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.model is not None:
            self.model.close()
            self.model = None
        self.contributors = {}
        self.corpus = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    # -- helpers -----------------------------------------------------------------------

    def next_queries(self, count: int, stream: str = "live") -> list[str]:
        pool = self.queries
        start = self._query_cursors[stream]
        self._query_cursors[stream] = (start + count) % len(pool)
        return [pool[(start + i) % len(pool)] for i in range(count)]

    def _timed(
        self, name: str, body: Callable[[], Any], probe: bool = True
    ) -> tuple[float, Any]:
        """Probe the host, then run ``body`` under a root span; return (s, result)."""
        if probe:
            self.rec.probe()
        with self.tracer.span(name):
            start = now()
            result = body()
            elapsed = now() - start
        self.tracer.iteration += 1
        return elapsed, result

    def _write(self, action: Callable[[Any], None]) -> None:
        with self.tracer.span("sources.mutate"):
            action(self.corpus)

    # -- operations ------------------------------------------------------------------------

    def cycle(self) -> None:
        """One round of every operation: the same on every workload.

        The benchmark's own garbage (retired models, recovered stacks,
        oracle twins) is collected between operations, so its collection
        never lands inside a timed one at random.
        """
        gc.collect()
        self.assess_cold()
        for _ in range(LIVE_ITERS):
            gc.collect()
            self.live_iteration()
        if self.coordinator is not None and self.tracer.active:
            gc.collect()
            self.shard_iteration()
        gc.collect()
        self.checkpoint()
        gc.collect()
        self.restart()

    def assess_cold(self) -> None:
        """Fresh models assess and rank every source, then every community."""
        span = self.tracer.span
        wrap = self.tracer.wrap
        corpus = self.corpus
        crawler = Crawler()
        alexa = AlexaLikeService()
        feedburner = FeedburnerLikeService()
        wrap(crawler, "crawl_corpus", "sources.crawl")
        wrap(crawler, "crawl_contributors_batched", "sources.community_crawl")
        model = SourceQualityModel(DOMAIN, alexa=alexa, feedburner=feedburner, crawler=crawler)

        def sources():
            with span("sources.webstats"):
                alexa.observe_many(corpus)
                feedburner.observe_many(corpus)
            with span("core.raw_measures"):
                model.raw_measures(corpus)
            with span("core.fit_score_rank"):
                return model.rank(corpus)

        contributor_model = ContributorQualityModel(DOMAIN, crawler=crawler)
        source_list = corpus.sources()

        def contributors():
            assessed = {}
            for source in source_list:
                with span("core.contributor_assess"):
                    assessed[source.source_id] = contributor_model.assess_source(source)
            return assessed

        elapsed, ranking = self._timed("assess_sources", sources)
        self.rec.add("assess_sources_s", elapsed)
        elapsed, communities = self._timed("assess_contributors", contributors)
        self.rec.add("assess_contributors_s", elapsed)
        self.rec.ops(2)
        if self.tracer.active:
            self.rec.count("core.contributor_sources", len(source_list))
        model.close()

        # Oracle: the cold ranking equals the live, incrementally kept one;
        # the cold communities equal the live contributor models'.
        self.rec.check(
            "cold_rank", ranking_pairs(ranking) == ranking_pairs(self.model.rank(corpus)),
            "cold ranking differs from the live model's",
        )
        for source_id, live_model in self.contributors.items():
            source = corpus.get(source_id)
            cold = sorted(communities[source_id].values(), key=lambda a: (-a.overall, a.user_id))
            self.rec.check(
                "cold_contributors",
                contributor_pairs(cold) == contributor_pairs(live_model.rank(source)),
                f"cold community of {source_id} differs from the live model's",
            )

    def live_iteration(self) -> None:
        """A journaled burst, the fresh reads after it, then a search batch."""
        span = self.tracer.span
        traced = self.tracer.active
        corpus = self.corpus
        burst = self.stream.burst(corpus)
        counters_before = self._counter_snapshot() if traced else None
        journal_before = self.store.journal_path.stat().st_size if traced else 0

        def write():
            for _, _, action in burst:
                self._write(action)

        elapsed, _ = self._timed("write", write)
        self.rec.add("write_ms", elapsed * 1000.0 / len(burst))
        self.rec.ops(len(burst))
        if traced:
            self.rec.count(
                "persistence.journal_bytes_per_mutation",
                (self.store.journal_path.stat().st_size - journal_before) / len(burst),
            )

        fresh_query = self.next_queries(1)[0]

        def fresh_read():
            with span("serving.flush"):
                self.scheduler.flush()
            with span("core.rank_read"):
                top = ranking_pairs(self.model.rank(corpus)[:TOP_K])
                communities = {
                    source_id: contributor_pairs(model.rank(corpus.get(source_id)))
                    for source_id, model in self.contributors.items()
                }
            with span("search.query"):
                results = self.engine.search(fresh_query, LIMIT)
            return top, communities, results

        elapsed, fresh = self._timed("fresh_read", fresh_read)
        self.rec.add("fresh_read_ms", elapsed * 1000.0)
        self.rec.ops(1)
        if traced:
            self._count_burst(counters_before)

        queries = self.next_queries(self.shape.searches)
        search_before = self.engine.counters.snapshot()

        def search():
            for query in queries:
                with span("search.query"):
                    self.engine.search(query, LIMIT)

        elapsed, _ = self._timed("search", search)
        self.rec.add("search_ms", elapsed * 1000.0 / len(queries))
        self.rec.ops(len(queries))
        if traced:
            self._count_search(search_before)

        self.bursts += 1
        if self.bursts % self.shape.oracle_every == 0:
            self.check_live(fresh, fresh_query)

    def check_live(self, fresh, fresh_query: str) -> None:
        """Oracle: the fresh reads equal fresh models built on the same corpus."""
        corpus = self.corpus
        model = SourceQualityModel(DOMAIN)
        engine = SearchEngine(corpus)
        try:
            top, communities, results = fresh
            expected_top = ranking_pairs(model.rank(corpus)[:TOP_K])
            self.rec.check("live_rank", top == expected_top, "fresh rank differs from a fresh model")
            self.rec.check(
                "live_search", results == engine.search(fresh_query, LIMIT),
                f"fresh search {fresh_query!r} differs from a fresh engine",
            )
            for query in PROBE_QUERIES:
                self.rec.check(
                    "live_search", self.engine.search(query, LIMIT) == engine.search(query, LIMIT),
                    f"search {query!r} differs from a fresh engine",
                )
            for source_id, pairs in communities.items():
                expected = contributor_pairs(
                    ContributorQualityModel(DOMAIN).rank(corpus.get(source_id))
                )
                self.rec.check(
                    "live_contributors", pairs == expected,
                    f"community of {source_id} differs from a fresh model",
                )
        finally:
            engine.close()
            model.close()

    def checkpoint(self) -> None:
        """A checkpoint while one writer thread keeps mutating (untraced runs).

        Traced runs checkpoint with no writer, which isolates the
        persistence layer's own time.
        """
        corpus = self.corpus
        writes: list[tuple[float, float]] = []
        started = threading.Event()
        done = threading.Event()
        errors: list[Exception] = []
        mutations = self.writer_stream.touches(corpus, WRITER_MUTATIONS)

        def writer() -> None:
            try:
                for _, _, action in mutations:
                    if done.is_set():
                        break
                    begin = now()
                    action(corpus)
                    writes.append((begin, now()))
                    started.set()
                    time.sleep(WRITER_PAUSE_S)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                errors.append(exc)
            finally:
                started.set()

        window = [0.0, 0.0]

        def run_checkpoint():
            window[0] = now()
            with self.tracer.span("persistence.checkpoint"):
                self.store.checkpoint()
            window[1] = now()

        # The probe runs before the writer starts, so it never shares the
        # interpreter with it.
        self.rec.probe()
        thread = None
        if not self.tracer.enabled:
            thread = threading.Thread(target=writer, name="perfbench-writer")
            thread.start()
            started.wait()
        try:
            elapsed, _ = self._timed("checkpoint", run_checkpoint, probe=False)
        finally:
            done.set()
            if thread is not None:
                thread.join()
        self.rec.add("checkpoint_s", elapsed)
        self.rec.ops(1 + len(writes))
        for exc in errors:
            self.rec.fail(f"checkpoint writer: {exc!r}")
        if thread is not None:
            begin, end = window
            overlapping = [e - b for b, e in writes if e >= begin and b <= end]
            if overlapping:
                self.rec.add("checkpoint_stall_ms", max(overlapping) * 1000.0)
        snapshot = self.store.snapshot_path.stat().st_size
        self.rec.add("snapshot_bytes_per_post", snapshot / post_count(corpus))
        if self.tracer.active:
            self.rec.count("persistence.snapshot_bytes", snapshot)

    def restart(self) -> None:
        """Recover from disk to the first served rank and search; compare.

        A seeded burst of journaled mutations lands after the checkpoint,
        outside the timed span, so every restart replays the same kind of
        journal tail, traced or not.
        """
        span = self.tracer.span
        query = self.next_queries(1)[0]
        with span("restart_tail"):
            for _, _, action in self.tail_stream.in_place(self.corpus, BURST):
                action(self.corpus)
        self.scheduler.flush()
        restarted = CorpusStore(self.store_dir, fsync=True)

        def restart():
            with span("persistence.recover"):
                result = restarted.recover()
            self.tracer.wrap(result, "replay", "persistence.replay")
            with span("persistence.restore_stack"):
                stack = restarted.recover_stack(domain=DOMAIN, attach=False, result=result)
            with span("core.rank_read"):
                ranking = stack.source_model.rank(stack.corpus)
            with span("search.query"):
                results = stack.engine.search(query, LIMIT)
            return stack, ranking, results

        elapsed, (stack, ranking, results) = self._timed("restart", restart)
        self.rec.add("restart_s", elapsed)
        self.rec.ops(1)
        try:
            self.check_restart(stack, ranking, results, query)
        finally:
            stack.engine.close()
            stack.source_model.close()
            restarted.close()

    def check_restart(self, stack, ranking, results, query: str) -> None:
        """Oracle: the recovered stack equals the live stack."""
        corpus = self.corpus
        ok = (
            stack.corpus.version == corpus.version
            and stack.corpus.source_ids() == corpus.source_ids()
            and post_count(stack.corpus) == post_count(corpus)
        )
        self.rec.check("restart_corpus", ok, "recovered corpus differs from the live one")
        self.rec.check(
            "restart_rank",
            ranking_pairs(ranking) == ranking_pairs(self.model.rank(corpus)),
            "recovered ranking differs from the live one",
        )
        self.rec.check(
            "restart_search",
            results == self.engine.search(query, LIMIT)
            and stack.engine.static_rank() == self.engine.static_rank()
            and all(
                stack.engine.search(q, LIMIT) == self.engine.search(q, LIMIT)
                for q in PROBE_QUERIES
            ),
            "recovered searches differ from the live engine",
        )
        for source_id, model in self.contributors.items():
            recovered = stack.contributor_models.get(source_id)
            self.rec.check(
                "restart_contributors",
                recovered is not None
                and contributor_pairs(recovered.rank(stack.corpus.get(source_id)))
                == contributor_pairs(model.rank(corpus.get(source_id))),
                f"recovered community of {source_id} differs from the live one",
            )

    def shard_iteration(self) -> None:
        """A burst, then the fresh reads and a search batch served by shards."""
        span = self.tracer.span
        coordinator = self.coordinator
        corpus = coordinator.corpus
        for _, _, action in self.shard_stream.burst(corpus):
            action(corpus)
        fresh_query, *queries = self.next_queries(1 + self.shape.searches, "shard")
        before = self._shard_counters()

        def shard_read():
            with span("sharding.flush"):
                coordinator.flush()
            with span("sharding.rank_top"):
                top = coordinator.rank_top(TOP_K)
            with span("sharding.search"):
                results = coordinator.search(fresh_query, LIMIT)
            return top, results

        def shard_search():
            for query in queries:
                with span("sharding.search"):
                    coordinator.search(query, LIMIT)

        _, (top, results) = self._timed("shard_read", shard_read)
        self._timed("shard_search", shard_search)
        self._count_shards(before, 2 + len(queries))
        self.rec.ops(2 + len(queries))
        if self.shard_reads % SHARD_ORACLE_EVERY == 0:
            self.check_sharded(top, results, fresh_query)
        self.shard_reads += 1

    def check_sharded(self, top, results, query: str) -> None:
        """Oracle: sharded reads equal a single-process twin on the same corpus."""
        corpus = self.coordinator.corpus
        model = SourceQualityModel(DOMAIN)
        engine = SearchEngine(corpus)
        try:
            self.rec.check(
                "sharded_rank",
                score_pairs(top) == assessment_pairs(model.rank(corpus)[:TOP_K]),
                "sharded rank_top differs from the single-process twin",
            )
            self.rec.check(
                "sharded_search",
                results == engine.search(query, LIMIT)
                and all(
                    self.coordinator.search(q, LIMIT) == engine.search(q, LIMIT)
                    for q in PROBE_QUERIES
                ),
                "sharded search differs from the single-process twin",
            )
        finally:
            engine.close()
            model.close()

    # -- counters ------------------------------------------------------------------------

    def _counter_snapshot(self) -> dict[str, Any]:
        stats = self.scheduler.stats()
        return {
            "model": self.model.counters.snapshot(),
            "contributors": [m.counters.snapshot() for m in self.contributors.values()],
            "engine": self.engine.counters.snapshot(),
            "patches": sum(s.patches for s in stats.values()),
            "skips": sum(s.skips for s in stats.values()),
        }

    def _count_burst(self, before: dict[str, Any]) -> None:
        after = self._counter_snapshot()

        def delta(section: str, name: str) -> int:
            return after[section].get(name, 0) - before[section].get(name, 0)

        def contributors_delta(name: str) -> int:
            return sum(
                a.get(name, 0) - b.get(name, 0)
                for a, b in zip(after["contributors"], before["contributors"])
            )

        count = self.rec.count
        count("core.sources_remeasured_per_burst", delta("model", "sources_remeasured"))
        count("core.contributors_remeasured_per_burst", contributors_delta("contributors_remeasured"))
        count(
            "core.normalizer_fits_per_burst",
            delta("model", "normalizer_fits") + contributors_delta("normalizer_fits"),
        )
        count("search.sources_reindexed_per_burst", delta("engine", "sources_reindexed"))
        count("serving.patches_per_burst", after["patches"] - before["patches"])
        count("serving.skips_per_burst", after["skips"] - before["skips"])

    def _shard_counters(self) -> tuple[float, int]:
        """(worker busy seconds, wire bytes), read so that neither request
        counts in the other's delta: busy time first, then the byte counters."""
        busy = sum(self.coordinator.busy_times().values())
        return busy, sum(self.coordinator.wire_bytes().values())

    def _count_shards(self, before: tuple[float, int], reads: int) -> None:
        wire = sum(self.coordinator.wire_bytes().values())
        busy = sum(self.coordinator.busy_times().values())
        self.rec.count("sharding.wire_bytes_per_read", (wire - before[1]) / reads)
        self.rec.count("sharding.worker_busy_ms_per_read", (busy - before[0]) * 1000.0 / reads)

    def _count_search(self, before: dict[str, int]) -> None:
        after = self.engine.counters.snapshot()
        misses = after.get("queries", 0) - before.get("queries", 0)
        hits = after.get("result_cache_hits", 0) - before.get("result_cache_hits", 0)
        scored = after.get("candidates_scored", 0) - before.get("candidates_scored", 0)
        self.rec.count("search.candidates_scored_per_query", scored / misses if misses else 0.0)
        self.rec.count(
            "search.result_cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0
        )
