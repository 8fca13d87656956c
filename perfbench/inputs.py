"""Seeded inputs: workload shapes, corpora, manifests and the mutation stream.

Everything the program receives is derived from ``--seed`` here: the
corpus (through the program's own :class:`SourceGenerator`), the query
pool and the stream of mutations.  The same seed gives the same corpus,
the same queries and the same main mutation stream; only how many of
the checkpoint writer's pre-built mutations run depends on timing.
"""

from __future__ import annotations

import hashlib
import json
import dataclasses
import random
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from repro.core.domain import DomainOfInterest, TimeInterval
from repro.sources.corpus import SourceCorpus
from repro.sources.generators import SourceGenerator, SourceSpec
from repro.sources.models import Discussion, Post, SourceType
from repro.sources.text import GENERIC_CATEGORIES, TextGenerator, default_vocabularies

#: The Domain of Interest every workload assesses against.
DOMAIN = DomainOfInterest(
    categories=("travel", "food"),
    time_interval=TimeInterval(0.0, 365.0),
    name="perfbench",
)

#: Mutations per journaled burst.
BURST = 10


@dataclass(frozen=True)
class Shape:
    """One workload: the shape of its corpus.

    Every workload runs the same cycle of user operations (cold
    assessment, journaled bursts with fresh reads and searches, a
    checkpoint under a writer, a restart); the corpus shape decides what
    each operation costs and which layer dominates it.
    """

    name: str
    #: Sources in the corpus, and the post total they are chosen to hold.
    sources: int
    posts: int
    discussions: int
    users: int
    #: Sources whose contributor communities are served live.
    hot: int
    #: Queries per search batch.
    searches: int
    #: Bursts between two full from-scratch oracle checks.
    oracle_every: int

    def source_spec(self, rng: random.Random, source_id: str) -> SourceSpec:
        """A seeded source of this shape.

        Latent drivers are drawn from a narrow band, so sources of one
        workload are alike in size: the cost of a mutation, a patch or a
        restart then depends little on which sources a seed happened to
        make large (the Pareto popularity of ``CorpusGenerator`` makes a
        few sources dominate, and which ones changes with every seed).
        """
        return SourceSpec(
            source_id=source_id,
            source_type=rng.choice((SourceType.BLOG, SourceType.FORUM)),
            focus_categories=tuple(rng.sample(GENERIC_CATEGORIES, 3)),
            latent_popularity=rng.uniform(0.45, 0.55),
            latent_engagement=rng.uniform(0.45, 0.55),
            latent_stickiness=rng.uniform(0.45, 0.55),
            discussion_budget=self.discussions,
            user_budget=self.users,
            off_topic_rate=rng.uniform(0.02, 0.35),
            created_at=rng.uniform(0.0, 180.0),
        )


WORKLOADS = {
    shape.name: shape
    for shape in (
        Shape("assess_cold", sources=360, posts=5000, discussions=2, users=6, hot=2,
              searches=30, oracle_every=6),
        Shape("live_serve", sources=33, posts=4000, discussions=12, users=20, hot=3,
              searches=40, oracle_every=6),
        Shape("checkpoint_restart", sources=12, posts=9000, discussions=75, users=40, hot=2,
              searches=30, oracle_every=6),
    )
}


def workload_seed(seed: int, shape: Shape, stream: str) -> int:
    """A stable per-workload, per-stream seed derived from ``--seed``."""
    digest = hashlib.blake2b(
        f"{seed}|{shape.name}|{stream}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % (2**31)


#: A corpus plan: the spec and generator seed of every source, in id order.
CorpusPlan = list[tuple[SourceSpec, int]]


def plan_corpus(shape: Shape, seed: int) -> CorpusPlan:
    """``shape.sources`` seeded sources holding as close to ``shape.posts`` as can be.

    Four times as many candidates are generated; the half again as many
    nearest the mean size the target asks for are kept, and the chosen set is improved by
    single swaps until no swap brings its post total closer to the
    target.  Sources of one corpus are then alike in size, so what a
    burst costs depends little on which sources it happens to hit.  Source and post counts, which drive most timings,
    are then the same for every seed (posts within a fraction of a
    percent); the content changes with the seed.  The plan is made once
    per run, before the timed set-ups, which only run
    :func:`build_corpus`.
    """
    rng = random.Random(workload_seed(seed, shape, "corpus"))
    candidates = []
    for index in range(4 * shape.sources + 2):
        spec = shape.source_spec(rng, f"source-{index:04d}")
        candidates.append((spec, rng.randrange(2**31)))
    all_sizes = [SourceGenerator(spec, seed=s).generate().post_count() for spec, s in candidates]
    mean = shape.posts / shape.sources
    kept = sorted(
        range(len(candidates)), key=lambda i: (abs(all_sizes[i] - mean), i)
    )[: shape.sources + shape.sources // 2 + 2]
    candidates = [candidates[i] for i in sorted(kept)]
    sizes = [all_sizes[i] for i in sorted(kept)]
    chosen = set(range(shape.sources))
    total = sum(sizes[i] for i in chosen)
    while True:
        gap, swap = abs(total - shape.posts), None
        for out in chosen:
            for into in set(range(len(candidates))) - chosen:
                new_gap = abs(total - sizes[out] + sizes[into] - shape.posts)
                if new_gap < gap:
                    gap, swap = new_gap, (out, into)
        if swap is None:
            break
        chosen = (chosen - {swap[0]}) | {swap[1]}
        total += sizes[swap[1]] - sizes[swap[0]]
    return [candidates[i] for i in sorted(chosen)]


def build_corpus(plan: CorpusPlan) -> SourceCorpus:
    """Generate the planned sources with the program's :class:`SourceGenerator`."""
    return SourceCorpus(SourceGenerator(spec, seed=seed).generate() for spec, seed in plan)


def post_count(corpus: SourceCorpus) -> int:
    return sum(source.post_count() for source in corpus)


def manifest(shape: Shape, seed: int, corpus: SourceCorpus) -> dict[str, Any]:
    """Spec, size and content hash of a generated corpus.

    Two runs with equal manifests measured the same input.
    """
    payload = json.dumps(corpus.to_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "workload": shape.name,
        "seed": seed,
        "corpus_seed": workload_seed(seed, shape, "corpus"),
        "shape": asdict(shape),
        "sources": len(corpus),
        "posts": post_count(corpus),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def hot_sources(corpus: SourceCorpus, count: int) -> list[str]:
    """The hot set: the ``count`` sources nearest the median size by posts.

    Half the grow and touch mutations, and the live contributor models,
    land on these sources, so their size drives the patch cost of every
    burst.  Median-sized sources keep that cost the same from seed to
    seed, where the largest sources of a corpus are extreme draws.
    """
    sizes = sorted(source.post_count() for source in corpus)
    middle = sizes[len(sizes) // 2]
    ranked = sorted(corpus, key=lambda s: (abs(s.post_count() - middle), s.source_id))
    return [source.source_id for source in ranked[:count]]


def query_pool(seed: int, shape: Shape, size: int = 1200) -> list[str]:
    """Distinct one- to three-word queries over the corpus vocabulary.

    The pool is larger than the engine's 512-entry result memo, so a
    search batch is mostly memo misses.
    """
    rng = random.Random(workload_seed(seed, shape, "queries"))
    vocabulary = default_vocabularies(GENERIC_CATEGORIES)
    words = sorted({word for v in vocabulary.values() for word in v.topic_words})
    pool: dict[str, None] = {}
    while len(pool) < size:
        pool[" ".join(rng.sample(words, rng.randint(1, 3)))] = None
    return list(pool)


#: A prepared mutation: (kind, source id, action).  Preparing builds every
#: object the mutation needs, so running ``action`` is only the call into
#: the program.
Mutation = tuple[str, str, Callable[[SourceCorpus], None]]


class MutationStream:
    """The seeded stream of grow / trim / touch / add / remove mutations.

    Bursts are skewed toward the hot sources (half of the grow and touch
    targets) and hold exactly one remove and one add of a source of the
    same size.  A grow is paired with a trim of the oldest discussion
    this stream grew on the same source.  The corpus is then stationary
    over a run: a journaled mutation writes its whole source, and a
    growing corpus would make later samples slower than earlier ones.
    Hot sources are never removed.
    """

    def __init__(
        self,
        shape: Shape,
        seed: int,
        hot: list[str],
        plan: CorpusPlan,
        stream: str = "main",
    ) -> None:
        self._shape = shape
        #: Spec and generator seed of every source this stream may remove.
        self._specs = {spec.source_id: (spec, seed) for spec, seed in plan}
        self._rng = random.Random(workload_seed(seed, shape, stream))
        self._text = TextGenerator(self._rng, default_vocabularies(GENERIC_CATEGORIES))
        self._hot = list(hot)
        self._stream = stream
        self._serial = 0
        #: Discussions this stream's executed grows added, oldest first.
        self._grown: dict[str, deque[Discussion]] = {}

    def _next_id(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}-{self._stream}-{self._serial:06d}"

    def _target(self, corpus: SourceCorpus, exclude: str = "") -> str:
        if self._hot and self._rng.random() < 0.5:
            return self._rng.choice(self._hot)
        ids = [source_id for source_id in corpus.source_ids() if source_id != exclude]
        return self._rng.choice(ids)

    def grow(self, corpus: SourceCorpus, source_id: str) -> Mutation:
        source = corpus.get(source_id)
        users = sorted(source.users) or ["perfbench-user"]
        category = self._rng.choice(DOMAIN.categories)
        discussion = Discussion(
            discussion_id=self._next_id(f"{source_id}-grow"),
            category=category,
            title=self._text.title(category),
            opened_at=self._rng.uniform(300.0, 360.0),
        )
        for index in range(1 + self._rng.randint(1, 4)):
            discussion.posts.append(
                Post(
                    post_id=f"{discussion.discussion_id}-p{index}",
                    author_id=self._rng.choice(users),
                    day=discussion.opened_at + index,
                    text=self._text.snippet(category, sentiment=self._rng.uniform(-1, 1)),
                    category=category,
                    tags=self._text.tags(category, 2),
                )
            )

        def action(live: SourceCorpus) -> None:
            live.get(source_id).add_discussion(discussion)
            self._grown.setdefault(source_id, deque()).append(discussion)

        return ("grow", source_id, action)

    def trim(self, source_id: str) -> Optional[Mutation]:
        """Remove the oldest discussion this stream grew on the source, if any."""
        grown = self._grown.get(source_id)
        if not grown:
            return None
        discussion = grown.popleft()

        def action(live: SourceCorpus) -> None:
            live.get(source_id).discussions.remove(discussion)
            live.touch(source_id)

        return ("trim", source_id, action)

    def _in_place(self, corpus: SourceCorpus, target: str, room: int) -> list[Mutation]:
        """A grow and its paired trim, or a touch: at most ``room`` mutations."""
        if room > 1 and self._rng.random() < 0.55:
            mutations = [self.grow(corpus, target)]
            trim = self.trim(target)
            return mutations + [trim] if trim is not None else mutations
        return [self.touch(corpus, target)]

    def touch(self, corpus: SourceCorpus, source_id: str) -> Mutation:
        source = corpus.get(source_id)
        discussion = self._rng.choice(source.discussions)
        position = self._rng.randrange(len(discussion.posts))
        category = discussion.category
        text = self._text.snippet(category, sentiment=self._rng.uniform(-1, 1))

        def action(live: SourceCorpus) -> None:
            discussion.posts[position].text = text
            live.touch(source_id)

        return ("touch", source_id, action)

    def replace(self, corpus: SourceCorpus) -> list[Mutation]:
        """Remove a source that is not hot, and add a new one in its place.

        The new source is generated from the removed one's spec and seed
        under a new id, so it has the same size: the corpus keeps its post
        count and its size profile however many sources a run replaces.
        """
        removed = self._rng.choice([s for s in corpus.source_ids() if s not in self._hot])
        spec, seed = self._specs[removed]
        added = self._next_id("perfbench-add")
        spec = dataclasses.replace(spec, source_id=added)
        self._specs[added] = (spec, seed)
        source = SourceGenerator(spec, seed=seed).generate()

        def remove(live: SourceCorpus) -> None:
            live.remove(removed)

        def add(live: SourceCorpus) -> None:
            live.add(source)

        return [("remove", removed, remove), ("add", added, add)]

    def burst(self, corpus: SourceCorpus) -> list[Mutation]:
        """One balanced burst of :data:`BURST` mutations, in seeded order."""
        mutations = self.replace(corpus)
        removed = mutations[0][1]
        while len(mutations) < BURST:
            target = self._target(corpus, exclude=removed)
            mutations += self._in_place(corpus, target, BURST - len(mutations))
        self._rng.shuffle(mutations)
        return mutations

    def in_place(self, corpus: SourceCorpus, count: int) -> list[Mutation]:
        """``count`` grow / trim / touch mutations, in seeded order."""
        mutations: list[Mutation] = []
        while len(mutations) < count:
            mutations += self._in_place(corpus, self._target(corpus), count - len(mutations))
        return mutations

    def touches(self, corpus: SourceCorpus, count: int) -> list[Mutation]:
        """``count`` touches: the checkpoint writer's stream.

        The writer issues only some of them, so it adds no discussion that
        a later trim would have to take back.
        """
        return [self.touch(corpus, self._target(corpus)) for _ in range(count)]
