"""Two-topic toy corpus: generation, TSV io, and the bundled lexicon.

Sentences are drawn from two template grammars over a fixed 17-word
vocabulary.  Topic "food" (label 1) combines a subject with a cooking verb
and a food object; topic "IT" (label 0) uses computing verbs and objects.
Each topic admits the patterns N V N, ADJ N V N, N V ADJ N and
ADJ N V ADJ N, giving 72 distinct sentences per topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from qnlp.errors import ConfigError, Error
from qnlp.pregroup import Lexicon


class MalformedLine(Error):
    """A dataset TSV line does not match ``label<TAB>sentence``."""


class VocabularyLeak(Error):
    """A dev or test word could not be covered by the train split."""


SUBJECTS = ("man", "woman")
SUBJECT_ADJS = ("skillful",)
FOOD_VERBS = ("cooks", "prepares", "bakes")
FOOD_OBJECTS = ("meal", "dinner", "sauce")
FOOD_ADJS = ("tasty",)
IT_VERBS = ("runs", "executes", "debugs")
IT_OBJECTS = ("program", "application", "software")
IT_ADJS = ("useful",)

VOCABULARY = frozenset(
    SUBJECTS + SUBJECT_ADJS + FOOD_VERBS + FOOD_OBJECTS + FOOD_ADJS
    + IT_VERBS + IT_OBJECTS + IT_ADJS
)

Sentence = tuple[str, ...]
Item = tuple[Sentence, int]


@dataclass(frozen=True)
class LabeledSet:
    name: str
    items: tuple[Item, ...]

    def __len__(self) -> int:
        return len(self.items)

    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(words for words, _ in self.items)

    def labels(self) -> tuple[int, ...]:
        return tuple(label for _, label in self.items)

    @cached_property
    def label_array(self) -> np.ndarray:
        """:meth:`labels` as a read-only int array, built on first use."""
        labels = np.array(self.labels(), dtype=np.intp)
        labels.flags.writeable = False
        return labels

    def vocabulary(self) -> frozenset[str]:
        return frozenset(w for words, _ in self.items for w in words)


@dataclass(frozen=True)
class CorpusSplits:
    train: LabeledSet
    dev: LabeledSet
    test: LabeledSet

    def __iter__(self):
        return iter((self.train, self.dev, self.test))


def default_lexicon() -> Lexicon:
    """The lexicon bundled with the generated corpus."""
    ref = resources.files("qnlp").joinpath("data/mc_lexicon.tsv")
    with resources.as_file(ref) as path:
        return Lexicon.load(path)


def _topic_pool(verbs, objects, obj_adjs) -> list[Sentence]:
    pool: list[Sentence] = []
    for subj in SUBJECTS:
        for verb in verbs:
            for obj in objects:
                for subj_adj in (None,) + SUBJECT_ADJS:
                    for obj_adj in (None,) + obj_adjs:
                        words = []
                        if subj_adj:
                            words.append(subj_adj)
                        words.append(subj)
                        words.append(verb)
                        if obj_adj:
                            words.append(obj_adj)
                        words.append(obj)
                        pool.append(tuple(words))
    return pool


def food_pool() -> list[Sentence]:
    return _topic_pool(FOOD_VERBS, FOOD_OBJECTS, FOOD_ADJS)


def it_pool() -> list[Sentence]:
    return _topic_pool(IT_VERBS, IT_OBJECTS, IT_ADJS)


def _ensure_closure(
    train: list[Item], others: list[list[Item]]
) -> None:
    """Swap sentences between splits until dev/test vocab is in train.

    The swap partner must keep every train word covered; each pass fixes
    one missing word, deterministically.  In practice the generated splits
    are already closed and this is a no-op.
    """
    for _ in range(64):
        train_vocab = set(w for words, _ in train for w in words)
        missing = None
        for other in others:
            for words, _ in other:
                for w in words:
                    if w not in train_vocab:
                        missing = w
                        break
                if missing:
                    break
            if missing:
                break
        if missing is None:
            return
        fixed = False
        for other in others:
            for i, (words, label) in enumerate(other):
                if missing not in words:
                    continue
                for j, (twords, tlabel) in enumerate(train):
                    if tlabel != label:
                        continue
                    counts: dict[str, int] = {}
                    for ws, _ in train:
                        for w in ws:
                            counts[w] = counts.get(w, 0) + 1
                    if all(counts[w] > 1 for w in twords):
                        train[j], other[i] = other[i], train[j]
                        fixed = True
                        break
                if fixed:
                    break
            if fixed:
                break
        if not fixed:
            raise VocabularyLeak(
                f"cannot cover word {missing!r} in the train split"
            )
    raise VocabularyLeak("vocabulary closure did not converge")


def generate_mc(seed: int, sizes: tuple[int, int, int] = (70, 30, 30)) -> CorpusSplits:
    """Deterministic label-balanced train/dev/test splits.

    Each split takes half its sentences from each topic, so sizes must be
    even; per topic at most 72 sentences exist across all three splits.
    """
    if len(sizes) != 3:
        raise ConfigError("sizes must be (train, dev, test)")
    if any(n <= 0 or n % 2 for n in sizes):
        raise ConfigError(f"split sizes must be positive and even, got {sizes}")
    per_topic = sum(sizes) // 2
    if per_topic > 72:
        raise ConfigError(
            f"need {per_topic} sentences per topic, only 72 exist"
        )
    rng = np.random.default_rng(seed)
    food = food_pool()
    it = it_pool()
    food_order = [food[i] for i in rng.permutation(len(food))]
    it_order = [it[i] for i in rng.permutation(len(it))]

    splits: list[list[Item]] = []
    f = i = 0
    for n in sizes:
        half = n // 2
        items: list[Item] = []
        items.extend((words, 1) for words in food_order[f : f + half])
        items.extend((words, 0) for words in it_order[i : i + half])
        f += half
        i += half
        # interleave labels deterministically rather than blockwise
        perm = rng.permutation(len(items))
        splits.append([items[k] for k in perm])

    _ensure_closure(splits[0], [splits[1], splits[2]])
    return CorpusSplits(
        train=LabeledSet("train", tuple(splits[0])),
        dev=LabeledSet("dev", tuple(splits[1])),
        test=LabeledSet("test", tuple(splits[2])),
    )


def load_tsv(path: str | Path, name: str | None = None) -> LabeledSet:
    """Read ``label<TAB>sentence`` lines; blank lines are skipped."""
    items: list[Item] = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(f"{path}:{lineno}: expected 'label<TAB>sentence'")
        label_text, sentence = parts
        if label_text not in ("0", "1"):
            raise MalformedLine(
                f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}"
            )
        words = tuple(sentence.split())
        if not words:
            raise MalformedLine(f"{path}:{lineno}: empty sentence")
        items.append((words, int(label_text)))
    return LabeledSet(name or Path(path).stem, tuple(items))


def dump_tsv(data: LabeledSet, path: str | Path) -> None:
    lines = [f"{label}\t{' '.join(words)}" for words, label in data.items]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
