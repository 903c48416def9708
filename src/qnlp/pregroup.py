"""Pregroup type algebra, lexicon handling, and the sentence parser.

A word carries a pregroup type: a sequence of simple types, each a base
(``n`` for noun phrases, ``s`` for sentences) together with an integer
adjoint order ``z``.  Negative ``z`` counts left adjoints, positive ``z``
right adjoints, so ``n.l`` is ``(n, -1)`` and ``n.r.r`` is ``(n, +2)``.
Two neighbouring simple types ``t, u`` cancel exactly when they share a base
and ``u.z == t.z + 1``; this single rule covers both ``t . t.r`` and
``t.l . t`` cancellations.

A sentence is grammatical when the concatenation of its word types can be
cancelled down to the target type (``s`` by default).  ``reduce_types``
finds such a cancellation as a planar set of cups over the flattened
simple-type sequence, and ``parse_sentence`` lifts the result to a string
diagram with one box per word.

Type expressions in lexicon files use the compact syntax ``n.r@s@n.l``:
``@`` concatenates simple types and ``.l`` / ``.r`` suffixes apply adjoints.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from qnlp.errors import Error


class LexiconError(Error):
    """A lexicon file line could not be parsed."""


class UnknownWord(Error):
    """A sentence word has no lexicon entry."""


class NoReduction(Error):
    """No planar cancellation of the type sequence reaches the target type."""


class Base(enum.Enum):
    """Base of a simple type."""

    N = "n"
    S = "s"


_SIMPLE_RE = re.compile(r"([ns])((?:\.[lr])*)")


@dataclass(frozen=True)
class SimpleType:
    """A base together with its integer adjoint order."""

    base: Base
    z: int = 0

    @property
    def l(self) -> "SimpleType":
        return SimpleType(self.base, self.z - 1)

    @property
    def r(self) -> "SimpleType":
        return SimpleType(self.base, self.z + 1)

    def is_plain(self) -> bool:
        return self.z == 0

    def __str__(self) -> str:
        suffix = ".l" * (-self.z) if self.z < 0 else ".r" * self.z
        return self.base.value + suffix

    @classmethod
    def parse(cls, expr: str) -> "SimpleType":
        m = _SIMPLE_RE.fullmatch(expr.strip())
        if m is None:
            raise LexiconError(f"bad simple type expression: {expr!r}")
        z = m.group(2).count(".r") - m.group(2).count(".l")
        return cls(Base(m.group(1)), z)


def contractible(t: SimpleType, u: SimpleType) -> bool:
    """True when ``t`` immediately followed by ``u`` cancels to the unit."""
    return t.base == u.base and u.z == t.z + 1


@dataclass(frozen=True)
class PregroupType:
    """A finite sequence of simple types; the empty sequence is the unit."""

    simples: tuple[SimpleType, ...] = ()

    def __iter__(self) -> Iterator[SimpleType]:
        return iter(self.simples)

    def __len__(self) -> int:
        return len(self.simples)

    def __getitem__(self, i: int) -> SimpleType:
        return self.simples[i]

    def __add__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self.simples + other.simples)

    def __bool__(self) -> bool:
        return bool(self.simples)

    @property
    def l(self) -> "PregroupType":
        # (a . b).l == b.l . a.l, hence the reversal.
        return PregroupType(tuple(t.l for t in reversed(self.simples)))

    @property
    def r(self) -> "PregroupType":
        return PregroupType(tuple(t.r for t in reversed(self.simples)))

    def __str__(self) -> str:
        return "@".join(str(t) for t in self.simples)

    @classmethod
    def parse(cls, expr: str) -> "PregroupType":
        expr = expr.strip()
        if not expr:
            return cls(())
        return cls(tuple(SimpleType.parse(tok) for tok in expr.split("@")))


def ty(expr: str) -> PregroupType:
    """Shorthand constructor: ``ty("n.r@s@n.l")``."""
    return PregroupType.parse(expr)


N = SimpleType(Base.N)
S = SimpleType(Base.S)
SENTENCE = PregroupType((S,))
NOUN = PregroupType((N,))


class Lexicon:
    """Word to pregroup-type assignments with case-normalized lookup.

    A word may have several candidate types; their order is the preference
    order used by the parser's backtracking.
    """

    def __init__(self, entries: Mapping[str, Sequence[PregroupType]]):
        self._entries: dict[str, tuple[PregroupType, ...]] = {
            word.lower(): tuple(types) for word, types in entries.items()
        }

    @classmethod
    def from_expressions(cls, entries: Mapping[str, str | Sequence[str]]) -> "Lexicon":
        built: dict[str, tuple[PregroupType, ...]] = {}
        for word, exprs in entries.items():
            if isinstance(exprs, str):
                exprs = [exprs]
            built[word.lower()] = tuple(PregroupType.parse(e) for e in exprs)
        return cls(built)

    def lookup(self, word: str) -> tuple[PregroupType, ...]:
        try:
            return self._entries[word.lower()]
        except KeyError:
            raise UnknownWord(f"word not in lexicon: {word!r}") from None

    def words(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Read a tab-separated lexicon file.

        One entry per line, ``word<TAB>type-expression``.  Blank lines and
        lines starting with ``#`` are skipped.  A word listed on several
        lines accumulates candidate types in file order.
        """
        entries: dict[str, list[PregroupType]] = {}
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip():
                raise LexiconError(f"{path}:{lineno}: expected 'word<TAB>type'")
            try:
                parsed = PregroupType.parse(parts[1])
            except LexiconError as exc:
                raise LexiconError(f"{path}:{lineno}: {exc}") from None
            if not parsed:
                raise LexiconError(f"{path}:{lineno}: empty type expression")
            entries.setdefault(parts[0].strip().lower(), []).append(parsed)
        return cls(entries)

    def dump(self, path: str | Path) -> None:
        lines = []
        for word in sorted(self._entries):
            for t in self._entries[word]:
                lines.append(f"{word}\t{t}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ReductionWitness:
    """A planar cancellation of a simple-type sequence.

    ``cups`` are index pairs into the flattened sequence, ``residual`` the
    indices that survive; their types concatenate to the target type.
    """

    cups: tuple[tuple[int, int], ...]
    residual: tuple[int, ...]


def reduce_types(
    ts: Sequence[SimpleType], target: PregroupType
) -> ReductionWitness:
    """Find a planar cancellation of ``ts`` down to ``target``.

    Shift-reduce scan over the sequence: the stack holds indices of not yet
    cancelled types; at each new index the contraction with the stack top is
    tried before the shift, so the first witness found cancels as early
    (leftmost) as possible.  Raises :class:`NoReduction` when no witness
    exists.

    The stack discipline makes every witness planar by construction: cups
    neither cross each other nor span a surviving wire.
    """
    ts = tuple(ts)
    target_ts = tuple(target)
    # Failure states keyed by (position, stack type profile): a failed state
    # fails for every index layout, so this prunes without losing the first
    # witness in preference order.
    dead: set[tuple[int, tuple[SimpleType, ...]]] = set()

    def dfs(
        pos: int, stack: tuple[int, ...], cups: tuple[tuple[int, int], ...]
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]] | None:
        if pos == len(ts):
            if tuple(ts[i] for i in stack) == target_ts:
                return cups, stack
            return None
        profile = (pos, tuple(ts[i] for i in stack))
        if profile in dead:
            return None
        if stack and contractible(ts[stack[-1]], ts[pos]):
            found = dfs(pos + 1, stack[:-1], cups + ((stack[-1], pos),))
            if found is not None:
                return found
        found = dfs(pos + 1, stack + (pos,), cups)
        if found is None:
            dead.add(profile)
        return found

    result = dfs(0, (), ())
    if result is None:
        seq = " ".join(str(t) for t in ts)
        raise NoReduction(f"cannot reduce [{seq}] to [{target}]")
    cups, residual = result
    return ReductionWitness(cups, residual)


def parse_sentence(
    words: Sequence[str],
    lexicon: Lexicon,
    target: PregroupType | None = None,
):
    """Parse a sentence into a string diagram.

    Words are looked up in the lexicon (case-normalized; box names keep the
    normalized form so that equal words share parameters later on).  Lexical
    ambiguity is resolved by the first type combination, in lexicon order,
    whose flattened sequence reduces to the target.

    Returns a :class:`qnlp.diagram.Diagram` with one box per word, a wire
    per simple type, cups from the reduction witness, and the residual wires
    as open outputs.
    """
    import itertools

    # Imported here so the diagram module can import this one at load time.
    from qnlp import diagram as _diagram

    if target is None:
        target = SENTENCE
    names = [w.lower() for w in words]
    options = [lexicon.lookup(w) for w in names]
    last_error: NoReduction | None = None
    for combo in itertools.product(*options):
        flat = [t for word_type in combo for t in word_type]
        try:
            witness = reduce_types(flat, target)
        except NoReduction as exc:
            last_error = exc
            continue
        return _build_diagram(names, combo, witness, _diagram)
    if last_error is not None and len(options) > 0:
        raise NoReduction(
            f"no lexicon type combination for {' '.join(names)!r} reduces to [{target}]"
        )
    raise NoReduction(f"empty sentence cannot reduce to [{target}]")


def _build_diagram(names, types, witness: ReductionWitness, _diagram):
    boxes = tuple(
        _diagram.Box(name, PregroupType(()), t, _diagram.BoxKind.WORD)
        for name, t in zip(names, types)
    )
    # Flat index -> (box, cod leg).
    producer_of: list[tuple[int, int]] = []
    for b, t in enumerate(types):
        for leg in range(len(t)):
            producer_of.append((b, leg))
    flat = [t for word_type in types for t in word_type]

    consumer_of: dict[int, "_diagram.Port"] = {}
    for c, (i, j) in enumerate(witness.cups):
        consumer_of[i] = _diagram.Port("cup", c, 0)
        consumer_of[j] = _diagram.Port("cup", c, 1)
    for out_pos, i in enumerate(witness.residual):
        consumer_of[i] = _diagram.Port("out", out_pos, 0)

    wires = tuple(
        _diagram.Wire(
            flat[f],
            _diagram.Port("box", producer_of[f][0], producer_of[f][1]),
            consumer_of[f],
        )
        for f in range(len(flat))
    )
    return _diagram.Diagram(
        boxes=boxes,
        wires=wires,
        n_cups=len(witness.cups),
        n_caps=0,
        n_outputs=len(witness.residual),
    )
