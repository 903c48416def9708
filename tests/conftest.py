from __future__ import annotations

import numpy as np
import pytest

from qnlp.corpus import default_lexicon, food_pool, it_pool
from qnlp.diagram import Box, Diagram, Port, Wire
from qnlp.pregroup import Lexicon, PregroupType, parse_sentence, ty


@pytest.fixture(scope="session")
def mc_lexicon() -> Lexicon:
    return default_lexicon()


@pytest.fixture(scope="session")
def toy_lexicon() -> Lexicon:
    return Lexicon.from_expressions(
        {
            "Alice": "n",
            "Bob": "n",
            "likes": "n.r@s@n.l",
            "old": "n@n.l",
        }
    )


@pytest.fixture(scope="session")
def corpus_sentences() -> list[tuple[str, ...]]:
    """Every distinct sentence the generator can emit, both topics."""
    return list(food_pool()) + list(it_pool())


@pytest.fixture(scope="session")
def corpus_diagrams(corpus_sentences, mc_lexicon):
    return [parse_sentence(list(ws), mc_lexicon) for ws in corpus_sentences]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def output_past_boundary() -> Diagram:
    """Two states, an ``s`` wire to output 0 and an ``n`` wire to output 1,
    on a boundary of one output."""
    s, n = ty("s"), ty("n")
    boxes = (Box("a", PregroupType(()), s), Box("b", PregroupType(()), n))
    wires = (
        Wire(s[0], Port("box", 0, 0), Port("out", 0, 0)),
        Wire(n[0], Port("box", 1, 0), Port("out", 1, 0)),
    )
    return Diagram(boxes=boxes, wires=wires, n_cups=0, n_caps=0, n_outputs=1)
