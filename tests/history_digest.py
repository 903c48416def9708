"""Print one SHA-256 over the training histories of a fixed set of fits.

For each of ``generate_mc(0)``, ``generate_mc(1)`` and ``generate_mc(2)``
it trains the golden cases (``make_golden.cases()``) and the ``tensor``,
``mps`` and ``spider`` lowerings under SPSA on both rewrite schemes, 84
fits of ``make_golden.EPOCHS`` epochs at seed 0.  The hash covers each
fit's name, per-epoch losses and accuracies, test accuracy, degenerate
count and final parameters, all as float64 bytes.  Two trees whose
training arithmetic is the same to the last bit print the same digest;
tensor-family SPSA, which amplifies any last-bit difference, is why the
digest asks for bits rather than the golden test's 1e-9.

Run as ``PYTHONPATH=src python tests/history_digest.py``.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from make_golden import EPOCHS, OPTIMIZERS, SCHEMES, cases
from qnlp.corpus import default_lexicon, generate_mc
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig
from qnlp.training import CircuitModel, TensorModel, TrainConfig, fit


def fits() -> list[tuple[str, str, object, object, str]]:
    """Per fit its name, backend, ansatz config, scheme and optimizer."""
    spsa = [(f"tensor/{kind.value}/{scheme.value}/spsa", "tensor", TensorAnsatzConfig(kind),
             scheme, "spsa") for scheme in SCHEMES for kind in TensorAnsatz]
    return cases() + spsa


def main() -> int:
    lexicon, digest, count = default_lexicon(), hashlib.sha256(), 0
    for corpus_seed in (0, 1, 2):
        splits = generate_mc(corpus_seed)
        for name, backend, cfg, scheme, optimizer in fits():
            model = (CircuitModel if backend == "circuit" else TensorModel).build(
                splits, lexicon, scheme, cfg)
            h = fit(model, splits, TrainConfig(EPOCHS, 0, OPTIMIZERS[optimizer]))
            digest.update(f"{corpus_seed}/{name}".encode())
            for part in (h.train_loss, h.val_loss, h.train_acc, h.val_acc,
                         [h.test_acc, h.degenerate_evals], h.final_params):
                digest.update(np.asarray(part, dtype=np.float64).tobytes())
            count += 1
    print(f"history digest over {count} fits: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
