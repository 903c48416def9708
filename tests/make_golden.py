"""Write ``tests/data/golden.json``: training histories that later changes
must reproduce.

Each case trains 30 epochs on ``generate_mc(0)`` at seed 0 and records its
per-epoch losses and accuracies, test accuracy and final parameters:

* every circuit ansatz under both rewrite schemes, SPSA and adaptive GD,
  at one layer and two rotations;
* the ``tensor``, ``mps`` and ``spider`` lowerings under both schemes and
  adaptive GD.

Tensor-family SPSA is left out: its histories amplify last-bit differences
in the parameters, so no tolerance pins them.

Run as ``PYTHONPATH=src python tests/make_golden.py``.  It refuses to
overwrite an existing file; a change that moves histories on purpose
deletes the file and regenerates it, and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from qnlp.circuit import CircuitAnsatz, CircuitAnsatzConfig
from qnlp.corpus import default_lexicon, generate_mc
from qnlp.rewrite import RewriteScheme
from qnlp.tensornet import TensorAnsatz, TensorAnsatzConfig
from qnlp.training import AdaptiveGDConfig, CircuitModel, SPSAConfig, TensorModel, TrainConfig, fit

PATH = Path(__file__).resolve().parent / "data" / "golden.json"
EPOCHS = 30
OPTIMIZERS = {"spsa": SPSAConfig(), "adaptive_gd": AdaptiveGDConfig()}
SCHEMES = (RewriteScheme.RE, RewriteScheme.RE_NORM_CUR_NORM)


def cases() -> list[tuple[str, str, object, RewriteScheme, str]]:
    """Per case its name, backend, ansatz config, scheme and optimizer."""
    out = []
    for scheme in SCHEMES:
        for kind in CircuitAnsatz:
            for optimizer in OPTIMIZERS:
                out.append(("circuit", CircuitAnsatzConfig(kind, 1, 2), scheme, optimizer))
        for kind in TensorAnsatz:
            out.append(("tensor", TensorAnsatzConfig(kind), scheme, "adaptive_gd"))
    return [("/".join([backend, cfg.kind.value, scheme.value]
                      + ["L1", "r2"] * (backend == "circuit") + [optimizer]),
             backend, cfg, scheme, optimizer) for backend, cfg, scheme, optimizer in out]


def history(backend: str, cfg, scheme: RewriteScheme, optimizer: str) -> dict:
    splits, lexicon = generate_mc(0), default_lexicon()
    model = (CircuitModel if backend == "circuit" else TensorModel).build(
        splits, lexicon, scheme, cfg)
    h = fit(model, splits, TrainConfig(EPOCHS, 0, OPTIMIZERS[optimizer]))
    return {"train_loss": h.train_loss, "val_loss": h.val_loss, "train_acc": h.train_acc,
            "val_acc": h.val_acc, "test_acc": h.test_acc,
            "final_params": h.final_params.tolist()}


def main() -> int:
    if PATH.exists():
        print(f"{PATH} exists; delete it first to regenerate", file=sys.stderr)
        return 1
    golden = {name: history(*case) for name, *case in cases()}
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps({"epochs": EPOCHS, "histories": golden}, indent=1) + "\n")
    print(f"wrote {len(golden)} histories to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
