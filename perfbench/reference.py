"""One-off reference run of the seven baseline configs in ROADMAP.md.

Not one of the checked workloads: it trains each config once for 120
epochs on the default corpus (``generate_mc(0)``, training seed 0) and
records fit wall time and test accuracy next to the ROADMAP table.  Takes
about two and a half minutes on a 2-core Xeon.  Run from the repository
root:

    python3 perfbench/reference.py --out perfbench/reference.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

from run import ROOT, SRC, machine_facts

sys.path.insert(0, str(SRC))

from qnlp import training  # noqa: E402
from workloads import FitSpec  # noqa: E402

EPOCHS = 120

# The ROADMAP table: config -> (params, fit wall s, test acc).  Each
# config trains once on generate_mc(0) with training seed 0.
BASELINE = (
    (FitSpec("circuit", "iqp", "re_norm_cur_norm", 1, EPOCHS, 2, "spsa"), 45, 10.4, 0.57),
    (FitSpec("circuit", "sim14", "re_norm_cur_norm", 1, EPOCHS, 2, "spsa"), 129, 14.5, 0.77),
    (FitSpec("circuit", "sim14", "re", 1, EPOCHS, 1, "spsa"), 120, 29.9, 0.57),
    (FitSpec("circuit", "iqp", "re_norm_cur_norm", 1, EPOCHS, 2), 45, 82.7, 1.00),
    (FitSpec("tensor", "tensor", "re_norm_cur_norm", 1, EPOCHS), 76, 1.9, 1.00),
    (FitSpec("tensor", "mps", "re", 1, EPOCHS), 124, 3.5, 1.00),
    (FitSpec("tensor", "spider", "re", 1, EPOCHS), 76, 2.8, 1.00),
)


def run_config(spec: FitSpec) -> dict:
    t = time.perf_counter()
    [case] = spec.cases(0)
    build_s = time.perf_counter() - t
    t = time.perf_counter()
    history = training.fit(case.model, case.splits, case.train)
    fit_s = time.perf_counter() - t
    return {
        "params": case.model.n_params,
        "build_s": build_s,
        "fit_wall_s": fit_s,
        "epochs_per_s": EPOCHS / fit_s,
        "test_acc": history.test_acc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = parser.parse_args(argv)
    rows = []
    for spec, params, wall, acc in BASELINE:
        measured = run_config(spec)
        rows.append({
            "config": spec.label,
            "roadmap": {"params": params, "fit_wall_s": wall, "test_acc": acc},
            "measured": measured,
        })
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    doc = {"facts": machine_facts(mode="reference", epochs=EPOCHS), "rows": rows}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out is not None:
        (ROOT / args.out if not args.out.is_absolute() else args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
