"""Training histories equal the committed ones (``tests/data/golden.json``).

Rounding moves these histories by at most about 1e-12 (one-ulp changes of
the initial parameters), so losses and parameters are compared within
1e-9 and accuracies exactly; any change to the arithmetic of training
beyond rounding fails here.  ``tests/make_golden.py`` writes the file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from make_golden import EPOCHS, PATH, cases, history

GOLDEN = json.loads(PATH.read_text())
CASES = {name: case for name, *case in cases()}


def test_every_case_is_recorded():
    assert GOLDEN["epochs"] == EPOCHS
    assert list(GOLDEN["histories"]) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_history_matches_golden(name):
    got, want = history(*CASES[name]), GOLDEN["histories"][name]
    for key in ("train_loss", "val_loss", "final_params"):
        np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-9, err_msg=key)
    for key in ("train_acc", "val_acc", "test_acc"):
        assert got[key] == want[key], key
