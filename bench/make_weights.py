"""Regenerate bench/toy_weights.pnw, the trained model the explain_shift
workload explains.

It is the acceptance-5 recipe: the `toy` config trained by seeded SGD on
2000 `mixed` scenes (dataset seed 11) for 30 epochs (training seed 3), with
one BLAS thread. The run takes about 270 s on one core, which is why the
result is committed instead of trained in every benchmark run.

    python3 bench/make_weights.py
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from visback.config import toy_config  # noqa: E402
from visback.training import TrainConfig, generate_dataset, train  # noqa: E402
from visback.weights import save_weights  # noqa: E402

WEIGHTS_PATH = HERE / "toy_weights.pnw"
DATASET_SEED = 11
TRAIN_SEED = 3
SCENES = 2000
EPOCHS = 30
ACCEPTANCE_5_RATIO = 0.25


def main() -> int:
    cfg = toy_config()
    dataset = generate_dataset(SCENES, style="mixed", seed=DATASET_SEED)
    weights, losses = train(cfg, TrainConfig(epochs=EPOCHS, seed=TRAIN_SEED), dataset)
    ratio = losses[-1] / dataset.label_variance()
    print(f"final loss {losses[-1]:.6g} = {ratio:.4f} of label variance")
    if not ratio < ACCEPTANCE_5_RATIO:
        print(f"loss ratio {ratio:.4f} misses the acceptance-5 bar {ACCEPTANCE_5_RATIO}", file=sys.stderr)
        return 1
    save_weights(weights, WEIGHTS_PATH)
    print(f"wrote {WEIGHTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
