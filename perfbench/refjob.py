"""Reference job: a fixed piece of work that the benchmark times next to every stage.

It does in small what the pipeline stages do after their imports: format
and parse a text matrix (like ``dataio``), run a loop of small array
operations (like the fusion solver) and reduce a broadcast difference (like
``curation``'s similarity matrix). It never touches the program, so its time
moves only with the machine's speed, and a stage's time divided by it is the
stage's cost in reference jobs. On a shared host whose speed drifts by tens
of percent within seconds, that ratio repeats far better than the stage's
wall time. Like a stage launched by ``run.py``, it reports the seconds of its
work, start-up and imports excluded, on its last line of standard error.

    python3 perfbench/refjob.py
"""

import sys
import time

import numpy as np

PARSE_ROWS, DIM = 300, 128
LOOP_ROWS, LOOP_COLS, LOOP_STEPS = 2000, 26, 800
PAIRS_A, PAIRS_B, DIFFS = 40, 200, 12


def work() -> float:
    rng = np.random.default_rng(0)
    text = "\n".join(" ".join(repr(float(x)) for x in row) for row in rng.standard_normal((PARSE_ROWS, DIM)))
    parsed = np.array([line.split() for line in text.splitlines()], dtype=np.float64)

    features = rng.standard_normal((LOOP_ROWS, LOOP_COLS))
    labels = rng.random(LOOP_ROWS) < 0.5
    weights = np.zeros(LOOP_COLS)
    for _ in range(LOOP_STEPS):
        residual = 1.0 / (1.0 + np.exp(-(features @ weights))) - labels
        weights -= 0.1 * (features.T @ residual) / LOOP_ROWS

    total = float(weights.sum())
    a, b = parsed[:PAIRS_A, None, :], rng.standard_normal((1, PAIRS_B, DIM))
    for _ in range(DIFFS):
        total += float(np.sqrt(((a - b) ** 2).sum(axis=-1)).sum())
    return total


def main() -> None:
    start = time.perf_counter()
    if not np.isfinite(work()):
        raise SystemExit("reference job: non-finite result")
    sys.stderr.write(f"\nperfbench-seconds {time.perf_counter() - start!r}\n")


if __name__ == "__main__":
    main()
