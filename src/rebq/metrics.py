"""Continual-evaluation metrics: performance, AP and FG over the session matrix.

The session matrix is the report's list of lists: matrix[i][j] is the test
performance on session i after training through session j, set for i <= j
and None below the diagonal. With T sessions and a = matrix,

    AP = (1/T) sum_{i<T} a[i][T-1]
    FG = (1/(T-1)) sum_{i<T-1} (max_{i<=z<T-1} a[i][z] - a[i][T-1])

so AP is the mean of the final column and FG the mean peak-to-final drop
of every earlier session (negative when later training helps it).
"""

from __future__ import annotations

import numpy as np


def performance(predictions: list, truths: list, mode: str) -> float:
    """Accuracy for single-label lists, macro-F1 for multi-label lists."""
    if len(predictions) != len(truths):
        raise ValueError("prediction/label lists differ in length")
    if not predictions:
        raise ValueError("cannot score an empty list")
    if mode == "accuracy":
        return sum(int(p == t) for p, t in zip(predictions, truths)) / len(truths)
    if mode != "f1_macro":
        raise ValueError(f"unknown performance mode {mode!r}")
    classes = sorted({c for labels in predictions for c in labels}
                     | {c for labels in truths for c in labels})
    if not classes:
        return 0.0
    f1s = []
    for c in classes:
        tp = sum(1 for p, t in zip(predictions, truths) if c in p and c in t)
        fp = sum(1 for p, t in zip(predictions, truths) if c in p and c not in t)
        fn = sum(1 for p, t in zip(predictions, truths) if c not in p and c in t)
        denom = 2 * tp + fp + fn
        f1s.append(0.0 if denom == 0 else 2 * tp / denom)
    return float(np.mean(f1s))


def _final_column(matrix: list[list[float | None]]) -> list[float]:
    last = [row[-1] for row in matrix]
    if None in last:
        raise ValueError("AP and FG need a complete final column")
    return last


def average_performance(matrix: list[list[float | None]]) -> float:
    """Mean of the last column: performance on every session after the final one."""
    return float(np.mean(_final_column(matrix)))


def average_forgetting(matrix: list[list[float | None]]) -> float:
    """Mean peak drop from any intermediate checkpoint to the final one."""
    t = len(matrix)
    if t < 2:
        raise ValueError("forgetting is undefined for fewer than two sessions")
    last = _final_column(matrix)
    return float(np.mean([max(matrix[i][i:t - 1]) - last[i] for i in range(t - 1)]))


def ap_fg(matrix: list[list[float | None]]) -> tuple[float, float | None]:
    """(AP, FG) of a session matrix; FG is None for a single session."""
    return average_performance(matrix), (average_forgetting(matrix) if len(matrix) > 1 else None)
