"""Continual-evaluation metrics: the session matrix, AP and FG.

The matrix stores a[i][j], the test performance on session i after
training through session j, for i <= j. Average performance is the mean
of the final column; average forgetting is the mean over earlier sessions
of the peak drop from any intermediate checkpoint to the final one (it can
go negative when later training helps earlier sessions).
"""

from __future__ import annotations

import numpy as np


class EvalMatrix:
    def __init__(self, num_sessions: int):
        if num_sessions < 1:
            raise ValueError("need at least one session")
        self.t = num_sessions
        self.values = np.full((num_sessions, num_sessions), np.nan)

    def set(self, i: int, j: int, value: float):
        if i > j:
            raise ValueError(f"entry ({i}, {j}) below the diagonal is undefined")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"performance {value} outside [0, 1]")
        self.values[i, j] = value

    @property
    def complete(self) -> bool:
        return not np.isnan(self.values[:, self.t - 1]).any()

    def rows(self) -> list[list[float]]:
        """Row i as the values a[i][i..T-1]."""
        return [[float(v) for v in self.values[i, i:]] for i in range(self.t)]

    def to_lists(self) -> list[list[float | None]]:
        out = []
        for i in range(self.t):
            out.append([None if np.isnan(v) else float(v) for v in self.values[i]])
        return out

    @classmethod
    def from_lists(cls, rows: list[list[float | None]]) -> "EvalMatrix":
        m = cls(len(rows))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v is not None:
                    m.values[i, j] = v
        return m


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


def average_performance(matrix: EvalMatrix) -> float:
    """Mean of the last column: performance on every session after the final one."""
    if not matrix.complete:
        raise ValueError("average performance needs a complete matrix")
    last = matrix.values[:, matrix.t - 1]
    return float(last.mean())


def average_forgetting(matrix: EvalMatrix) -> float:
    """Mean peak drop from any intermediate checkpoint to the final one."""
    if matrix.t < 2:
        raise ValueError("forgetting is undefined for fewer than two sessions")
    if not matrix.complete:
        raise ValueError("average forgetting needs a complete matrix")
    t = matrix.t
    drops = []
    for i in range(t - 1):
        peak = matrix.values[i, i:t - 1].max()
        drops.append(peak - matrix.values[i, t - 1])
    return float(np.mean(drops))
