"""Threshold-free and thresholded evaluation, and the score file format.

AUC is the rank statistic (probability a random positive outscores a
random negative, ties half-weighted). EER sweeps every decision
threshold with accept defined as score >= threshold and linearly
interpolates between the two operating points where the false-accept
and false-reject rates cross.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, NonFiniteValue

SCORES_HEADER = "score,label"


@dataclass(frozen=True)
class ScoredSet:
    """Parallel score and binary label arrays; every score is finite."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels)
        if scores.ndim != 1 or labels.shape != scores.shape:
            raise ValueError(
                f"scores {scores.shape} and labels {labels.shape} must be"
                " equal-length vectors"
            )
        if labels.size and not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        bad = int(np.sum(~np.isfinite(scores)))
        if bad:
            raise NonFiniteValue(f"{bad} of {scores.size} scores are not finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def size(self) -> int:
        return self.scores.shape[0]

    def require_both_classes(self):
        if not np.any(self.labels == 1) or not np.any(self.labels == 0):
            raise DegenerateLabels("need at least one positive and one negative")


def auc(scored: ScoredSet) -> float:
    """Mann-Whitney U over P * N; ties count one half.

    U counts, for each positive, the negatives below it plus half those
    equal to it. Every count is an exact integer, so the result equals the
    tie-averaged rank formula (scipy.stats.rankdata's) bit for bit.
    """
    scored.require_both_classes()
    pos = np.sort(scored.scores[scored.labels == 1])
    neg = np.sort(scored.scores[scored.labels == 0])
    twice_u = (np.searchsorted(neg, pos, side="left")
               + np.searchsorted(neg, pos, side="right")).sum()
    return float(twice_u / 2 / (pos.shape[0] * neg.shape[0]))


def eer(scored: ScoredSet) -> float:
    """Rate at the crossing of false-accept and false-reject rates.

    FAR and FRR are taken at every distinct score and at +inf, with
    accept meaning score >= threshold. Thresholds ascend, so FAR falls
    from 1 to 0 while FRR climbs from 0 to 1.
    """
    scored.require_both_classes()
    thresholds = np.concatenate([np.unique(scored.scores), [np.inf]])
    pos = np.sort(scored.scores[scored.labels == 1])
    neg = np.sort(scored.scores[scored.labels == 0])
    far = 1.0 - np.searchsorted(neg, thresholds, side="left") / neg.shape[0]
    frr = np.searchsorted(pos, thresholds, side="left") / pos.shape[0]
    gap = frr - far
    crossing = int(np.searchsorted(gap >= 0.0, True))
    if gap[crossing] == 0.0:
        return float(far[crossing])
    j = crossing - 1
    span = gap[j + 1] - gap[j]
    fraction = -gap[j] / span
    return float(far[j] + fraction * (far[j + 1] - far[j]))


def f1_at(scored: ScoredSet, threshold: float) -> float:
    """F1 with accept defined as score >= threshold; 0 when P + R = 0."""
    if scored.size == 0:
        raise ValueError("cannot compute F1 of an empty set")
    predicted = scored.scores >= threshold
    tp = int(np.sum(predicted & (scored.labels == 1)))
    fp = int(np.sum(predicted & (scored.labels == 0)))
    fn = int(np.sum(~predicted & (scored.labels == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def write_scores(path, scored: ScoredSet) -> None:
    lines = [SCORES_HEADER]
    for score, label in zip(scored.scores, scored.labels):
        lines.append(f"{float(score)!r},{int(label)}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
