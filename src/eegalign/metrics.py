"""Zero-shot retrieval metrics over a similarity matrix.

Queries index rows and candidates index columns. The matched candidate
for query i is column i (the diagonal), so retrieval here is always
over a square matrix. Ranking sorts candidates by descending score with
ties broken by lower candidate index, which keeps every metric
deterministic no matter how degenerate the scores are.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError


def _as_square_array(sim) -> np.ndarray:
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.shape}")
    return s


def retrieval_ranks(sim) -> np.ndarray:
    """1-indexed rank of the diagonal candidate for every query.

    rank = 1 + (# candidates scoring strictly higher) + (# candidates
    tied with a lower index), so a query whose match wins outright gets
    rank 1 and ties resolve without randomness.
    """
    s = _as_square_array(sim)
    n = s.shape[0]
    diag = np.diag(s)[:, None]
    cols = np.arange(n)[None, :]
    rows = np.arange(n)[:, None]
    greater = (s > diag).sum(axis=1)
    tied_lower = ((s == diag) & (cols < rows)).sum(axis=1)
    return (1 + greater + tied_lower).astype(np.int64)


def _topk_from_ranks(ranks: np.ndarray, ks) -> dict[int, float]:
    n = len(ranks)
    ks = [int(k) for k in ks]
    for k in ks:
        if not 1 <= k <= n:
            raise DomainError(f"k must lie in [1, {n}], got {k}")
    return {k: float(np.mean(ranks <= k)) for k in ks}


def _map_from_ranks(ranks: np.ndarray) -> float:
    """mAP with the diagonal as each query's sole relevant candidate: mean 1/rank."""
    return float(np.mean(1.0 / ranks))


def mean_average_precision(sim, relevance=None) -> float:
    """Mean over queries of the average precision of the ranked list.

    With no relevance mask the diagonal is the sole relevant candidate
    and each query's AP reduces to 1/rank. A boolean mask with multiple
    relevant candidates per row uses the general ranked-precision sum,
    normalized per query by its relevant count so AP stays in [0, 1].
    """
    s = _as_square_array(sim)
    n = s.shape[0]
    if relevance is None:
        return _map_from_ranks(retrieval_ranks(s))
    rel = np.asarray(relevance, dtype=bool)
    if rel.shape != s.shape:
        raise DimensionError(f"relevance mask shape {rel.shape} does not match similarity {s.shape}")
    if not rel.any(axis=1).all():
        raise DomainError("every query needs at least one relevant candidate")
    idx = np.arange(n)
    positions = np.arange(1, n + 1, dtype=np.float64)
    ap = np.empty(n)
    for i in range(n):
        order = np.lexsort((idx, -s[i]))
        rel_sorted = rel[i, order].astype(np.float64)
        precision_at = np.cumsum(rel_sorted) / positions
        ap[i] = float((precision_at * rel_sorted).sum() / rel_sorted.sum())
    return float(ap.mean())


@dataclass
class RetrievalReport:
    """Bundle of retrieval results for one evaluation pass."""

    top_k: dict[int, float]
    map_score: float
    ranks: np.ndarray
    similarity_path: str | None = None

    def check_invariants(self) -> None:
        """Raise unless the report satisfies its structural guarantees."""
        ks = sorted(self.top_k)
        accs = [self.top_k[k] for k in ks]
        for a, b in zip(accs, accs[1:]):
            if b < a:
                raise ContractError(f"top-k accuracy decreased with k: {dict(zip(ks, accs))}")
        n = len(self.ranks)
        if n in self.top_k and self.top_k[n] != 1.0:
            raise ContractError(f"top-{n} over {n} candidates must be 1.0, got {self.top_k[n]}")
        top1 = self.top_k.get(1, 0.0)
        if not top1 - 1e-12 <= self.map_score <= 1.0 + 1e-12:
            raise ContractError(f"mAP {self.map_score} outside [top-1, 1] = [{top1}, 1]")

    def to_json_dict(self) -> dict:
        return {
            "top_k": {str(k): v for k, v in sorted(self.top_k.items())},
            "mAP": self.map_score,
            "ranks": [int(r) for r in self.ranks],
            "similarity_path": self.similarity_path,
        }


def build_report(sim, ks) -> RetrievalReport:
    """Compute ranks once, then top-k accuracies and mAP from them."""
    ranks = retrieval_ranks(sim)
    report = RetrievalReport(
        top_k=_topk_from_ranks(ranks, ks),
        map_score=_map_from_ranks(ranks),
        ranks=ranks,
    )
    report.check_invariants()
    return report


def write_similarity_csv(fh, sim) -> None:
    """Write the matrix to a binary handle as CSV with full float64 round-trip precision."""
    s = np.asarray(sim, dtype=np.float64)
    if s.ndim != 2:
        raise DimensionError(f"similarity matrix must be 2-d, got {s.shape}")
    np.savetxt(fh, s, delimiter=",", fmt="%.17g")
