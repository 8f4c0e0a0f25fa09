"""Retrieval metrics against sorting and definition oracles."""
import json

import numpy as np
import pytest

from eegalign import metrics
from eegalign.bundle import write_json
from eegalign.errors import ContractError, DimensionError, DomainError
from eegalign.metrics import (
    RetrievalReport,
    build_report,
    mean_average_precision,
    retrieval_ranks,
    write_similarity_csv,
)


def top_k(sim, ks):
    return build_report(sim, ks).top_k


def sort_oracle_ranks(s: np.ndarray) -> np.ndarray:
    """Rank of the diagonal via a full lexicographic sort per query."""
    n = s.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        order = np.lexsort((np.arange(n), -s[i]))
        ranks[i] = int(np.where(order == i)[0][0]) + 1
    return ranks


def definition_map_oracle(s: np.ndarray) -> float:
    """Literal ranked-precision summation with a diagonal relevance mask."""
    n = s.shape[0]
    ap = []
    for i in range(n):
        order = np.lexsort((np.arange(n), -s[i]))
        rel = (order == i).astype(float)
        precision = np.cumsum(rel) / np.arange(1, n + 1)
        ap.append(float((precision * rel).sum()))
    return float(np.mean(ap))


class TestRanks:
    def test_identity_dominant_ranks_first(self):
        s = np.eye(4)
        assert np.array_equal(retrieval_ranks(s), [1, 1, 1, 1])

    def test_ties_break_toward_lower_index(self):
        s = np.zeros((3, 3))
        assert np.array_equal(retrieval_ranks(s), [1, 2, 3])

    def test_matches_sort_oracle_on_random_matrices(self):
        for seed in range(3):
            s = np.random.default_rng(seed).normal(size=(50, 50))
            assert np.array_equal(retrieval_ranks(s), sort_oracle_ranks(s))

    def test_matches_sort_oracle_with_heavy_ties(self):
        rng = np.random.default_rng(7)
        s = rng.integers(0, 3, size=(30, 30)).astype(float)
        assert np.array_equal(retrieval_ranks(s), sort_oracle_ranks(s))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            retrieval_ranks(np.zeros((3, 4)))


class TestTopK:
    def test_identity_dominant_top1(self):
        assert top_k(np.eye(5), [1]) == {1: 1.0}

    def test_exhaustive_k_is_one(self):
        s = np.random.default_rng(0).normal(size=(6, 6))
        assert top_k(s, [6])[6] == 1.0

    def test_monotone_in_k(self):
        s = np.random.default_rng(1).normal(size=(40, 40))
        accs = top_k(s, list(range(1, 41)))
        values = [accs[k] for k in range(1, 41)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_matches_sort_oracle(self):
        s = np.random.default_rng(2).normal(size=(50, 50))
        ranks = sort_oracle_ranks(s)
        accs = top_k(s, [1, 5, 10])
        for k in (1, 5, 10):
            assert accs[k] == float(np.mean(ranks <= k))

    @pytest.mark.parametrize("k", [0, -1, 7])
    def test_out_of_range_k_rejected(self, k):
        with pytest.raises(DomainError):
            top_k(np.zeros((6, 6)), [k])


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        assert mean_average_precision(np.eye(4)) == 1.0

    def test_rank_two_everywhere_is_half(self):
        n = 6
        s = np.eye(n)
        for i in range(n):
            s[i, (i + 1) % n] = 2.0
        assert np.array_equal(retrieval_ranks(s), np.full(n, 2))
        assert mean_average_precision(s) == 0.5

    def test_matches_definition_oracle(self):
        for seed in range(3):
            s = np.random.default_rng(seed).normal(size=(40, 40))
            assert abs(mean_average_precision(s) - definition_map_oracle(s)) < 1e-12

    def test_single_relevant_equals_masked_general_form(self):
        s = np.random.default_rng(3).normal(size=(25, 25))
        assert abs(mean_average_precision(s) - mean_average_precision(s, np.eye(25, dtype=bool))) < 1e-15

    def test_multi_relevant_hand_case(self):
        # query 0 retrieves candidates in order 2, 0, 1; relevant {0, 2}
        # precisions at the two hits: 1/1 and 2/2 -> AP = 1
        # query 1 order 1, 2, 0 with relevant {0, 1}: hits at ranks 1, 3
        # -> AP = (1 + 2/3) / 2; query 2 order 2, 0, 1, relevant {2}: AP = 1
        s = np.array([
            [0.5, 0.1, 0.9],
            [0.1, 0.9, 0.5],
            [0.5, 0.1, 0.9],
        ])
        rel = np.array([
            [True, False, True],
            [True, True, False],
            [False, False, True],
        ])
        expected = (1.0 + (1.0 + 2.0 / 3.0) / 2.0 + 1.0) / 3.0
        assert abs(mean_average_precision(s, rel) - expected) < 1e-12

    def test_empty_relevance_row_rejected(self):
        s = np.eye(3)
        rel = np.eye(3, dtype=bool)
        rel[1, 1] = False
        with pytest.raises(DomainError):
            mean_average_precision(s, rel)

    def test_mask_shape_rejected(self):
        with pytest.raises(DimensionError):
            mean_average_precision(np.eye(3), np.ones((3, 4), dtype=bool))


class TestRankInvariance:
    @pytest.mark.parametrize("transform", [
        lambda s: 3.0 * s + 2.0,
        lambda s: s ** 3,
        lambda s: s + np.tanh(s),
    ])
    def test_strictly_increasing_transforms_preserve_everything(self, transform):
        s = np.random.default_rng(4).normal(size=(30, 30))
        t = transform(s)
        assert np.array_equal(retrieval_ranks(s), retrieval_ranks(t))
        assert top_k(s, [1, 3, 9]) == top_k(t, [1, 3, 9])
        assert mean_average_precision(s) == mean_average_precision(t)


class TestReport:
    def test_build_report_consistency(self):
        s = np.random.default_rng(5).normal(size=(20, 20))
        report = build_report(s, ks=[1, 5, 20])
        assert report.top_k[20] == 1.0
        assert report.top_k.get(1, 0.0) <= report.map_score <= 1.0
        assert abs(report.map_score - float(np.mean(1.0 / report.ranks))) < 1e-15
        report.check_invariants()

    def test_ranks_computed_once_and_match_the_public_metrics(self, monkeypatch):
        s = np.random.default_rng(9).normal(size=(30, 30))
        s[3, 3] = s[3, 7]  # a tie, so the tie rule matters
        calls = []

        def counted(sim):
            calls.append(sim)
            return retrieval_ranks(sim)

        monkeypatch.setattr(metrics, "retrieval_ranks", counted)
        report = build_report(s, ks=[1, 5, 30])
        assert len(calls) == 1
        monkeypatch.undo()
        assert report.top_k == {k: float(np.mean(sort_oracle_ranks(s) <= k)) for k in (1, 5, 30)}
        assert report.map_score == mean_average_precision(s)
        np.testing.assert_array_equal(report.ranks, sort_oracle_ranks(s))

    def test_invariant_violations_raise(self):
        good = np.random.default_rng(6).normal(size=(5, 5))
        report = build_report(good, ks=[1, 5])
        report.top_k[5] = 0.2
        with pytest.raises(ContractError):
            report.check_invariants()
        broken = RetrievalReport(top_k={1: 0.9}, map_score=0.1, ranks=np.ones(4, dtype=np.int64))
        with pytest.raises(ContractError):
            broken.check_invariants()

    def test_csv_round_trip(self, tmp_path):
        s = np.random.default_rng(7).normal(size=(8, 8))
        path = tmp_path / "sim.csv"
        with open(path, "wb") as fh:
            write_similarity_csv(fh, s)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, s)

    def test_json_report_round_trip(self, tmp_path):
        s = np.random.default_rng(8).normal(size=(6, 6))
        report = build_report(s, ks=[1, 3])
        report.similarity_path = "sim.csv"
        path = tmp_path / "report.json"
        with open(path, "wb") as fh:
            write_json(report.to_json_dict(), fh)
        loaded = json.loads(path.read_text())
        assert loaded["mAP"] == report.map_score
        assert loaded["top_k"]["1"] == report.top_k[1]
        assert loaded["ranks"] == [int(r) for r in report.ranks]
        assert loaded["similarity_path"] == "sim.csv"
