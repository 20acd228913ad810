"""AUC, EER, F1, score files, and the ablation grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from sdckws.errors import DegenerateLabels, NonFiniteValue
from sdckws.features import SdcConfig
from sdckws.metrics import SCORES_HEADER, ScoredSet, auc, eer, f1_at, write_scores
from sdckws.model import ABLATION_HEADER, AblationRow, ModelConfig, ablation_csv


def read_scores(path) -> ScoredSet:
    """The tests' reader for the scores CSV that write_scores writes."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == SCORES_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return ScoredSet(np.array([float(score) for score, _ in rows]),
                     np.array([int(label) for _, label in rows]))


def brute_auc(scores, labels):
    """O(n^2) pair sweep: P(pos > neg) + half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.shape[0] * neg.shape[0])


def rank_auc(scores, labels):
    """The tie-averaged rank-sum formula, ranks from scipy.stats.rankdata."""
    ranks = rankdata(scores, method="average")
    num_pos = int(np.sum(labels == 1))
    num_neg = labels.shape[0] - num_pos
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


def brute_eer(scores, labels):
    """Dense threshold sweep with linear interpolation at the crossing."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far = np.array([(neg >= t).mean() for t in thresholds])
    frr = np.array([(pos < t).mean() for t in thresholds])
    gap = frr - far
    idx = int(np.argmax(gap >= 0.0))
    if gap[idx] == 0.0:
        return float(far[idx])
    j = idx - 1
    fraction = -gap[j] / (gap[j + 1] - gap[j])
    return float(far[j] + fraction * (far[j + 1] - far[j]))


def random_set(rng, size):
    labels = np.zeros(size, dtype=np.int64)
    labels[: size // 2] = 1
    labels = rng.permutation(labels)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == size:
        labels[0] = 0
    # Quantized scores force plenty of exact ties.
    scores = np.round(rng.random(size), 2)
    return scores, labels


class TestAuc:
    def test_perfect_separation(self):
        assert auc(ScoredSet([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0

    def test_perfectly_wrong(self):
        assert auc(ScoredSet([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1])) == 0.0

    def test_interleaved_half(self):
        # pairs: (0.1 vs 0.2) 0, (0.1 vs 0.3) 0, (0.4 vs 0.2) 1,
        # (0.4 vs 0.3) 1 -> 2/4
        assert auc(ScoredSet([0.1, 0.2, 0.3, 0.4], [1, 0, 0, 1])) == 0.5

    def test_all_tied_half(self):
        assert auc(ScoredSet([0.5] * 6, [1, 0, 1, 0, 1, 0])) == 0.5

    def test_single_tie_pair(self):
        # pairs: (0.7>0.3)=1, (0.7=0.7)=0.5, (0.5>0.3)=1, (0.5<0.7)=0
        # AUC = 2.5 / 4
        assert auc(ScoredSet([0.7, 0.5, 0.3, 0.7], [1, 1, 0, 0])) == 0.625

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(0)
        scores, labels = random_set(rng, 31)
        forward = auc(ScoredSet(scores, labels))
        flipped = auc(ScoredSet(scores, 1 - labels))
        assert forward + flipped == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores, labels = random_set(rng, 25)
        direct = auc(ScoredSet(scores, labels))
        warped = auc(ScoredSet(np.exp(3.0 * scores), labels))
        assert direct == pytest.approx(warped, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores, labels = random_set(rng, int(rng.integers(2, 60)))
            got = auc(ScoredSet(scores, labels))
            want = brute_auc(scores, labels)
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_rank_formula_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            scores, labels = random_set(rng, int(rng.integers(2, 300)))
            scores = np.round(scores, int(rng.integers(0, 3)))
            got = auc(ScoredSet(scores, labels))
            assert type(got) is float
            assert got.hex() == rank_auc(scores, labels).hex()

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            auc(ScoredSet([0.1, 0.2], [1, 1]))


class TestEer:
    def test_perfect_separation(self):
        assert eer(ScoredSet([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 0.0

    def test_symmetric_single_error(self):
        # One positive below one negative among four: FAR and FRR cross
        # at 0.5 between thresholds.
        value = eer(ScoredSet([0.4, 0.6], [1, 0]))
        assert value == pytest.approx(1.0)

    def test_quarter_crossing(self):
        scored = ScoredSet([0.1, 0.3, 0.5, 0.7, 0.2, 0.4, 0.6, 0.8],
                           [0, 0, 0, 1, 1, 1, 1, 1])
        assert eer(scored) == pytest.approx(brute_eer(scored.scores,
                                                      scored.labels))

    def test_all_ties(self):
        # Either everything is accepted (FAR 1, FRR 0) or nothing is
        # (FAR 0, FRR 1); the crossing interpolates to one half.
        assert eer(ScoredSet([0.5] * 4, [1, 0, 1, 0])) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            scores, labels = random_set(rng, int(rng.integers(2, 60)))
            got = eer(ScoredSet(scores, labels))
            want = brute_eer(scores, labels)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 40))
    def test_bounded_and_flip_stable(self, seed, size):
        rng = np.random.default_rng(seed)
        scores, labels = random_set(rng, size)
        value = eer(ScoredSet(scores, labels))
        assert 0.0 <= value <= 1.0


class TestF1:
    def test_two_thirds(self):
        # threshold 0.5: tp=1, fp=0, fn=1 -> P=1, R=0.5, F1=2/3
        scored = ScoredSet([0.6, 0.4, 0.3], [1, 1, 0])
        assert f1_at(scored, 0.5) == pytest.approx(2.0 / 3.0)

    def test_accept_is_greater_equal(self):
        scored = ScoredSet([0.5, 0.4], [1, 0])
        assert f1_at(scored, 0.5) == 1.0

    def test_no_predictions(self):
        assert f1_at(ScoredSet([0.1, 0.2], [1, 0]), 0.9) == 0.0

    def test_all_accepted(self):
        # tp=2, fp=2, fn=0 -> P=0.5, R=1 -> F1=2/3
        scored = ScoredSet([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0])
        assert f1_at(scored, 0.0) == pytest.approx(2.0 / 3.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            f1_at(ScoredSet(np.array([]), np.array([])), 0.5)


class TestScoredSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScoredSet([0.1, 0.2], [1])
        with pytest.raises(ValueError):
            ScoredSet([[0.1]], [[1]])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ScoredSet([0.1], [2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # With nan here eer used to report 0.0 and f1_at(0.5) 0.667.
        with pytest.raises(NonFiniteValue):
            ScoredSet([0.1, bad, 0.7, 0.3], [0, 1, 1, 0])


class TestScoresFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        scored = ScoredSet(rng.random(50), rng.integers(0, 2, 50))
        path = tmp_path / "scores.csv"
        write_scores(path, scored)
        back = read_scores(path)
        np.testing.assert_array_equal(back.scores, scored.scores)
        np.testing.assert_array_equal(back.labels, scored.labels)

    def test_header_present(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores(path, ScoredSet([0.25], [1]))
        lines = path.read_text().splitlines()
        assert lines[0] == "score,label"
        assert lines[1] == "0.25,1"


class TestAblationCsv:
    def test_format(self):
        cfg = ModelConfig(sdc=SdcConfig(d=1, k=8))
        rows = [AblationRow("d", 1, cfg, auc=0.9375, eer=0.0625),
                AblationRow("d", 2, ModelConfig(sdc=SdcConfig(d=2, k=8)),
                            auc=1.0, eer=0.0)]
        text = ablation_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ABLATION_HEADER
        assert lines[1] == "1,8,0.9375,0.0625"
        assert float(lines[2].split(",")[2]) == 1.0

    def test_other_key_leads_with_its_column(self):
        cfg = ModelConfig(sdc=SdcConfig(p=2), lr=0.001)
        text = ablation_csv([AblationRow("p", 2, cfg, auc=0.5, eer=0.25),
                             AblationRow("lr", 0.001, cfg, auc=0.5, eer=0.25)])
        lines = text.strip().split("\n")
        assert lines[0] == "p," + ABLATION_HEADER
        assert lines[1] == "2,1,8,0.5,0.25"
        assert lines[2] == "0.001,1,8,0.5,0.25"


class TestAblationGrid:
    def test_cells_and_determinism(self, tmp_path):
        from sdckws.data import load_manifest, synth_dataset
        from sdckws.features import FeatureKind, FrontEndConfig
        from sdckws.model import ablation_grid

        manifest = load_manifest(
            synth_dataset(["ab", "cd"], 3, 1.0, 30, tmp_path / "ds")
        )
        cfg = ModelConfig(
            feature=FeatureKind.SDC,
            front_end=FrontEndConfig(num_mel=8, num_cepstra=8),
            sdc=SdcConfig(n=8, d=1, p=2, k=2),
            conv_filters=2, gru_hidden=4, embed_dim=6, char_embed_dim=8,
            disc_hidden=4, dropout=0.0, batch_size=8, seed=2,
        )
        logged = []

        def grid():
            return (ablation_grid(manifest, manifest, "d", [1, 2], cfg, 0,
                                  log=logged.append)
                    + ablation_grid(manifest, manifest, "k", [3], cfg, 0,
                                    log=logged.append))

        rows = grid()
        # one-at-a-time sweep: base k for the d cells, base d for the k cells
        assert [(r.cfg.sdc.d, r.cfg.sdc.k) for r in rows] == [(1, 2), (2, 2), (1, 3)]
        assert logged == rows
        assert all(0.0 <= r.auc <= 1.0 and 0.0 <= r.eer <= 1.0 for r in rows)
        again = grid()
        assert ablation_csv(again) == ablation_csv(rows)

    def test_cell_seed_rule(self, tmp_path):
        from sdckws.data import load_manifest, synth_dataset
        from sdckws.features import FeatureKind, FrontEndConfig
        from sdckws.model import ablation_grid

        manifest = load_manifest(
            synth_dataset(["ab", "cd"], 3, 1.0, 30, tmp_path / "ds")
        )
        cfg = ModelConfig(
            feature=FeatureKind.MEL_SPEC,
            front_end=FrontEndConfig(num_mel=8, num_cepstra=8),
            sdc=SdcConfig(n=8, d=1, p=2, k=2),
            conv_filters=2, gru_hidden=4, embed_dim=6, char_embed_dim=8,
            disc_hidden=4, dropout=0.0, batch_size=8, seed=2,
        )
        p_rows = ablation_grid(manifest, manifest, "p", [1, 3], cfg, 0)
        seed_rows = ablation_grid(manifest, manifest, "seed", [1, 2], cfg, 0)
        # p does not enter the seed, so a p sweep is paired; seeds differ
        assert [r.cfg.seed for r in p_rows] == [20102, 20102]
        assert [r.cfg.seed for r in seed_rows] == [10102, 20102]
        assert [r.value for r in seed_rows] == [1, 2]

    def test_invalid_cell_trains_nothing(self, tmp_path):
        from sdckws.model import ablation_grid

        with pytest.raises(ValueError, match="d must be >= 1"):
            ablation_grid([], [], "d", [1, 0], ModelConfig(), 1)
