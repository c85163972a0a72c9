import pytest
from hypothesis import given
from hypothesis import strategies as st

from pada_lab.harness import metric_for_dataset
from pada_lab.metrics import f1_binary, f1_macro
from tests.conftest import make_dataset
from tests.oracles import f1_bruteforce, macro_f1_bruteforce


class TestBinaryF1:
    def test_hand_worked_case(self):
        # tp=1 fp=1 fn=1: precision 0.5, recall 0.5, F1 0.5.
        y_true = ["pos", "neg", "pos"]
        y_pred = ["pos", "pos", "neg"]
        assert f1_binary(y_true, y_pred, "pos", ("neg", "pos")) == pytest.approx(0.5)

    def test_perfect_predictions(self):
        assert f1_binary(["pos", "neg"], ["pos", "neg"], "pos", ("neg", "pos")) == 1.0

    def test_never_predicting_positive_scores_zero(self):
        assert f1_binary(["pos", "pos"], ["neg", "neg"], "pos", ("neg", "pos")) == 0.0

    def test_no_positives_anywhere_scores_zero(self):
        assert f1_binary(["neg", "neg"], ["neg", "neg"], "pos", ("neg", "pos")) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            f1_binary(["pos"], ["pos", "neg"], "pos", ("neg", "pos"))

    def test_declared_set_catches_stray_labels(self):
        with pytest.raises(ValueError, match="stray|outside"):
            f1_binary(["pos"], ["odd"], "pos", label_set=("neg", "pos"))

    def test_positive_must_be_declared(self):
        with pytest.raises(ValueError, match="positive"):
            f1_binary(["a"], ["a"], "pos", label_set=("a", "b"))

    def test_empty_with_declared_set(self):
        with pytest.raises(ValueError, match="no predictions"):
            f1_binary([], [], "pos", label_set=("neg", "pos"))

    @given(
        st.lists(
            st.tuples(st.sampled_from(["pos", "neg"]), st.sampled_from(["pos", "neg"])),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_bruteforce(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        want = f1_bruteforce(y_true, y_pred, "pos")
        assert f1_binary(y_true, y_pred, "pos", ("neg", "pos")) == pytest.approx(want, abs=1e-12)


class TestMacroF1:
    def test_two_class_average(self):
        # "a" scores 1.0, "b" scores 0.0, macro is 0.5.
        y_true = ["a", "b"]
        y_pred = ["a", "a"]
        got = f1_macro(y_true, y_pred, ("a", "b"))
        # tp_a=1 fp_a=1 fn_a=0: F1_a = 2*(0.5*1)/(1.5) = 2/3; b: 0.
        assert got == pytest.approx((2 / 3) / 2)

    def test_absent_label_drags_the_average(self):
        y_true = ["a", "b", "c"]
        y_pred = ["a", "b", "a"]
        # a: tp=1 fp=1 fn=0 -> 2/3; b: perfect -> 1; c: never -> 0.
        assert f1_macro(y_true, y_pred, ("a", "b", "c")) == pytest.approx((2 / 3 + 1.0) / 3)

    def test_duplicate_declared_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            f1_macro(["a"], ["a"], ("a", "a"))

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("abc")),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_bruteforce(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        want = macro_f1_bruteforce(y_true, y_pred, ("a", "b", "c"))
        assert f1_macro(y_true, y_pred, ("a", "b", "c")) == pytest.approx(want, abs=1e-12)


class TestScorePredictions:
    """The headline metric a dataset's declared labels select."""

    @staticmethod
    def score(y_true, y_pred, label_set, positive_class):
        ds = make_dataset({"d": [("tok", label_set[0])]}, label_set=label_set,
                          positive_class=positive_class)
        return metric_for_dataset(ds).score(y_true, y_pred, label_set)

    def test_binary_with_positive_uses_binary_f1(self):
        y_true = ["pos", "neg", "pos"]
        y_pred = ["pos", "pos", "neg"]
        got = self.score(y_true, y_pred, ("neg", "pos"), "pos")
        assert got == f1_binary(y_true, y_pred, "pos", label_set=("neg", "pos"))

    def test_binary_without_positive_falls_back_to_macro(self):
        y_true = ["pos", "neg", "pos"]
        y_pred = ["pos", "pos", "neg"]
        got = self.score(y_true, y_pred, ("neg", "pos"), None)
        assert got == f1_macro(y_true, y_pred, ("neg", "pos"))

    def test_multiclass_always_macro(self):
        y_true = ["a", "b", "c"]
        y_pred = ["a", "b", "a"]
        got = self.score(y_true, y_pred, ("a", "b", "c"), "a")
        assert got == f1_macro(y_true, y_pred, ("a", "b", "c"))
