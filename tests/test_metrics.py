from __future__ import annotations

import json
import math
from statistics import fmean

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import oracle_lagging
from simulharness import (
    DelaySequence,
    Hypothesis,
    MetricsReport,
    Regime,
    aggregate_metrics,
    average_lagging,
    latency_regime,
    length_adaptive_average_lagging,
    length_difference,
)

# ---------------------------------------------------------------------------
# Hand-computed lagging fixtures
#
# Six source words of 280 ms each (T = 1680 ms); the translator emits four
# words at 840, 1120, 1400 and 1680 ms.  The averaging window runs through
# the first word emitted at the very end of the source (the 4th).
# ---------------------------------------------------------------------------

_DELAYS = (840.0, 1120.0, 1400.0, 1680.0)
_T = 1680.0


def _sequence(ref_len: int, wall=None) -> DelaySequence:
    return DelaySequence(
        ideal_ms=_DELAYS,
        wall_ms=wall or _DELAYS,
        source_ms=_T,
        hyp_len=4,
        ref_len=ref_len,
    )


def test_al_fixture_equal_lengths():
    # oracle pace 1680/4 = 420: gaps 840, 700, 560, 420 -> mean 630
    assert average_lagging(_sequence(4)) == pytest.approx(630.0, abs=1e-9)
    assert length_adaptive_average_lagging(_sequence(4)) == pytest.approx(
        630.0, abs=1e-9
    )


def test_al_fixture_shorter_reference_rewards_over_generation():
    # AL paces by the 3-word reference: gaps 840, 560, 280, 0 -> mean 420;
    # LAAL paces by max(4, 3) = 4 and keeps the 630 reading
    assert average_lagging(_sequence(3)) == pytest.approx(420.0, abs=1e-9)
    assert length_adaptive_average_lagging(_sequence(3)) == pytest.approx(
        630.0, abs=1e-9
    )


def test_al_fixture_longer_reference():
    # oracle pace 1680/6 = 280: gaps 840, 840, 840, 840 -> mean 840
    assert average_lagging(_sequence(6)) == pytest.approx(840.0, abs=1e-9)
    assert length_adaptive_average_lagging(_sequence(6)) == pytest.approx(
        840.0, abs=1e-9
    )


def test_lagging_window_stops_at_first_full_source_delay():
    delays = DelaySequence(
        ideal_ms=(1680.0, 1680.0),
        wall_ms=(1680.0, 1680.0),
        source_ms=1680.0,
        hyp_len=2,
        ref_len=2,
    )
    # only the first word is inside the window
    assert average_lagging(delays) == pytest.approx(1680.0, abs=1e-9)


def test_ca_lagging_uses_wall_series_but_ideal_window():
    delays = DelaySequence(
        ideal_ms=(840.0, 1680.0),
        wall_ms=(900.0, 1900.0),
        source_ms=1680.0,
        hyp_len=2,
        ref_len=2,
    )
    # window from the ideal delays covers both words (second hits T);
    # the summed series is the wall one: (900 - 0) + (1900 - 840) over 2
    assert average_lagging(delays, computation_aware=True) == pytest.approx(
        980.0, abs=1e-9
    )
    assert average_lagging(delays) == pytest.approx(840.0, abs=1e-9)


def test_lagging_empty_hypothesis_is_excluded_not_an_error():
    delays = DelaySequence((), (), 1000.0, 0, 3)
    assert average_lagging(delays) is None
    assert length_adaptive_average_lagging(delays) is None


def test_lagging_requires_a_reference():
    delays = DelaySequence((100.0,), (100.0,), 1000.0, 1, 0)
    with pytest.raises(ValueError, match="non-empty reference"):
        average_lagging(delays)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("ideal, wall, source_ms", [
    ((_NAN,), (0.0,), 1000.0),
    ((0.0,), (_NAN,), 1000.0),
    ((0.0,), (_INF,), 1000.0),
    # a NaN hides the drop from 500 to 100 from the pairwise check
    ((500.0, _NAN, 100.0), (1.0, 2.0, 3.0), 1000.0),
    ((1000.0 + 1e-10,), (1000.0,), 1000),
    ((5.0,), (5.0,), _NAN),
])
def test_delay_sequence_accepts_nan_and_infinite_wall_delays(
    ideal, wall, source_ms
):
    """Comparisons with NaN are false, so no check refuses a NaN delay."""
    DelaySequence(ideal, wall, source_ms, len(ideal), 1)


@pytest.mark.parametrize("ideal, wall, message", [
    ((-1.0,), (0.0,), "non-negative"),
    ((-_INF,), (0.0,), "non-negative"),
    ((0.0,), (-_INF,), "non-negative"),
    ((_NAN, -1.0), (0.0, 0.0), "non-negative"),
    ((0.0, 0.0), (_NAN, -1.0), "non-negative"),
    ((_INF,), (0.0,), "exceed the source"),
    ((_NAN, 2000.0), (0.0, 0.0), "exceed the source"),
    ((2.0, 1.0), (0.0, 0.0), "non-decreasing"),
    ((2.0, 1.0, _NAN), (0.0, 0.0, 0.0), "non-decreasing"),
])
def test_delay_sequence_refuses_negative_and_infinite_ideal_delays(
    ideal, wall, message
):
    with pytest.raises(ValueError, match=message):
        DelaySequence(ideal, wall, 1000.0, len(ideal), 1)


def test_hypothesis_converts_delays_and_words_by_type():
    hyp = Hypothesis((), (1, "b"), (5.7, -3), (_NAN, _INF))
    assert hyp.words == ("1", "b")
    assert hyp.ideal_delays_ms == (5, -3)
    assert hyp.wall_delays_ms[1] == _INF and hyp.wall_delays_ms[0] != 0
    with pytest.raises(ValueError):
        Hypothesis((), ("a",), (_NAN,), (0.0,))
    with pytest.raises(OverflowError):
        Hypothesis((), ("a",), (_INF,), (0.0,))
    with pytest.raises(ValueError, match="one delay pair"):
        Hypothesis((), ("a",), (), ())


# ---------------------------------------------------------------------------
# Properties: dual route and the LAAL/AL relationship
# ---------------------------------------------------------------------------


@st.composite
def _delay_sequences(draw, all_below_source: bool):
    hyp_len = draw(st.integers(1, 10))
    ref_len = draw(st.integers(1, 10))
    source = draw(st.integers(1_000, 5_000))
    ceiling = source - 1 if all_below_source else source
    ideal = sorted(
        draw(
            st.lists(
                st.integers(0, ceiling),
                min_size=hyp_len,
                max_size=hyp_len,
            )
        )
    )
    extra = draw(
        st.lists(
            st.floats(0.0, 500.0, allow_nan=False),
            min_size=hyp_len,
            max_size=hyp_len,
        )
    )
    wall = [d + e for d, e in zip(ideal, extra)]
    return DelaySequence(
        ideal_ms=tuple(float(d) for d in ideal),
        wall_ms=tuple(wall),
        source_ms=float(source),
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


@given(delays=_delay_sequences(all_below_source=False))
def test_lagging_matches_literal_summation_oracle(delays):
    assert average_lagging(delays) == pytest.approx(
        oracle_lagging(delays.ideal_ms, delays.source_ms, delays.ref_len),
        abs=1e-9,
    )
    assert length_adaptive_average_lagging(
        delays, computation_aware=True
    ) == pytest.approx(
        oracle_lagging(
            delays.wall_ms,
            delays.source_ms,
            max(delays.hyp_len, delays.ref_len),
            cutoff_from=delays.ideal_ms,
        ),
        abs=1e-9,
    )


@given(delays=_delay_sequences(all_below_source=False))
def test_laal_never_below_al_and_ca_dominates(delays):
    al = average_lagging(delays)
    laal = length_adaptive_average_lagging(delays)
    assert laal >= al - 1e-9
    # the wall series dominates the ideal series by construction
    assert average_lagging(delays, computation_aware=True) >= al - 1e-9
    assert (
        length_adaptive_average_lagging(delays, computation_aware=True)
        >= laal - 1e-9
    )


@given(delays=_delay_sequences(all_below_source=True))
def test_laal_equals_al_exactly_when_not_over_generating(delays):
    """With every delay strictly inside the source (window = |Y|), the two
    metrics split exactly on over-generation."""
    al = average_lagging(delays)
    laal = length_adaptive_average_lagging(delays)
    if delays.hyp_len <= delays.ref_len:
        assert laal == pytest.approx(al, abs=1e-9)
    elif delays.hyp_len >= 2 and delays.source_ms > 0:
        assert laal > al + 1e-9


def test_delay_sequence_validation():
    with pytest.raises(ValueError, match="equal length"):
        DelaySequence((1.0,), (1.0, 2.0), 10.0, 1, 1)
    with pytest.raises(ValueError, match="hyp_len"):
        DelaySequence((1.0,), (1.0,), 10.0, 2, 1)
    with pytest.raises(ValueError, match="non-decreasing"):
        DelaySequence((5.0, 4.0), (5.0, 4.0), 10.0, 2, 1)
    with pytest.raises(ValueError, match="exceed the source"):
        DelaySequence((11.0,), (11.0,), 10.0, 1, 1)
    with pytest.raises(ValueError, match="non-negative"):
        DelaySequence((-1.0,), (0.0,), 10.0, 1, 1)


def test_delay_sequence_refuses_a_negative_length_or_duration():
    with pytest.raises(ValueError, match="ref_len must be non-negative"):
        DelaySequence((1.0,), (1.0,), 10.0, 1, -1)
    with pytest.raises(ValueError, match="source_ms must be non-negative"):
        DelaySequence((), (), -1.0, 0, 1)


# ---------------------------------------------------------------------------
# Regimes and the length statistic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "latency, regime",
    [
        (0.0, Regime.LOW),
        (999.999, Regime.LOW),
        (1000.0, Regime.MEDIUM),   # band edges go to the higher regime
        (1999.999, Regime.MEDIUM),
        (2000.0, Regime.HIGH),
        (10_000.0, Regime.HIGH),
    ],
)
def test_latency_regime_bands(latency, regime):
    assert latency_regime(latency) is regime


def test_length_difference_hand_cases():
    hyps = [["a", "b"], ["a", "b", "c"]]
    refs = [["x", "y", "z", "w"], ["x", "y", "z"]]
    assert length_difference(hyps, refs) == pytest.approx(-1.0, abs=1e-12)
    assert length_difference([["a"] * 5], [["b"] * 2]) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="hypotheses"):
        length_difference([["a"]], [])
    with pytest.raises(ValueError, match="empty corpus"):
        length_difference([], [])


# ---------------------------------------------------------------------------
# Reports and aggregation
# ---------------------------------------------------------------------------


def test_metrics_report_json_round_trip():
    report = MetricsReport(
        bleu=42.5, al_ms=700.0, laal_ms=750.0, al_ca_ms=710.0,
        laal_ca_ms=760.0, regime=Regime.LOW, len_diff_words=-0.5, n_utts=3,
    )
    data = json.loads(report.to_json())
    assert data == {
        "bleu": 42.5, "AL": 700.0, "LAAL": 750.0, "AL_CA": 710.0,
        "LAAL_CA": 760.0, "regime": "low", "len_diff": -0.5, "n_utts": 3,
    }
    assert MetricsReport.from_json(report.to_json()) == report


def test_metrics_json_writes_its_keys_in_the_files_order():
    report = MetricsReport(
        bleu=42.5, al_ms=700.0, laal_ms=750.0, al_ca_ms=710.0,
        laal_ca_ms=760.0, regime=Regime.LOW, len_diff_words=-0.5, n_utts=3,
    )
    assert report.to_json() == (
        '{"bleu": 42.5, "AL": 700.0, "LAAL": 750.0, "AL_CA": 710.0, '
        '"LAAL_CA": 760.0, "regime": "low", "len_diff": -0.5, "n_utts": 3}'
    )


@st.composite
def _scored_utterances(draw):
    """One utterance's words, reference and delays: the hypothesis may be
    empty, shorter or longer than the reference, and a wall delay NaN or
    infinite."""
    hyp_len, ref_len = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    source = draw(st.integers(0, 3_000))
    sizes = {"min_size": hyp_len, "max_size": hyp_len}
    ideal = sorted(draw(st.lists(st.integers(0, source), **sizes)))
    wall = draw(st.lists(st.floats(0.0, 5e3), **sizes))
    # now and then one NaN or infinite delay, which the means then carry
    special = draw(st.sampled_from([None, None, None, math.inf, math.nan]))
    if wall and special is not None:
        wall[draw(st.integers(0, hyp_len - 1))] = special
    delays = DelaySequence(
        tuple(map(float, ideal)), tuple(wall), float(source), hyp_len, ref_len
    )
    return ["there"] * hyp_len, ["donkey"] * ref_len, delays


@given(st.lists(_scored_utterances(), min_size=1, max_size=6))
def test_aggregate_means_are_those_of_the_per_utterance_functions(utts):
    """Bit for bit: ``repr`` tells -0.0 from 0.0, and NaN equals NaN."""
    hyps, refs, delays = zip(*utts)
    report = aggregate_metrics(hyps, refs, delays)
    scored = [d for d in delays if d.hyp_len]
    for name, lagging, computation_aware in (
        ("al_ms", average_lagging, False),
        ("laal_ms", length_adaptive_average_lagging, False),
        ("al_ca_ms", average_lagging, True),
        ("laal_ca_ms", length_adaptive_average_lagging, True),
    ):
        expected = fmean(
            lagging(d, computation_aware) for d in scored
        ) if scored else None
        assert repr(getattr(report, name)) == repr(expected)


def test_aggregate_metrics_over_two_utterances():
    hyps = [["there", "donkey"], ["goes", "house", "to"]]
    refs = [["there", "donkey"], ["goes", "house", "to"]]
    delays = [
        DelaySequence((560.0, 560.0), (600.0, 610.0), 560.0, 2, 2),
        DelaySequence((280.0, 560.0, 840.0), (300.0, 590.0, 880.0),
                      840.0, 3, 3),
    ]
    report = aggregate_metrics(hyps, refs, delays)
    expected_al = [
        oracle_lagging(d.ideal_ms, d.source_ms, d.ref_len) for d in delays
    ]
    assert report.al_ms == pytest.approx(
        sum(expected_al) / 2, abs=1e-9
    )
    assert report.laal_ms == pytest.approx(report.al_ms, abs=1e-9)
    assert report.bleu == 0.0  # two- and three-word identities: no 4-grams
    assert report.regime is latency_regime(report.laal_ms)
    assert report.len_diff_words == 0.0
    assert report.n_utts == 2
    assert report.al_ca_ms > report.al_ms


def test_aggregate_metrics_empty_corpus():
    report = aggregate_metrics([], [], [])
    assert report.n_utts == 0
    assert report.bleu is None
    assert report.regime is None


def test_aggregate_metrics_excludes_empty_hypotheses_from_latency(caplog):
    hyps = [["there", "donkey", "goes", "house"], []]
    refs = [["there", "donkey", "goes", "house"], ["yes"]]
    delays = [
        DelaySequence((280.0, 560.0, 840.0, 1120.0),
                      (280.0, 560.0, 840.0, 1120.0), 1120.0, 4, 4),
        DelaySequence((), (), 280.0, 0, 1),
    ]
    with caplog.at_level("WARNING"):
        report = aggregate_metrics(hyps, refs, delays)
    assert "empty hypothesis" in caplog.text
    # latency means cover only the non-empty utterance
    assert report.al_ms == pytest.approx(
        oracle_lagging(delays[0].ideal_ms, 1120.0, 4), abs=1e-9
    )
    # but BLEU and n_utts still see the whole corpus
    assert report.n_utts == 2
    assert report.len_diff_words == pytest.approx(-0.5)


def test_aggregate_metrics_validates_alignment():
    with pytest.raises(ValueError, match="align"):
        aggregate_metrics([["a"]], [["a"]], [])
