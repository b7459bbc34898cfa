"""Integration: the audio adaptation experiment end to end (figures 6/7),
scaled down for test time."""

import pytest

from repro.apps.audio import run_audio_experiment
from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16


@pytest.fixture(scope="module")
def fig6():
    # 45 simulated seconds: phase breakpoints at 10 / 22 / 34 s.
    return run_audio_experiment(duration=45.0)


class TestFig6Shape:
    def test_unloaded_phase_full_stereo(self, fig6):
        assert fig6.qualities_between(1, 9) == {FMT_STEREO16}
        assert fig6.mean_kbps_between(1, 9) == pytest.approx(176, abs=8)

    def test_large_load_forces_8bit_mono(self, fig6):
        assert fig6.dominant_quality_between(12, 21) == FMT_MONO8
        assert fig6.mean_kbps_between(12, 21) == pytest.approx(44, abs=8)

    def test_medium_load_oscillates(self, fig6):
        qualities = fig6.qualities_between(24, 33)
        assert FMT_MONO8 in qualities and FMT_MONO16 in qualities
        mean = fig6.mean_kbps_between(24, 33)
        assert 44 < mean < 88  # strictly between the two levels

    def test_small_load_settles_16bit_mono(self, fig6):
        assert fig6.dominant_quality_between(36, 44) == FMT_MONO16
        assert fig6.mean_kbps_between(36, 44) == pytest.approx(88, abs=8)

    def test_adaptation_is_fast(self, fig6):
        """Within ~2 s of the large load (paper: 'immediate')."""
        assert fig6.dominant_quality_between(12, 14) == FMT_MONO8

    def test_client_app_never_sees_degraded_frames(self, fig6):
        assert fig6.figures["restored"]

    def test_no_frame_loss_with_adaptation(self, fig6):
        assert fig6.figures["frames_received"] == fig6.figures["frames_sent"]
        assert fig6.figures["silent_periods"] == 0


class TestFig7Gaps:
    def test_adaptation_removes_gaps_under_heavy_load(self):
        heavy = 1_900_000
        without = run_audio_experiment(adaptation=False, duration=25.0,
                                       constant_load_bps=heavy)
        with_asp = run_audio_experiment(adaptation=True, duration=25.0,
                                        constant_load_bps=heavy)
        assert without.figures["silent_periods"] > 10
        assert with_asp.figures["silent_periods"] \
            < without.figures["silent_periods"] / 5
        assert with_asp.figures["frames_received"] \
            > without.figures["frames_received"]

    def test_no_load_no_gaps_either_way(self):
        for adaptation in (False, True):
            result = run_audio_experiment(adaptation=adaptation,
                                          duration=10.0,
                                          constant_load_bps=0)
            assert result.figures["silent_periods"] == 0


class TestBackends:
    @pytest.mark.parametrize("backend", ["interpreter", "source"])
    def test_other_engines_give_same_adaptation(self, backend):
        result = run_audio_experiment(duration=20.0, backend=backend,
                                      constant_load_bps=1_700_000)
        assert result.dominant_quality_between(3, 19) == FMT_MONO8
        assert result.figures["restored"]
