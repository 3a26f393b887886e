"""The verify suites measure the library's own code: breaking it fails the check."""

import numpy as np
from scipy import stats

from bridgelab import objectives, sampler, verify
from bridgelab.verify import run_suite


def failed(report: dict) -> set[str]:
    return {c["name"] for c in report["checks"] if not c["passed"]}


class TestChecksDriveLibraryCode:
    def test_conditional_variance_runs_corrected_sampler(self, monkeypatch):
        """A corrected amplitude 10% too large fails every conditional_var check."""
        amplitude = sampler.noise_amplitude
        monkeypatch.setattr(
            sampler, "noise_amplitude", lambda *args: 1.1 * amplitude(*args)
        )
        names = failed(run_suite("bridge", seed=0, mc=100_000))
        assert {n for n in names if n.startswith("conditional_var_")} == {
            "conditional_var_0.25_0.5",
            "conditional_var_0.5_0.75",
            "conditional_var_0.1_0.9",
        }

    def test_mc_profile_check_runs_objective_alpha_sq(self, monkeypatch):
        """Dropping the stabilized alpha^2 fails the Monte-Carlo S(t) check."""
        monkeypatch.setattr(
            objectives, "objective_alpha_sq", lambda kind, pair, t, s: np.ones(len(pair))
        )
        assert "profile_mc_vs_closed_form_worst_sigma" in failed(
            run_suite("objectives", seed=0, mc=100_000)
        )


class TestChiSquareConstants:
    """The goodness-of-fit edges and bound are computed without scipy; pin them to it."""

    def test_critical_value_is_scipys_bit_for_bit(self):
        assert verify._CHI2_999_DF19 == stats.chi2.ppf(0.999, df=19)

    def test_bin_edges_are_normal_quantiles(self):
        expected = stats.norm.ppf(np.linspace(0.0, 1.0, 21))
        np.testing.assert_allclose(verify._GOF_EDGES, expected, rtol=0.0, atol=1e-15)
