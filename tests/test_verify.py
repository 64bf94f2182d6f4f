"""Verification suites and the gradient-mutation checks from the test guide.

The mutation checks flip the sign of the Hamiltonian gradient in two ways:
through a subclass (the flip reaches the transport/residual path but not
the Bregman terms, so the balance gap blows up) and through the shared
implementation (every consumer sees the same wrong gradient, the balance
still closes algebraically, and the Bregman nonnegativity check trips
instead).  Either way the identity suite must fail.
"""

import pytest

import mfgfd.hamiltonian as hmod
from mfgfd.hamiltonian import PowerHamiltonian
from mfgfd.verify import (
    failure_summary,
    run_adjoint_suite,
    run_identity_suite,
    run_lemma_suites,
)


class TestSuitesPass:
    def test_lemmas(self):
        rep = run_lemma_suites(samples=2000, seed=5)
        assert rep["pass"]

    @pytest.mark.parametrize("seed", [7, 8, 14, 15, 16, 25])
    def test_lemmas_equality_case_at_roundoff(self, seed):
        # at beta = 2 both gap lower bounds hold with equality, so the gap is
        # a small difference of large terms; these seeds draw such samples
        rep = run_lemma_suites(betas=(2.0,), samples=1000, seed=seed)
        assert rep["pass"], failure_summary(rep)

    def test_identity(self):
        rep = run_identity_suite(seed=5, pairs=20)
        assert rep["pass"]
        for sub in rep["reports"]:
            assert sub["max_gap_ratio"] <= 1e-10
            assert sub["min_term_ratio"] >= -1e-10

    def test_adjoint(self):
        rep = run_adjoint_suite(seed=5, probes=50)
        assert rep["pass"]

    def test_reports_deterministic(self):
        a = run_adjoint_suite(seed=9, probes=20)
        b = run_adjoint_suite(seed=9, probes=20)
        assert a == b

    @pytest.mark.parametrize("count", [0, -1])
    def test_counts_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="pairs must be >= 1"):
            run_identity_suite(pairs=count)
        with pytest.raises(ValueError, match="probes must be >= 1"):
            run_adjoint_suite(probes=count)


class FlippedGradient(PowerHamiltonian):
    """Sign defect confined to the instance method ``grad_grid``."""

    def grad_grid(self, stencil):
        return -super().grad_grid(stencil)


class TestGradientMutations:
    def test_subclass_flip_breaks_the_balance(self):
        rep = run_identity_suite(seed=7, pairs=10, betas=(2.0,), ham_factory=FlippedGradient)
        assert not rep["pass"]
        assert rep["reports"][0]["max_gap_ratio"] > 1e-3
        assert "identity" in failure_summary(rep)

    def test_consistent_flip_breaks_nonnegativity(self, monkeypatch):
        orig = hmod._grad_from_q
        monkeypatch.setattr(hmod, "_grad_from_q", lambda q, beta: -orig(q, beta))
        rep = run_identity_suite(seed=7, pairs=10, betas=(2.0,))
        assert not rep["pass"]
        sub = rep["reports"][0]
        # the balance still closes; the convexity sign check is what trips
        assert sub["max_gap_ratio"] <= 1e-10
        assert sub["min_term_ratio"] < -1e-6

    def test_consistent_flip_also_fails_lemma_suite(self, monkeypatch):
        orig = hmod._grad_from_q
        monkeypatch.setattr(hmod, "_grad_from_q", lambda q, beta: -orig(q, beta))
        rep = run_lemma_suites(samples=500, seed=7, betas=(2.0,))
        assert not rep["pass"]
