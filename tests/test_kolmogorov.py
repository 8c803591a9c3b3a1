"""The in-package KS p-value against scipy.stats, its test-only oracle.

``zeroset._kolmogorov`` ports what ``scipy.stats.ks_2samp(method="asymp")``
computes so that importing the package does not load scipy.stats.  The port
must agree bit for bit, so every comparison here is exact.  The explicit
cases reach each branch of the survival function; spies on the branch
functions confirm which one ran.  Only the tail branches call
``scipy.special.smirnov``, which the package imports on first use: fresh
interpreters check that importing the package loads no scipy module and
that the other branches never load one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstwo

import zeroset
from zeroset import _kolmogorov


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def _assert_same_as_scipy(a, b):
    statistic, pvalue = _kolmogorov.ks_2samp_asymp(a, b)
    ref = ks_2samp(a, b, alternative="two-sided", method="asymp")
    assert _bits(statistic) == _bits(ref.statistic)
    assert _bits(pvalue) == _bits(ref.pvalue), (float(pvalue), float(ref.pvalue))


@pytest.fixture
def branches(monkeypatch):
    """Names of the branch functions that a call ran."""
    ran = []

    def spy(name):
        real = getattr(_kolmogorov, name)

        def wrapper(*args):
            ran.append(name)
            return real(*args)
        monkeypatch.setattr(_kolmogorov, name, wrapper)

    for name in ("_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood", "smirnov"):
        spy(name)
    return ran


# (n, d, branch that must run); None is a closed form or an edge
_BRANCH_CASES = [
    # n <= 140
    (50, 0.015, None),  # Ruben-Gambino, 1/(2n) < d <= 1/n
    (50, 0.985, None),  # Ruben-Gambino, n d >= n - 1
    (50, 0.1, "_kolmogn_DMTW"),  # n d^2 <= 0.754693
    (50, 0.2, "_kolmogn_Pomeranz"),  # n d^2 <= 4
    (37, 0.27, "_kolmogn_Pomeranz"),
    (50, 0.35, "smirnov"),  # n d^2 > 4: Miller
    (50, 0.6, "smirnov"),  # d >= 0.5: exact
    (3, 0.5, "smirnov"),
    # n > 140
    (1000, 0.0008, None),  # Ruben-Gambino by Stirling's series
    (1000, 0.01, "_kolmogn_DMTW"),  # n d^1.5 <= 1.4
    (1000, 0.03, "_kolmogn_PelzGood"),
    (2048, 0.021, "_kolmogn_PelzGood"),
    (1000, 0.06, "smirnov"),  # n d^2 >= 2.2
    (5000, 0.3, None),  # n d^2 >= 370: exactly 0
    # edges of the support
    (100, 0.005, None),  # d <= 1/(2n): 1
    (100, 1.0, None),  # d >= 1: 0
]


@pytest.mark.parametrize("n, d, branch", _BRANCH_CASES)
def test_each_branch_matches_kstwo(branches, n, d, branch):
    got = _kolmogorov.kstwo_sf(np.float64(d), np.float64(n))
    assert _bits(got) == _bits(kstwo.sf(np.float64(d), np.float64(n)))
    assert branches == ([] if branch is None else [branch])


def test_closed_forms_and_edges():
    assert _kolmogorov.kstwo_sf(np.float64(0.005), np.float64(100)) == 1.0
    assert _kolmogorov.kstwo_sf(np.float64(1.0), np.float64(100)) == 0.0
    assert _kolmogorov.kstwo_sf(np.float64(0.3), np.float64(5000)) == 0.0
    assert np.isnan(_kolmogorov.kstwo_sf(np.float64(0.5), np.float64(0.0)))


@pytest.mark.parametrize(
    "n1, n2, shift",
    [(12, 9, 0.0), (60, 40, 0.3), (120, 160, 0.0), (300, 290, 0.0),
     (400, 500, 0.4), (2000, 1500, 0.02), (2, 1, 0.0), (1, 5, 3.0)],
)
def test_two_sample_cases_match_scipy(n1, n2, shift):
    rng = np.random.default_rng(n1 * 7919 + n2)
    _assert_same_as_scipy(rng.normal(size=n1), rng.normal(size=n2) + shift)


def test_one_value_per_sample_has_no_p_value():
    statistic, pvalue = _kolmogorov.ks_2samp_asymp(np.array([0.0]), np.array([1.0]))
    assert statistic == 1.0
    assert np.isnan(pvalue)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n1=st.integers(1, 700),
    n2=st.integers(2, 700),
    shift=st.sampled_from([0.0, 0.05, 0.2, 1.0]),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_scipy_on_generated_samples(n1, n2, shift, ties, seed):
    rng = np.random.default_rng(seed)
    if ties:  # integer counts, as the bi-scale test compares
        a = rng.poisson(3.0, size=n1).astype(np.float64)
        b = rng.poisson(3.0 + 4 * shift, size=n2).astype(np.float64)
    else:
        a = rng.normal(size=n1)
        b = rng.normal(size=n2) + shift
    _assert_same_as_scipy(a, b)


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zeroset.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_loads_no_scipy_stats():
    _run_fresh("import sys, zeroset; assert 'scipy.stats' not in sys.modules")


def test_import_loads_no_scipy():
    _run_fresh(
        "import sys, zeroset, zeroset.cli\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_only_a_tail_branch_loads_scipy_special():
    # every branch but smirnov's runs on numpy alone; the first tail input
    # imports scipy.special, and its p-value is still scipy's to the bit
    plain = [(n, d) for n, d, branch in _BRANCH_CASES if branch != "smirnov"]
    tails = [(n, d) for n, d, branch in _BRANCH_CASES if branch == "smirnov"]
    assert (1000, 0.06) in tails and (50, 0.6) in tails
    _run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from zeroset._kolmogorov import kstwo_sf\n"
        f"for n, d in {plain!r}:\n"
        "    kstwo_sf(np.float64(d), np.float64(n))\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        f"got = [kstwo_sf(np.float64(d), np.float64(n)) for n, d in {tails!r}]\n"
        "assert 'scipy.special' in sys.modules and 'scipy.stats' not in sys.modules\n"
        "from scipy.stats import kstwo\n"
        f"want = [kstwo.sf(np.float64(d), np.float64(n)) for n, d in {tails!r}]\n"
        "bits = lambda x: int(np.float64(x).view(np.uint64))\n"
        "assert [bits(x) for x in got] == [bits(x) for x in want], (got, want)\n"
    )
