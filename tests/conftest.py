import pytest
from mpmath import mp

from kgconst import PrecisionContext, identities, series


def clear_memos():
    """Empty the process-wide memos of verify_all's routes: the double
    series and the three appendix integrals."""
    identities._tail_integral.cache_clear()
    identities._head_integral.cache_clear()
    identities._chi2_tail.cache_clear()
    series.double_series.cache_clear()


@pytest.fixture
def ctx15():
    return PrecisionContext(digits=15)


@pytest.fixture
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture
def ctx40():
    return PrecisionContext(digits=40)


@pytest.fixture(autouse=True)
def high_precision_comparisons():
    """Run test-body arithmetic at 80 dps so comparisons never round."""
    with mp.workdps(80):
        yield
