import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from invkloos import expsum, lfun
from invkloos.gf import field_maps

# table construction is cached across examples, which trips the default
# deadline heuristics on first use
settings.register_profile(
    "invkloos",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.data_too_large],
)
settings.load_profile("invkloos")


@pytest.fixture(autouse=True)
def _cold_class_caches():
    """Each test starts with no served tower histogram and no reconstructed
    L-function class cached; the gf field tables stay warm."""
    expsum._TOWER.clear()
    lfun._CLASSES.clear()


def _direct_serve(F, k, n, b):
    """S_n(b) over F_{q^k} as a length-p int64 histogram, served for b itself
    from the count array with np.add.at, as tower_sums did per b before it
    served F_p^*-classes: the per-b oracle for the class route."""
    maps = field_maps(F, k)
    E, M = maps.ext, maps.ext.q - 1
    A = expsum._pair_counts(E) if n == 1 else expsum._sum_one_counts(E, n)[0]
    hist = np.zeros(E.p, dtype=np.int64)
    u = ((n + 1) * E.dlog[1:] + int(E.dlog[maps.embed_tab[b]])) % M
    np.add.at(hist, E.tr_abs[1:], A[u])
    return hist


@pytest.fixture
def direct_serve():
    return _direct_serve
