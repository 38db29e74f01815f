"""Integrator config and hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from flowmap.core import IntegratorConfig

RK12 = IntegratorConfig(method="rk45_adaptive", tol=1e-12)

# Random 1D ReLU term lists (v, w, b).  Entries are multiples of 1/16, so a
# piece's slope is either 0 or at least 1/256 in size and its equilibrium
# stays at the scale of the data.
entries = st.integers(-16, 16).map(lambda k: k / 16.0)
term_lists = st.lists(st.tuples(entries, entries, st.integers(-32, 32).map(lambda k: k / 16.0)),
                      min_size=1, max_size=4)
