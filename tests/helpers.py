"""Integrator config, hypothesis strategies and oracles shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from flowmap.core import IntegratorConfig

RK12 = IntegratorConfig(method="rk45_adaptive", tol=1e-12)

# Random 1D ReLU term lists (v, w, b).  Entries are multiples of 1/16, so a
# piece's slope is either 0 or at least 1/256 in size and its equilibrium
# stays at the scale of the data.
entries = st.integers(-16, 16).map(lambda k: k / 16.0)
biases = st.integers(-32, 32).map(lambda k: k / 16.0)
term_lists = st.lists(st.tuples(entries, entries, biases), min_size=1, max_size=4)

# term_lists plus the rows that exercise the piece-table build: w == 0 terms
# (constants), -0.0 biases, and a term with the kink of another (its (w, b)
# doubled, which leaves -b/w unchanged), in any order.
special_terms = st.one_of(
    st.tuples(entries, st.just(0.0), biases),
    st.tuples(entries, entries, st.just(-0.0)),
)


@st.composite
def table_term_lists(draw):
    terms = draw(term_lists) + draw(st.lists(special_terms, max_size=5))
    if draw(st.booleans()):
        _, w, b = draw(st.sampled_from(terms))
        terms.append((draw(entries), 2.0 * w, 2.0 * b))
    return draw(st.permutations(terms))


def pwl_tables_oracle(terms):
    """(kinks, slopes, intercepts) of sum_k v_k relu(w_k x + b_k), one numpy
    mask-and-sum per piece: the independent reference for ``PwlField``."""
    terms = np.atleast_2d(np.asarray(terms, dtype=float))
    v, w, b = terms[:, 0], terms[:, 1], terms[:, 2]
    live = w != 0.0
    with np.errstate(over="ignore", divide="ignore"):
        kinks = np.unique(-b[live] / w[live]) if live.any() else np.empty(0)
    kinks = kinks[np.isfinite(kinks)]
    if len(kinks):
        gap = max(1.0, float(np.max(np.abs(kinks))))
        with np.errstate(over="ignore"):
            edges = np.concatenate([[kinks[0] - gap], kinks, [kinks[-1] + gap]])
            probes = 0.5 * (edges[:-1] + edges[1:])
    else:
        probes = np.zeros(1)
    const = float(np.sum(v[~live] * np.maximum(b[~live], 0.0))) if (~live).any() else 0.0
    slope = np.zeros(len(probes))
    icept = np.zeros(len(probes))
    for j, x0 in enumerate(probes):
        act = live & (w * x0 + b > 0.0)
        slope[j] = float(np.sum(v[act] * w[act]))
        icept[j] = float(np.sum(v[act] * b[act])) + const
    return kinks, slope, icept


def shrink_map_1d(alpha: float, N: int):
    """The canonical continuous shrink map on [0, 1]: the oracle of the contraction.

    Flat at value i/N on [i/N, (i+alpha)/N], linear in between; weakly
    increasing and continuous.
    """
    def h(x):
        scaled = np.clip(np.asarray(x, dtype=float), 0.0, 1.0) * N
        i = np.minimum(np.floor(scaled), N - 1)
        rise = np.maximum(scaled - i - alpha, 0.0) / (1.0 - alpha)
        return (i + rise) / N

    return h
