"""Hypothesis strategies shared by the differential tests.

instances() draws small instances (d = 2, min_n <= n <= 4,
|coeff| <= 5), separable and not, with f2 missing some variables.
mirrored() draws instances whose two halves mirror, as the shipped
configs' do: f1 = g1(x) + g1(y) and f2 = g2(x) - g2(y).
"""

from hypothesis import strategies as st

from fibrecount.forms import Form, Instance


def pair(n, i, j):
    """The exponent vector of x_i x_j in n variables."""
    e = [0] * n
    e[i] += 1
    e[j] += 1
    return tuple(e)


@st.composite
def instances(draw, min_n=1):
    n = draw(st.integers(min_n, 4))
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cross = draw(st.booleans())  # monomials may join different labels

    def form(allowed):
        pairs = [(i, j) for i in allowed for j in allowed
                 if i <= j and (cross or label[i] == label[j])]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-5, 5).filter(bool),
                               min_size=len(chosen), max_size=len(chosen)))
        return Form(n, 2, tuple((c, pair(n, i, j))
                                for c, (i, j) in zip(coeffs, chosen)))

    f1 = form(range(n))
    f2_vars = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
    f2 = form(sorted(f2_vars))
    return Instance(f1=f1, f2=f2, n=n, d=2, label="fuzz")


@st.composite
def mirrored(draw):
    m = draw(st.integers(1, 2))  # variables per half

    def half_form():
        pairs = [(i, j) for i in range(m) for j in range(i, m)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1,
                               max_size=len(pairs), unique=True))
        return [(draw(st.integers(-5, 5).filter(bool)), i, j)
                for i, j in chosen]

    g1, g2 = half_form(), half_form()
    f1 = Form(2 * m, 2, tuple((c, pair(2 * m, i + s, j + s))
                              for s in (0, m) for c, i, j in g1))
    f2 = Form(2 * m, 2, tuple((c if s == 0 else -c, pair(2 * m, i + s, j + s))
                              for s in (0, m) for c, i, j in g2))
    return Instance(f1=f1, f2=f2, n=2 * m, d=2, label="mirrored")
