"""Reference code the tests compare against; the package does not ship it.

Plain functions without argument checks: a caller outside their domain gets
whatever numpy or scipy makes of it.
"""

import numpy as np
from scipy.special import betainc, gammaln

from tsclust.geometry import SubspaceBasis
from tsclust.synth import haar_basis


def orthogonal_ensemble(m, L, d, seed):
    """``L`` mutually orthogonal ``d``-dimensional subspaces of ``R^m``: one
    Haar ``L*d``-frame split into blocks of ``d`` columns."""
    frame = haar_basis(m, L * d, seed).basis
    return [SubspaceBasis(frame[:, i * d:(i + 1) * d]) for i in range(L)]


def inner_product_abs_pdf(d, z):
    """Density of ``|<a, b>|`` for independent uniform points on the unit
    sphere of ``R^d``: ``(2/sqrt(pi)) * Gamma(d/2)/Gamma((d-1)/2) *
    (1 - z^2)^((d-3)/2)`` on ``[0, 1]``, divergent at ``z = 1`` for ``d = 2``."""
    log_const = np.log(2.0) - 0.5 * np.log(np.pi) + gammaln(d / 2.0) - gammaln((d - 1) / 2.0)
    with np.errstate(divide="ignore"):
        return np.exp(log_const) * (1.0 - np.square(z)) ** ((d - 3) / 2.0)


def inner_product_abs_cdf(d, z):
    """``P(|<a, b>| <= z)`` in closed form: ``|<a, b>|^2`` is
    Beta(1/2, (d-1)/2), so this is the regularized incomplete beta at ``z^2``."""
    return float(betainc(0.5, (d - 1) / 2.0, z * z))
