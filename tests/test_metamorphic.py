"""One system in other coordinates: the classifier's verdict must not move.

A Haar orthogonal U applied to every vector and functional keeps
biorthogonality and every span gap, and it leaves the kernel no isolated
row to split off; a signed coordinate permutation keeps the split but
reorders it; rescaling the pairs to (a_n x_n, f_n / a_n) keeps every span
and the pairing.  None has an oracle: the untransformed verdict is the
reference, and the kind, intervals and pile prefixes must equal it.
"""

import numpy as np
import pytest

from mbasis_lab.biorth import BiorthSystem, classify_perturbation
from test_prefix_kernel import CASES

SYSTEMS = ["staged-128", *(f"flattened-seed{s}" for s in range(6))]


def haar(d, rng):
    """A Haar-distributed orthogonal d x d matrix (Mezzadri, Notices AMS 54, 2007)."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diagonal(R))


def signed_permutation(d, rng):
    return np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)


def transform(kind, z, x, seed):
    """The pair (z, x) in other coordinates, one draw shared by both systems
    for the coordinate changes and one scale per pair and system."""
    rng = np.random.default_rng(seed)
    if kind == "rescale":
        a, c = (rng.uniform(0.5, 2.0, s.size)[:, None] for s in (z, x))
        return (BiorthSystem.from_pairs(z.xs * a, z.fs / a),
                BiorthSystem.from_pairs(x.xs * c, x.fs / c))
    U = (haar if kind == "haar" else signed_permutation)(z.ambient_dim, rng)
    return tuple(BiorthSystem.from_pairs(s.xs @ U, s.fs @ U) for s in (z, x))


@pytest.mark.parametrize("kind", ["haar", "signed-permutation", "rescale"])
@pytest.mark.parametrize("case", SYSTEMS)
def test_classifier_verdict_is_coordinate_free(case, kind):
    z, x = CASES[case]()
    want = classify_perturbation(z, x)
    got = classify_perturbation(*transform(kind, z, x, seed=7))
    assert (got.kind, got.intervals, got.pile_prefixes) == (
        want.kind, want.intervals, want.pile_prefixes)
