"""The three key brackets with one sign wrong, for the Jacobi witness tests.

Each has the signature of the key bracket it stands in for, so a test can
monkeypatch it in.  The brackets of the other key kinds are passed through
to the correct key bracket, captured here at import: looked up at call time,
it would be the patched bracket itself, which would then call itself.
"""
from qtlie import derivations, jetalg
from qtlie.torus import exp_add

_RIGHT_D_KEYS = derivations._bracket_d_keys
_RIGHT_JET_KEYS = jetalg._bracket_jet_keys


def witt_keys(a, b):
    """[x^m x_i d_i, x^n x_j d_j] keeping the sign its second term should lose."""
    i, m = a
    j, n = b
    mn = exp_add(m, n)
    if n[i - 1]:
        yield derivations._witt_key(j, mn), n[i - 1]
    if m[j - 1]:
        yield derivations._witt_key(i, mn), m[j - 1]


def d_keys(spec, a, b):
    """[t^m d_i, t^n d_j] keeping the sign its second term should lose."""
    if a[0] == "d" and b[0] == "d":
        _, i, m = a
        _, j, n = b
        mn = exp_add(m, n)
        if n[i - 1]:
            yield derivations._deriv_key(spec, j, mn), n[i - 1]
        if m[j - 1]:
            yield derivations._deriv_key(spec, i, mn), m[j - 1]
    else:
        yield from _RIGHT_D_KEYS(spec, a, b)


def jet_keys(spec, ka, kb):
    """[x^m d_a, x^l tb^s] with the wrong sign on its l_a term."""
    if ka[0] == "XD" and kb[0] == "XT":
        _, m, a = ka
        _, l, s = kb
        ml = exp_add(m, l)
        if l[a - 1]:
            yield jetalg._xt_key(spec.d, jetalg._minus_unit(ml, a - 1), s), -l[a - 1]
        if s[a - 1]:
            yield jetalg._xt_key(spec.d, ml, s), s[a - 1]
    else:
        yield from _RIGHT_JET_KEYS(spec, ka, kb)
