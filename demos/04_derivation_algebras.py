# The derivation algebra of the quantum torus: degree derivations indexed by
# central exponents plus inner derivations with raw noncentral exponents.
# Its central-exponent part is a rescaled copy of the Witt algebra.

from qtlie import (
    bracket_d,
    bracket_witt,
    deriv,
    derivations_to_witt,
    inner,
    is_generic,
    make_torus,
    solenoidal_span_check,
    witt,
)

spec = make_torus(2, 1, [2])

a = deriv(spec, 1, (2, 0))      # t^(2,0) d_1
b = deriv(spec, 2, (2, 2))      # t^(2,2) d_2
print("[t^(2,0)d1, t^(2,2)d2] =", bracket_d(spec, a, b))

t = inner(spec, (1, 0))         # the inner derivation of t^(1,0)
print("[d1, t^(1,0)] =", bracket_d(spec, deriv(spec, 1, (0, 0)), t))
print("[t^(1,0), t^(0,1)] =", bracket_d(spec, inner(spec, (1, 0)), inner(spec, (0, 1))))

# when the exponents add up to something central the coefficient dies on its own
print("[t^(1,0), t^(1,2)] =", bracket_d(spec, inner(spec, (1, 0)), inner(spec, (1, 2))))

# rescaling onto the Witt algebra: t^m d_i -> k_i x^n x_i d/dx_i with m = B n
print("image of t^(2,0)d1:", derivations_to_witt(spec, a))
lhs = derivations_to_witt(spec, bracket_d(spec, a, b))
rhs = bracket_witt(derivations_to_witt(spec, a), derivations_to_witt(spec, b))
print("bracket first or map first, same answer:", lhs == rhs)

# rank-one-direction subalgebras need a direction with Q-independent entries,
# which forces a big enough coefficient field
wide = make_torus(2, 1, [2], L=4)
mu = (wide.field.one, wide.field.root(1))           # (1, i)
print("mu generic:", is_generic(wide, mu))
print("quantum flavor closed:", solenoidal_span_check(wide, mu, "quantum", 1).closed)
print("commutative flavor closed:", solenoidal_span_check(wide, mu, "commutative", 2).closed)
print("witt basis bracket:", bracket_witt(witt(wide.field, 1, (0, 0)), witt(wide.field, 2, (1, 1))))
