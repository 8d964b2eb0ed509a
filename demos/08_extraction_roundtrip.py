# The inverse direction: read the polynomial operator families off a weight
# module by exact finite-difference interpolation on the central lattice and
# reassemble the graded module they came from, coefficient for coefficient.

from qtlie import (
    GLdGLNModule,
    OperatorFamily,
    build_module,
    coefficients_to_representation,
    extract_coefficients,
    graded_regular_glN,
    make_torus,
    natural_gld,
    pullback,
)

spec = make_torus(2, 1, [2])
wmats, wclasses = graded_regular_glN(spec)
vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
rep = pullback(spec, vw)
alpha = (0, 0)
module = build_module(spec, alpha, rep, box=4)

# the shifted families D(u, m) and L(m, r) as graded operators on the reference
# weight spaces, one block per class; D keeps each class, L shifts it by the
# class of r.  dense() gives the whole matrix in the space's basis order
family = OperatorFamily(module, degree_bound=3)
print("D(e1, 0) is the diagonal of weight scalars:")
print(family.matrix_D((1, 0), (0, 0)).dense())

# interpolation on the simplex m = B c, c >= 0 with c_1 + c_2 <= 3, by forward
# differences, with an out-of-sample check at c = (4, 4)
coeffs = extract_coefficients(family, spec, alpha)
print("extracted vector-field coefficients:", sorted(coeffs.f))
print("extracted torus coefficients:       ", sorted(coeffs.g))

back = coefficients_to_representation(spec, coeffs)
print("reassembled representation equals the original:", back == rep)

# the same machinery at a shifted weight offset
alpha = (spec.field.from_rational("1/2"), spec.field.from_rational("-1/3"))
module = build_module(spec, alpha, rep, box=4)
coeffs = extract_coefficients(OperatorFamily(module, 3), spec, alpha)
print("offset weight roundtrip:", coefficients_to_representation(spec, coeffs) == rep)
