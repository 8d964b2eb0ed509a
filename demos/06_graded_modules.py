# Finite-dimensional graded modules over the jet algebra.  The standard
# supply: inflate a gl_d module V and a graded gl_N module W through the
# degree-zero quotient.  A one-dimensional graded commutant shows that the
# graded endomorphisms are scalars, which for these semisimple pullbacks means
# irreducibility, and a scrambled module can be split back into its tensor
# factors exactly.

from qtlie import (
    GLdGLNModule,
    commutant,
    decompose_tensor,
    graded_regular_glN,
    is_absolutely_irreducible,
    make_torus,
    min_annihilation_degree,
    natural_gld,
    pullback,
    scramble_representation,
    truncated_polynomial_rep,
    verify_representation,
)

spec = make_torus(2, 1, [2])

wmats, wclasses = graded_regular_glN(spec)      # W = M_2 under left multiplication
vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
rep = pullback(spec, vw)
print("module dimension:", rep.space.dim)
print("graded pieces:", {c: rep.space.dims[c] for c in rep.space.classes})
print("bracket relations hold:", verify_representation(spec, rep, 3).passed)
print("graded commutant dimension:", len(commutant(rep)))
print("absolutely irreducible:", is_absolutely_irreducible(rep))

# every positive-degree symbol acts as zero on such pullbacks
print("annihilation degree:", min_annihilation_degree(rep))

# hide the tensor structure behind a random exact change of basis, then
# recover V and W together with an explicit intertwining isomorphism
scrambled = scramble_representation(rep, seed=42)
recovered, phi = decompose_tensor(spec, scrambled, seed=42)
print("recovered factors: dim V =", recovered.dim_V, ", dim W =", recovered.dim_W)
print("isomorphism invertible:", phi.dense().rank() == rep.space.dim)

# not everything is a pullback: truncated polynomials under vector fields
# form a valid module whose degree-one jets act non-trivially
jets = truncated_polynomial_rep(spec, order=2)
print("jet module dimension:", jets.space.dim)
print("jet module valid:", verify_representation(spec, jets, 3).passed)
print("jet module annihilation degree:", min_annihilation_degree(jets))
