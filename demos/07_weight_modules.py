# From a graded module over the jet algebra to a weight module over the
# derivation algebra with a free central action, and back-to-back comparison
# with the closed-form tensor-field construction.

from qtlie import (
    GLdGLNModule,
    TensorFieldModule,
    build_module,
    graded_regular_glN,
    make_torus,
    modules_equal,
    natural_gld,
    pullback,
    verify_module_axioms,
    weight_multiplicities,
)
from qtlie.cuspidal import sym_central, sym_deg, sym_inner

spec = make_torus(2, 1, [2])
wmats, wclasses = graded_regular_glN(spec)
vw = GLdGLNModule(spec, natural_gld(spec), wmats, wclasses)
rep = pullback(spec, vw)

module = build_module(spec, alpha=(0, 0), rep=rep, box=2)

# vectors live at labels (class representative, central shift); weights are
# alpha + class + shift and the central action is a pure label shift
fld = spec.field
v = {((1, 1), (0, 0)): [fld.one, fld.zero]}
print("degree action:", module.act(sym_deg(spec, (1, 0), (2, 0)), v))
print("torus action:  ", module.act(sym_inner(spec, (1, 0)), v))
print("central shift: ", list(module.act(sym_central(spec, (2, 0)), v)))

report = verify_module_axioms(module, symbol_box=2, sample_count=40)
print("bracket axioms hold on samples:", report.passed, f"({report.cases} checks)")

# the closed-form module on V (x) W (x) t^s, computed with no jet machinery,
# has the same action tables, so it agrees entry for entry on every label
direct = TensorFieldModule(spec, (0, 0), vw, box=2)
print("equals the tensor-field module on the box:", modules_equal(module, direct))

mults, bound = weight_multiplicities(module, box=4)
print("weight multiplicities all equal:", sorted(set(mults.values())), "bound:", bound)
