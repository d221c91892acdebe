"""The genus-2 story end to end: the theta-graph basis, the order-4 and
diagonal generators, the defining relations, the trace table, and the two
infinite-image certificates.

Run:  python demos/04_genus2_representation.py
"""
from tljhecke import TheoryParams, verlinde_dim
from tljhecke.rep_genus2 import (
    enumerate_basis,
    genus2_rep,
    infinite_image_certificate,
    trace_table,
    verify_genus2_relations,
)

print("== the Fibonacci point r = 3 ==")
params = TheoryParams(3)
rep = genus2_rep(params)
print(f"basis (dictionary order): {list(rep.basis.triples)}")

print("\nunitary J (entries are sign * sqrt of a field element):")
U = rep.junitary.embed()
for row in U:
    print("  " + "  ".join(f"{x:+.6f}" for x in row))
print("entry (0,0) equals 1/D^2 exactly:",
      rep.junitary.squares[0, 0] == (rep.constants.d_squared ** 2).inverse())

print("\nT diagonal:")
print("  " + "  ".join(f"{t.embed():+.4f}" for t in rep.tdiag))

print("\nexact relations:")
print(verify_genus2_relations(params))

print("\n== trace table at A = e^(i pi/(r+2)) ==")
print("  r   dim   tr(JTJT^-1)   tr > dim")
for e in trace_table((3, 5, 7, 9, 11, 13)):
    print(f"  {e.level:2d}  {e.dimension:4d}   {e.approx.real:10.4f}   {e.exceeds_dimension}")

print("\n== infinite-image certificates ==")
for r in (2, 3, 7):
    rpt = infinite_image_certificate(TheoryParams(r))
    print(f"  r={r}: {rpt.verdict}")
    print(f"     minimal polynomial route: {rpt.minpoly_details}")
    print(f"     trace route:              {rpt.trace_details}")
