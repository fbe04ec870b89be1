"""Synthesize causal 2D-AR random fields and compare their eigenvalue scree
against white noise.

A natural-image-like field carries strong one-step correlation (rho near
0.95), which concentrates the energy of its sample autocorrelation matrix in
a few leading eigenvalues. White noise spreads the energy evenly: its scree
is the flat Marchenko-Pastur bulk. This is the structural difference the
whole detector is built on.
"""

from respectra import ArParams, generate_field, sample_autocorr, standardize

N = 384
RHO = 0.945

ar = generate_field(ArParams(rho=RHO, n=N), seed=1)
noise = generate_field(ArParams(rho=0.0, n=N, q=1), seed=2)

# standardize both fields the way real image blocks are standardized
scree = {}
for name, field in (("2d-ar", ar), ("gaussian", noise)):
    scree[name] = sample_autocorr(standardize(field)).eigenvalues()

print(f"{'rank':>6} {'2d-ar':>12} {'gaussian':>12}")
for i in list(range(8)) + [15, 31, 63, 127, N - 1]:
    print(f"{i + 1:6d} {scree['2d-ar'][i]:12.4f} {scree['gaussian'][i]:12.4f}")

lead = scree["2d-ar"][0] / scree["gaussian"][0]
print(f"\nleading-eigenvalue ratio (AR / white): {lead:.1f}x")
print("the AR scree dominates at the top and decays below the noise bulk,")
print("while the white-noise scree stays inside the Marchenko-Pastur band")
