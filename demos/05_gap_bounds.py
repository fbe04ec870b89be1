"""The signal/noise eigenvalue gap and how it shrinks toward xi -> 1 and
rho -> 1.

After quantization the weakest surviving signal eigenvalue is bounded below
through the smallest nonzero support point of the unquantized law, and the
strongest noise eigenvalue is bounded above by the Marchenko-Pastur edge.
Their ratio grows with the signal-to-noise ratio; the kernel ordering
(b-spline smallest gap, lanczos largest) decides detectability.
"""

from respectra import (KERNELS, ResampleSpec, gap_lower_bound, law_upscaled,
                       mp_edges, support_lower_edge)

BETA = 0.125
SNR = 1000.0  # sigma_s2 / sigma_w2

print(f"smallest nonzero support point lambda_- (beta={BETA}):")
print(f"{'kernel':>12} {'rho=0.90':>10} {'rho=0.95':>10} {'rho=0.98':>10}")
for name in KERNELS:
    spec = ResampleSpec(L=3, M=2, kernel=KERNELS[name])
    row = []
    for rho in (0.90, 0.95, 0.98):
        law = law_upscaled(rho, spec)
        row.append(support_lower_edge(law, law, BETA))
    print(f"{name:>12} " + " ".join(f"{v:10.4f}" for v in row))

print(f"\nxi sweep at rho=0.95 (lambda_- shrinks toward xi -> 1):")
print(f"{'kernel':>12} {'xi=6/5':>10} {'xi=3/2':>10} {'xi=2':>10}")
for name in KERNELS:
    row = []
    for (lnum, m) in ((6, 5), (3, 2), (2, 1)):
        spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
        law = law_upscaled(0.95, spec)
        row.append(support_lower_edge(law, law, BETA))
    print(f"{name:>12} " + " ".join(f"{v:10.4f}" for v in row))

print(f"\nguaranteed signal/noise eigenvalue ratio at SNR {SNR:g} "
      f"(rho=0.95, xi=3/2):")
for name in KERNELS:
    spec = ResampleSpec(L=3, M=2, kernel=KERNELS[name])
    law = law_upscaled(0.95, spec)
    lam_minus = support_lower_edge(law, law, BETA)
    bound = gap_lower_bound(SNR, 1.0, BETA, lam_minus)
    print(f"  {name:>12}: ratio >= {bound:8.1f}")
print(f"noise ceiling (MP upper edge, sigma_w2=1/12, beta={BETA}): "
      f"{mp_edges(1 / 12, BETA).upper:.4f}")
