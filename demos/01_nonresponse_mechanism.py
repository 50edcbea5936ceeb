"""Walk through the logistic nonresponse model and its key shift identity.

The model says: the log odds that a target value is observed are linear in the
value itself and in fully observed covariates. A positive slope on the target
means high values are seen more often, so the missing part of the sample sits
systematically below the observed part. When the observed part is normal with
residual variance sigma2 given the covariates, that downward shift is exactly
slope * sigma2 - the quantity the random-indicator imputer estimates from data.

The reference population and the cell means come from the test suite's
selection oracle (tests/selection_oracle.py).

Run:  python demos/01_nonresponse_mechanism.py
"""

import sys
from pathlib import Path

import numpy as np

from riimpute import NonresponseParams, RngStream, generate_missingness, response_probability

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from selection_oracle import cell_means, sample_selection_population  # noqa: E402

rng_pop = RngStream(2024, 0)
rng_r = RngStream(2024, 1)
rng_rdot = RngStream(2024, 2)

print("response probabilities under a few settings")
print("-" * 55)
flat = NonresponseParams(-0.75, 0.0)
steep = NonresponseParams(-2.0, 1.5)
for x in (-1.0, 0.0, 1.0, 2.0):
    print(
        f"  target={x:+.1f}   constant model: {response_probability(flat, x):.3f}"
        f"   value-driven model: {response_probability(steep, x):.3f}"
    )
print()

# A population whose observed part is exactly normal under this selection
# model: the missing part must then be normal too, shifted down by
# slope * variance. Draw a million rows and check both facts empirically.
n = 1_000_000
sigma2 = 1.0
params = NonresponseParams(-1.0, 1.2, [0.3])
z = rng_pop.generator.normal(0.0, 1.0, n)
mu_z = 2.0 + 0.5 * z
x = sample_selection_population(params, mu_z, z[:, None], sigma2, rng_pop)
observed = generate_missingness(x, z[:, None], params, rng_r)

centered = x - mu_z
obs = observed == 1
print(f"observed fraction: {obs.mean():.3f}")
print(f"observed-part mean offset:  {centered[obs].mean():+.4f}   (expect  0)")
print(
    f"missing-part mean offset:   {centered[~obs].mean():+.4f}   "
    f"(expect {-params.psi1 * sigma2:+.4f} = -slope*variance)"
)
print(f"variance ratio missing/observed: {centered[~obs].var() / centered[obs].var():.3f}")
print()

# Cross-classify by a second, independent draw of the indicator. The two
# off-diagonal cells have the same mean, and each one-step difference equals
# slope * variance again - the identity the imputer exploits.
params2 = NonresponseParams(-0.5, 0.8)
x2 = sample_selection_population(params2, np.full(n, 1.0), None, sigma2, RngStream(2024, 3), indicators=2)
r = generate_missingness(x2, None, params2, RngStream(2024, 4))
rdot = generate_missingness(x2, None, params2, RngStream(2024, 5))
cells = cell_means(x2, r, rdot)
print("cross-classified cell means (second indicator drawn independently)")
print("-" * 55)
print(f"  both observed      {cells[1, 1]:+.4f}")
print(f"  observed/missed    {cells[1, 0]:+.4f}")
print(f"  missed/observed    {cells[0, 1]:+.4f}   <- equals the row above")
print(f"  both missed        {cells[0, 0]:+.4f}")
print(f"  observed-part difference: {cells[1, 1] - cells[1, 0]:.4f}   (expect {params2.psi1 * sigma2})")
print(f"  missing-part difference:  {cells[0, 1] - cells[0, 0]:.4f}   (expect {params2.psi1 * sigma2})")
