"""Verify the analytic gradients against central finite differences.

Runs the full training loss (velocity + pressure + drag terms) through
the reverse-mode engine on a tiny double-precision model and compares
every parameter tensor's gradient to a finite-difference estimate.
Exits 1 when the check fails.
"""

import sys

from aerosurrogate.training import grad_check

report = grad_check()
print(f"checked {len(report.per_tensor)} parameter tensors, h = 1e-5")
print(f"max relative error: {report.max_rel_error:.3e} "
      f"(tolerance {report.tolerance:g})")

worst = sorted(report.per_tensor.items(), key=lambda kv: -kv[1])[:5]
print("\nfive largest per-tensor errors:")
for name, err in worst:
    print(f"  {name:<28} {err:.3e}")

print("\nPASS" if report.passed else "\nFAIL")
sys.exit(0 if report.passed else 1)
