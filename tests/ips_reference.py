"""The Full IPS check as the package built it before it decided the
composition through the peel, kept as the reference oracle.

``reference_verify_full_ips`` is the earlier ``ips.verify_full_ips``,
unchanged but for its name: it substitutes zero for the z block and then
the equations for it, each with ``Polynomial.substitute``, and compares the
full expansion with the constant one.  ``test_ips.py`` requires
``ips.verify_full_ips`` to give the same verdict, reason and degree.
"""

from __future__ import annotations

from annforge.errors import InputError, SupportOverflowError
from annforge.ips import EquationSystem, Refutation, VerifyResult
from annforge.poly import Polynomial


def reference_verify_full_ips(ref: Refutation, system: EquationSystem) -> VerifyResult:
    """Accept iff r(x, f(x)) = 1 and r(x, 0) = 0, both exact.  The z-block
    occupies ids n..n+m-1, n the map's seed length."""
    if ref.kind != "full":
        raise InputError("refutation kind must be full")
    n = system.map.seed_len
    m = len(system.equations)
    f = system.map.field
    r = ref.r
    bad = [v for v in r.variables() if v >= n + m]
    if bad:
        raise SupportOverflowError(
            f"refutation uses ids {bad} but the system allows ids < {n + m}"
        )
    degree = r.degree()
    zero = Polynomial.zero(f)
    at_zero = r.substitute({n + j: zero for j in range(m)})
    if not at_zero.is_zero():
        return VerifyResult(False, "zero-substitution-nonzero", degree)
    composed = r.substitute({n + j: system.equations[j] for j in range(m)})
    if composed != Polynomial.constant(f, 1):
        return VerifyResult(False, "composition-not-one", degree)
    return VerifyResult(True, None, degree)
