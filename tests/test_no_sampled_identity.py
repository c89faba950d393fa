"""No report samples the sign identity.

``obstruction.rho_forcing_check`` decides the identity c'(gh, y) = c'(g, hy)
c'(h, y) by its exact proof on the relators and inverse pairs, so a
sampled trial can only repeat the verdict or, after a failed proof, print
``0 violations`` under it.  ``verify_sign_identity`` stays a library
sampler; no module of the package calls it, so the trials cannot come back
as a fallback.  Its definition and the package's re-export are not calls.
"""

import ast

from test_one_relations_check import PACKAGE, _calls


def test_no_module_calls_the_sign_identity_sampler():
    calls = {
        path.stem: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _calls(ast.parse(path.read_text()), {"verify_sign_identity"}))
    }
    assert calls == {}
