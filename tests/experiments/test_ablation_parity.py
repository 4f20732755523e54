"""Campaign declarations reproduce the hand-written ablation studies.

The eight ``ALL_STUDIES`` used to be hand-rolled modules; they are now
:class:`~repro.experiments.campaign.Campaign` declarations.  Their
fixed-seed rows and notes, first captured from the pre-refactor code,
are committed as ``benchmarks/results/ABL-XX.json`` — the declarations
must reproduce them bit-identically.

Only the cheap studies run here; CI's ``rows`` job reruns the full set
(``benchmarks/test_ablations.py``) and diffs the store.
"""

import pytest

from repro.experiments import ablations
from repro.experiments.campaign import describe

from .test_determinism import committed, fresh

#: studies cheap enough for the tier-1 suite (about 8 s together)
CHEAP = ("ABL-DP", "ABL-CO", "ABL-RS", "ABL-SW", "ABL-CS", "ABL-DC")


class TestGoldenRowParity:
    @pytest.mark.parametrize("exp_id", CHEAP)
    def test_rows_and_notes_bit_identical(self, exp_id):
        assert fresh(exp_id) == committed(exp_id)


class TestDocstringRegeneration:
    """Satellite fix: the module docstring used to list five of the
    eight studies by hand; it is now generated from the registry."""

    def test_every_study_listed(self):
        doc = ablations.__doc__
        for camp in ablations.ALL_STUDIES:
            assert camp.exp_id in doc, camp.exp_id
            assert camp.slug in doc, camp.slug

    def test_listing_matches_registry_output(self):
        assert describe(ablations.ALL_STUDIES) in ablations.__doc__

    def test_slugs_are_the_module_bindings(self):
        for camp in ablations.ALL_STUDIES:
            assert getattr(ablations, camp.slug) is camp
