"""Operation-count budget for `verify` on a pruefer_fc spec.

Counts depend only on the spec, the sample count and the seed, never on
the host, so a regression in how often the cut kernel rebuilds cuts,
normalises cuts that are already canonical or re-runs the constituent-group
audit fails here without timing anything.
"""

import json

from tclass import cuts as C
from tclass.cli import cmd_verify, load_model

SPEC = json.dumps({"kind": "pruefer_fc", "valuations": [[{"Zloc": [2]}], ["Z", "Q"]]})

# The same run when every `Cut` re-wrapped its coordinates, `normalize`
# always built a new cut and `psi_localize` ran `group_membership` on every
# component: 18328 `Cut` constructions and 213 `cuts.group_membership`
# calls.  The budget is half of each.
CUTS_BEFORE = 18328
MEMBERSHIPS_BEFORE = 213
# And when every kernel operation normalised the canonical cuts it was
# handed: 5131 `cuts.normalize` calls.  The budget is half.
NORMALIZE_BEFORE = 5131


def test_verify_pruefer_stays_within_operation_budget(monkeypatch):
    counts = {"cuts": 0, "memberships": 0, "normalize": 0}
    post_init, membership, normalize = C.Cut.__post_init__, C.group_membership, C.normalize

    def counted_post_init(self):
        counts["cuts"] += 1
        post_init(self)

    def counted_membership(*args):
        counts["memberships"] += 1
        return membership(*args)

    def counted_normalize(*args):
        counts["normalize"] += 1
        return normalize(*args)

    monkeypatch.setattr(C.Cut, "__post_init__", counted_post_init)
    monkeypatch.setattr(C, "group_membership", counted_membership)
    monkeypatch.setattr(C, "normalize", counted_normalize)
    kind, model = load_model(SPEC)
    report = cmd_verify(kind, model, 3, 1, None)

    assert report["passed"]
    assert [c["instances"] for c in report["checks"]] == [3, 3, 18, 3]
    assert counts["memberships"] > 0
    assert counts["cuts"] <= CUTS_BEFORE // 2, counts
    assert counts["memberships"] <= MEMBERSHIPS_BEFORE // 2, counts
    assert counts["normalize"] <= NORMALIZE_BEFORE // 2, counts
