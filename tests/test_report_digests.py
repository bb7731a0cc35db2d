"""Byte-identity oracle for the verifier's reports on text that is not canonical.

Each case pins the SHA-256 of the ``verify_all`` reports on one reduction's
G' written in one format with its edge lines reversed, as it is and under
each ``mutate_line`` edit at fixed indices.  Every G' is read by the line
parser, and the certificate is rehashed to it, so the structural checks
(not the hash check) judge each edit; a G' the parser refuses records its
error instead.  A refactor of the parser or of the verifier must leave every
digest unchanged; a deliberate change of a report must update them and say
which inputs changed and how.
"""

import dataclasses
import hashlib
import warnings

import pytest

from regmis.graph import GraphError
from regmis.io import FORMATS, parse_graph, serialize_graph
from regmis.verify import verify_all

from test_cli import DIFFERENTIAL_CASES, mutate_line
from test_verify import REPORT_INPUTS

EDITS = ("header-n", "endpoint", "drop", "self-loop")
INDICES = (0, 1, 5, 17, 42, 101, 257, 1009)
CASES = {**{f"report/{k}": v for k, v in REPORT_INPUTS.items()}, **{f"differential/{k}": v for k, v in DIFFERENTIAL_CASES.items()}}


def reversed_text(gp, fmt):
    head, *edges = serialize_graph(gp, fmt).splitlines(keepends=True)
    return head + "".join(reversed(edges))


def corpus(make, fmt):
    """(label, G' text) per input of one case in ``fmt``: the reversed text,
    then each edit at each index; and G and the certificate."""
    g, gp, cert = make()
    text = reversed_text(gp, fmt)
    texts = [("reversed", text)]
    texts += [(f"{edit}@{i}", mutate_line(text, i, edit)) for edit in EDITS for i in INDICES]
    return g, cert, texts


def outcome(g, cert, text, fmt):
    """verify_all's report on the parsed ``text`` with the certificate
    rehashed to it, or the parser's error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an edit may repeat an edge
            gp = parse_graph(text, fmt)
    except GraphError as exc:
        return f"error: {exc}\n"
    return verify_all(g, gp, dataclasses.replace(cert, result_hash=gp.content_hash())).to_json()


def reports(name, fmt):
    g, cert, texts = corpus(CASES[name], fmt)
    return [(label, outcome(g, cert, text, fmt)) for label, text in texts]


def digest(name, fmt):
    return hashlib.sha256("".join(f"{label}\n{out}" for label, out in reports(name, fmt)).encode()).hexdigest()


DIGESTS = {
    ("report/honest-general", "dimacs-col"): "acb408b6035f6cafbca4f2e86a4e08e19fa532221bcfabfb20697e1bbeb1d9c1",
    ("report/honest-general", "edge-list"): "acb408b6035f6cafbca4f2e86a4e08e19fa532221bcfabfb20697e1bbeb1d9c1",
    ("report/honest-padded", "dimacs-col"): "2b12ac675fb6466418cc68b5ac142cf03816ec2842df31ab302916fd55f2aabf",
    ("report/honest-padded", "edge-list"): "2b12ac675fb6466418cc68b5ac142cf03816ec2842df31ab302916fd55f2aabf",
    ("report/honest-planar", "dimacs-col"): "b0c4ae5b8bdaa5d969ddfef0e600391317b9fd88790f3a5c3a22801d49294183",
    ("report/honest-planar", "edge-list"): "b0c4ae5b8bdaa5d969ddfef0e600391317b9fd88790f3a5c3a22801d49294183",
    ("report/deleted-gadget-edge", "dimacs-col"): "cb92f2e2ff6cacb65abfde7f0b0b63fbb009921e373f3212ee4eb12d32223fce",
    ("report/deleted-gadget-edge", "edge-list"): "cb92f2e2ff6cacb65abfde7f0b0b63fbb009921e373f3212ee4eb12d32223fce",
    ("report/offset-plus-one", "dimacs-col"): "06f9a5aab6fce5f1444824cac35f243acbab613458f509df8dd8ce3ad3df20c1",
    ("report/offset-plus-one", "edge-list"): "06f9a5aab6fce5f1444824cac35f243acbab613458f509df8dd8ce3ad3df20c1",
    ("report/port-rewire", "dimacs-col"): "8f6d0407fe0e728f1f9fad3b1a023ff5a8d080cc3e4d2e86bc6668bf85340ddd",
    ("report/port-rewire", "edge-list"): "8f6d0407fe0e728f1f9fad3b1a023ff5a8d080cc3e4d2e86bc6668bf85340ddd",
    ("report/edge-among-originals", "dimacs-col"): "8214b959daf962f9c498ef6e294f73ce71ccf84c04352774f36951ae4634fbc0",
    ("report/edge-among-originals", "edge-list"): "8214b959daf962f9c498ef6e294f73ce71ccf84c04352774f36951ae4634fbc0",
    ("report/planar-gadget-chord", "dimacs-col"): "3214881247b4a25af9287f1eeecb6338f1fcbe739e9fcc3498ce50d059b5ae7e",
    ("report/planar-gadget-chord", "edge-list"): "3214881247b4a25af9287f1eeecb6338f1fcbe739e9fcc3498ce50d059b5ae7e",
    ("report/overlapping-ranges", "dimacs-col"): "d07deb5cec8aabeeef1a68037871c3df266e7e602843a506a871b98c09fcc103",
    ("report/overlapping-ranges", "edge-list"): "d07deb5cec8aabeeef1a68037871c3df266e7e602843a506a871b98c09fcc103",
    ("report/range-past-reduced-graph", "dimacs-col"): "b588015720e807ba781467b30104fb755942a6b69af6b05516942a643c54d2b8",
    ("report/range-past-reduced-graph", "edge-list"): "b588015720e807ba781467b30104fb755942a6b69af6b05516942a643c54d2b8",
    ("report/planar-range-past-reduced-graph", "dimacs-col"): "b48339252e6c3b9db03a7a42bd272d01057dc25903cdf7a6324263e44914062d",
    ("report/planar-range-past-reduced-graph", "edge-list"): "b48339252e6c3b9db03a7a42bd272d01057dc25903cdf7a6324263e44914062d",
    ("report/dropped-gadget", "dimacs-col"): "6f4305a199e0f09268870d3e40bfb6eae36cf52cba405689ffbea5ff53255f3a",
    ("report/dropped-gadget", "edge-list"): "6f4305a199e0f09268870d3e40bfb6eae36cf52cba405689ffbea5ff53255f3a",
    ("report/ports-joined", "dimacs-col"): "bfb1c6133f6f0f216c3e2b3b0271adfdb10bd90169424fafc84e2223d6967d5d",
    ("report/ports-joined", "edge-list"): "bfb1c6133f6f0f216c3e2b3b0271adfdb10bd90169424fafc84e2223d6967d5d",
    ("report/edge-between-gadgets", "dimacs-col"): "1a398ded6b2cdcceea391513d3f95e918a83a7bf05cd20df6f55b947042c83e9",
    ("report/edge-between-gadgets", "edge-list"): "1a398ded6b2cdcceea391513d3f95e918a83a7bf05cd20df6f55b947042c83e9",
    ("report/forged-gadget-alpha-general", "dimacs-col"): "cea4ff4d5261b8e795da3bcc56de10c8167f73330cbecc06080f327506b60fab",
    ("report/forged-gadget-alpha-general", "edge-list"): "cea4ff4d5261b8e795da3bcc56de10c8167f73330cbecc06080f327506b60fab",
    ("report/forged-gadget-alpha-planar", "dimacs-col"): "de58fe083ac9bc42eea8259717c10c84bb1e729f6339fcc8f6b0d61585ee7277",
    ("report/forged-gadget-alpha-planar", "edge-list"): "de58fe083ac9bc42eea8259717c10c84bb1e729f6339fcc8f6b0d61585ee7277",
    ("report/mixed-deltas", "dimacs-col"): "803aa7254f3a3c78a44ee4ead383bfb2709c5b8ae9f32f80e6744c84ebe2fc2f",
    ("report/mixed-deltas", "edge-list"): "803aa7254f3a3c78a44ee4ead383bfb2709c5b8ae9f32f80e6744c84ebe2fc2f",
    ("report/even-degree", "dimacs-col"): "b779e87045e45784c8ad44fd5dd2de125105cbba6e9ec30e2da561b2e70c9cbc",
    ("report/even-degree", "edge-list"): "b779e87045e45784c8ad44fd5dd2de125105cbba6e9ec30e2da561b2e70c9cbc",
    ("report/unknown-kind", "dimacs-col"): "5af3f1afa71c5cb8377215e62498418a062446fa0c9ea407af3c6961ffba61c7",
    ("report/unknown-kind", "edge-list"): "5af3f1afa71c5cb8377215e62498418a062446fa0c9ea407af3c6961ffba61c7",
    ("report/extra-triangle", "dimacs-col"): "4af7b742b0109740efb05b23dd37701c02db244468fef0f134a8dde963e26fdd",
    ("report/extra-triangle", "edge-list"): "4af7b742b0109740efb05b23dd37701c02db244468fef0f134a8dde963e26fdd",
    ("differential/general", "dimacs-col"): "acb408b6035f6cafbca4f2e86a4e08e19fa532221bcfabfb20697e1bbeb1d9c1",
    ("differential/general", "edge-list"): "acb408b6035f6cafbca4f2e86a4e08e19fa532221bcfabfb20697e1bbeb1d9c1",
    ("differential/padded", "dimacs-col"): "2b12ac675fb6466418cc68b5ac142cf03816ec2842df31ab302916fd55f2aabf",
    ("differential/padded", "edge-list"): "2b12ac675fb6466418cc68b5ac142cf03816ec2842df31ab302916fd55f2aabf",
    ("differential/planar", "dimacs-col"): "b0c4ae5b8bdaa5d969ddfef0e600391317b9fd88790f3a5c3a22801d49294183",
    ("differential/planar", "edge-list"): "b0c4ae5b8bdaa5d969ddfef0e600391317b9fd88790f3a5c3a22801d49294183",
}


def test_every_case_is_pinned():
    assert set(DIGESTS) == {(name, fmt) for name in CASES for fmt in FORMATS}


@pytest.mark.parametrize("name, fmt", sorted(DIGESTS))
def test_reports_are_pinned(name, fmt):
    assert digest(name, fmt) == DIGESTS[name, fmt]
