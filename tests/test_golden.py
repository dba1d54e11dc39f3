"""Golden digests of the CLI's JSON output: the README's bit-reproducibility promise.

Each case runs one command through ``twistlab.cli.main`` and compares the exit
code and the sha256 of its standard output with a pinned value.  The words
cover A2, A4, D4, D5 and E6 over GF(2), QQ and GF(3); each word is twisted,
recovered from its image (``recover --word``) and compared with a second word
by ``braid-eq --mode category``, which recovers both words' images and
compares the peel sequences.  ``mesh-solve`` runs on its own words, on which
the mesh hypotheses hold (plus two on which they fail, exit 2), in all three
output formats.  A change to the engine that alters a single byte of
any output fails here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from twistlab.braid import diagram_from_name
from twistlab.cli import main
from twistlab.complexes import complex_from_json_obj, complex_to_json_obj
from twistlab.fields import field_from_name
from twistlab.zigzag import ZigzagAlgebra

# (diagram, field, word, second word for braid-eq)
WORDS = [
    ("A2", "f2", "1,2,1", "2,1,2"),
    ("A2", "q", "2,1,2,1", "1,2,1,1"),
    ("A2", "f3", "1,1,2", "2,1,1"),
    ("A4", "f2", "1,3,2,4,3,1", "3,1,2,4,3,1"),
    ("A4", "q", "2,1,3,2,4,3,2", "2,3,1,2,4,3,2"),
    ("A4", "f3", "4,3,2,1,2,3", "4,3,1,2,1,3"),
    ("A4", "q", "1,2,3,4,4,3,2,1", "1,2,3,4,3,4,2,1"),
    ("D4", "f2", "2,1,3,4,2", "2,3,1,4,2"),
    ("D4", "q", "1,2,3,2,4,2,1", "1,3,2,3,4,2,1"),
    ("D4", "f3", "3,2,4,2", "3,4,2,4"),
    ("D4", "f2", "1,3,4,2,1,3,4,2", "1,3,4,2,1,4,3,2"),
    ("D5", "f2", "1,2,3,4,5,3", "1,2,3,4,3,5"),
    ("D5", "q", "5,3,2,1,3,4", "5,3,2,3,1,4"),
    ("D5", "f3", "2,3,5,4,3,2,1", "2,5,3,4,3,2,1"),
    ("D5", "f2", "4,5,4,2,1,2", "5,4,5,1,2,1"),
    ("E6", "f2", "1,3,4,2,5,4", "1,3,4,5,2,4"),
    ("E6", "q", "4,2,3,5,4,6", "4,2,5,3,4,6"),
    ("E6", "f3", "6,5,4,3,1", "6,5,4,1,3"),
    ("E6", "f2", "2,4,3,5,4,2,6", "2,4,5,3,4,2,6"),
    ("E6", "q", "1,3,1,4,2", "3,1,3,4,2"),
    ("A4", "q", "1,2,3,4,3,2,1,2,3,1,4", "1,2,3,4,3,2,1,2,3,4,1"),
    ("E6", "f3", "1,3,4,5,6,2,4,3,5", "1,3,4,5,2,6,4,3,5"),
]

COMMANDS = {
    "twist": lambda w, w2: ["twist", w],
    "recover": lambda w, w2: ["recover", "--word", w],
    "braid-eq": lambda w, w2: ["braid-eq", w, w2, "--mode", "category"],
}

# (diagram, mesh-solve arguments); the field plays no part in mesh braiding
MESH_WORDS = [
    ("A2", ["1,2,1"]),
    ("A2", ["1,1"]),
    ("A3", ["2,1,3,2,3"]),
    ("A3", ["1,2,1,3", "--seed-vertex", "1"]),
    ("A4", ["4,3,2,4"]),
    ("A4", ["2,3,4,1,3,2"]),
    ("A4", ["2,3,2,1,4,2,3"]),
    ("D4", ["3,2,1,2"]),
    ("D4", ["2,3,2,1,4,2"]),
    ("D4", ["2,3,4,2,3,1,2,3"]),
    ("D4", ["2,1,3,4,2,1,3,4,2,4"]),
    ("D5", ["5,4,5,2"]),
    ("D5", ["4,2,5,3,4,5"]),
    ("D5", ["3,2,4,1,5,2,4,3,1"]),
    ("D5", ["1,2,3,4,5,3"]),
    ("E6", ["4,3,4,5"]),
    ("E6", ["6,5,4,3,6,2"]),
    ("E6", ["4,3,2,1,3,5,4"]),
    ("E6", ["1,3,1,4,2"]),
]
MESH_FORMATS = {"D5": "text", "E6": "dot"}  # the first word of each also runs in this format

# "<command> <diagram> <field> <word>" and "mesh-solve <diagram> [<format>] <args>"
# -> (exit code, sha256 of stdout)
GOLDEN = {
    'twist A2 f2 1,2,1': (0, 'ea3d1592788c7f4da33fb474a3a7f1ae7de394694f52f2fed33ad785de5fee86'),
    'recover A2 f2 1,2,1': (0, 'a960200cf9fae3225cf757b8fd0c562de5ef3bd666dce3ce855f632507656bd2'),
    'braid-eq A2 f2 1,2,1': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A2 q 2,1,2,1': (0, 'eac17a2489c881b9a713a6965cc4c0b060e79defeb464954a467bd478833e30d'),
    'recover A2 q 2,1,2,1': (0, '38896205694d517559ee1934b3627a05e756858f4a620591fcf6dfa216870c81'),
    'braid-eq A2 q 2,1,2,1': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A2 f3 1,1,2': (0, '0b3c00d30720fd2f7756795eccd4c42d5091ee3e84f94378662e4c85790cc901'),
    'recover A2 f3 1,1,2': (0, '4c1955e485ca3ce21f795b90800420d20eb166fcfe5d76a33dc1b1cc2a39405e'),
    'braid-eq A2 f3 1,1,2': (1, 'bf0f26a021864299faa60d1330b901ff93d6be26702e43f779d8debb7b6d0b7c'),
    'twist A4 f2 1,3,2,4,3,1': (0, '256c316be016f6d4c490e0c01820069693f1caf183bf189b26a57828cbfe89ff'),
    'recover A4 f2 1,3,2,4,3,1': (0, 'fe96253056771b73c51c1731bb64f82184165f28cfc53c6c17503c75d8590025'),
    'braid-eq A4 f2 1,3,2,4,3,1': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A4 q 2,1,3,2,4,3,2': (0, '77f19b465814493b9e311b7bc6cc6a6ea6827aa0d0bd98d01765fe247311d5f5'),
    'recover A4 q 2,1,3,2,4,3,2': (0, '681b9b425e1a92d91031692b43d161d92b69f841059012ee5cf0e3d5748737ce'),
    'braid-eq A4 q 2,1,3,2,4,3,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A4 f3 4,3,2,1,2,3': (0, '046ef5dae1615720875331e32e0d2fe75d33496dbe009f554b21410059de4d90'),
    'recover A4 f3 4,3,2,1,2,3': (0, '10586378a62af1fecaf328f8d1a3e3394fb6c164e5f4dd9fbcdb82e29ea20c8a'),
    'braid-eq A4 f3 4,3,2,1,2,3': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A4 q 1,2,3,4,4,3,2,1': (0, 'ed31d790a0a4c7621a6e9cb78edacbc61c47ff1853b8bbc62e8d038d8a8bc182'),
    'recover A4 q 1,2,3,4,4,3,2,1': (0, 'b3d0169348930bc6863b0c5344d77029fb8a1fd47c7ceaccef5483794bf3ca94'),
    'braid-eq A4 q 1,2,3,4,4,3,2,1': (1, 'bf0f26a021864299faa60d1330b901ff93d6be26702e43f779d8debb7b6d0b7c'),
    'twist D4 f2 2,1,3,4,2': (0, 'a29955b9d4121e4e27e31faa9b9f1d735669b1f23aeab7861546868e4d11ae68'),
    'recover D4 f2 2,1,3,4,2': (0, '50c141222d0f35cdf2bc89005a15e3a4e89aca0a929417cdba610b59eadaeb73'),
    'braid-eq D4 f2 2,1,3,4,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D4 q 1,2,3,2,4,2,1': (0, 'e9b191af5e02476b174f1e73f3c74e626cd969f14e6a15fb9da2b2024be6ef84'),
    'recover D4 q 1,2,3,2,4,2,1': (0, '51344181627f59d71a38bc06af9dc2cb3911a798a91ca317969af4e8009782e8'),
    'braid-eq D4 q 1,2,3,2,4,2,1': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D4 f3 3,2,4,2': (0, '883cf876ea56f3086870395ad50ed7a006f18ef376a02baf0b01f5b70b6ffed7'),
    'recover D4 f3 3,2,4,2': (0, '218f0dfce03d3a82473b7b3436f70ed4dfa395041bc901ba5cdeb079c20a8fbd'),
    'braid-eq D4 f3 3,2,4,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D4 f2 1,3,4,2,1,3,4,2': (0, '38f3f90cf0a55fc21f5656d9ff59a4aa4be27bcb816d01d651ef8213b1e2616a'),
    'recover D4 f2 1,3,4,2,1,3,4,2': (0, 'c2fa3ba2fc7432b56fa82200080c62f2f0ed7c88d1c65cab0b79e807e99c79e2'),
    'braid-eq D4 f2 1,3,4,2,1,3,4,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D5 f2 1,2,3,4,5,3': (0, '875c75fdc3e4493043e859d1583b063faa2a7f99626d5b52f636e4e2f9689562'),
    'recover D5 f2 1,2,3,4,5,3': (0, 'dd6fe467c99c5f5958d253901348ccb8b23c32cf684daff6881d4d6cb869df10'),
    'braid-eq D5 f2 1,2,3,4,5,3': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D5 q 5,3,2,1,3,4': (0, '1ee084d859a97e85d2b83fccc8083f65c8503f91c0c90534de4445908f4900ab'),
    'recover D5 q 5,3,2,1,3,4': (0, 'a342fe2152199a78fd85fee57b5144ee9708c57c6fa49b5dc9c92a9af6afea09'),
    'braid-eq D5 q 5,3,2,1,3,4': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D5 f3 2,3,5,4,3,2,1': (0, 'de61cc5e766820b38030dd856ef020f5627db9a2366499cdb3674624c6bb11ec'),
    'recover D5 f3 2,3,5,4,3,2,1': (0, 'c2a8a7b66fd219b8994f4923ff967848eeb1ac6c812f848e955f310ed6614e47'),
    'braid-eq D5 f3 2,3,5,4,3,2,1': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist D5 f2 4,5,4,2,1,2': (0, '1fa897a3bd64ab3dbd137b3dd9f289161934d3b9e85930b4c4d35bf505910f59'),
    'recover D5 f2 4,5,4,2,1,2': (0, '5105c2601340b8842f80579b15ea9891c6c0dd21b83e49e030af106d5f818651'),
    'braid-eq D5 f2 4,5,4,2,1,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist E6 f2 1,3,4,2,5,4': (0, '93f28a06d701bd2387dcae9766f54bbaa2f3f44779887a275ac9b906c20d8d05'),
    'recover E6 f2 1,3,4,2,5,4': (0, '6ac9c1203f3eba94933d6e519b179e9370914ce8687eebc7e01ff2e39b8a8c0c'),
    'braid-eq E6 f2 1,3,4,2,5,4': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist E6 q 4,2,3,5,4,6': (0, '4498fa4222e4589352d9ecbd1265075d05fa474f4e4d6f5a1b2d8466233c4f68'),
    'recover E6 q 4,2,3,5,4,6': (0, '6070fdac3cccf5ec766b1f6713e0258a4fd6e20fffa31701d793a0b85fcad616'),
    'braid-eq E6 q 4,2,3,5,4,6': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist E6 f3 6,5,4,3,1': (0, 'a5f48db524ab68cfd80294bde88754ded690167fa8feb081c5d02e9ece24e78d'),
    'recover E6 f3 6,5,4,3,1': (0, '64e6c0204aee95bf38ebf59c778532e0c340c362c4e2a7d20ad655c9ca2c397a'),
    'braid-eq E6 f3 6,5,4,3,1': (1, 'bf0f26a021864299faa60d1330b901ff93d6be26702e43f779d8debb7b6d0b7c'),
    'twist E6 f2 2,4,3,5,4,2,6': (0, '2644b98a1be95bd0bf3a0d825301adb58449fd8be3fb6e5e457dcf513c86ce2d'),
    'recover E6 f2 2,4,3,5,4,2,6': (0, 'edb4c859c758d5dfdf82916d88ac7480cbcf51e438c297600b4826548da9a024'),
    'braid-eq E6 f2 2,4,3,5,4,2,6': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist E6 q 1,3,1,4,2': (0, '1f82a11f6066d1f05bb477d8de9d038c8d8d68987795b33d5f76b833fe2b1773'),
    'recover E6 q 1,3,1,4,2': (0, 'a1bf312c48c84b4adfb8a84988638a7a9ae39b2d6d7b202ed6fb6f4ebff05cc4'),
    'braid-eq E6 q 1,3,1,4,2': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist A4 q 1,2,3,4,3,2,1,2,3,1,4': (0, 'ae7433df3fdadf7aca34dd93fe3699e68c2dbd12df5a8e2f39c07f55a6d409a6'),
    'recover A4 q 1,2,3,4,3,2,1,2,3,1,4': (0, 'a4b14fcac5546f0862229c22c8fb81fd655156b9f150145497e019661b706fbb'),
    'braid-eq A4 q 1,2,3,4,3,2,1,2,3,1,4': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'twist E6 f3 1,3,4,5,6,2,4,3,5': (0, '8012e2dfd8a7ed2f2ee4be034fc88d04125347d61759674e8ef047038b59f4a0'),
    'recover E6 f3 1,3,4,5,6,2,4,3,5': (0, '3cc6f5c83dac8f95d999ffb1eb4642284f53aff1afbf0ac4ad2d0f9887e0d946'),
    'braid-eq E6 f3 1,3,4,5,6,2,4,3,5': (0, '9ebddb67f6dcdda091b6ead9a710950603410c24aea795761d994bb56b3f1a06'),
    'mesh-solve A2 1,2,1': (0, '48013d81ae5b88d3f6c6e42f5700b5a7ac7483b863d86086127e95bbb21918f1'),
    'mesh-solve A2 1,1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mesh-solve A3 2,1,3,2,3': (0, '0635df2f1b593ae13f45f5ec4c82967f5e2443f09c60c536f15295bca16f1109'),
    'mesh-solve A3 1,2,1,3 --seed-vertex 1': (0, '5389fce70ac1aad0dd351799b87d4b7ad903a18e589480015e0ef7db1bd0d290'),
    'mesh-solve A4 4,3,2,4': (0, 'd77951bc4d32044c24b8eb0d6df1a6d73aa0561e011bc49d95df0df3ce2c901b'),
    'mesh-solve A4 2,3,4,1,3,2': (0, 'a5d3d2562a12d41d2725af4c85298d307ab0d9e49b02f16ae6cb872c9e8d1311'),
    'mesh-solve A4 2,3,2,1,4,2,3': (0, 'c91fd43efbe649ba96168b0e8b0bdd11140a0cc87f8be63509706dd68b76d163'),
    'mesh-solve D4 3,2,1,2': (0, 'b9c22264d87dbcfab14d3ea2cb22940784c1f727d5591ca1819294b85ed20e50'),
    'mesh-solve D4 2,3,2,1,4,2': (0, '5380a720d70f07d90406902bb993a4a54aa3ba63b51a941e6a60c4efca591247'),
    'mesh-solve D4 2,3,4,2,3,1,2,3': (0, 'fe58207d7262845a49816b1b7b83505f96d17ed0251289fa1f83d25e7b4c4209'),
    'mesh-solve D4 2,1,3,4,2,1,3,4,2,4': (0, '6b5faf0f3d09a638b5585318f7f6a3596f6e4e4a8673b836f44f2ba23ac69a55'),
    'mesh-solve D5 5,4,5,2': (0, '3edb7d5ba0204d36b6c4a6b1c9c7bada188b35b663ecc3d5a3545fdbd364db96'),
    'mesh-solve D5 4,2,5,3,4,5': (0, '8ebd78e61847ebd7ccb25db01d326b6c748772bff8c17bb35ad3483abdb41df1'),
    'mesh-solve D5 3,2,4,1,5,2,4,3,1': (0, '7a3bcc6a6a92069ed43c5b79bb6525d24adfa6808fa9d9830a1a3ece87d5c865'),
    'mesh-solve D5 1,2,3,4,5,3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'mesh-solve E6 4,3,4,5': (0, 'f99b2a9bf1d5b93f1cba9c13ed7f9aa1cce04fb3d823fbd7a02de776934915b9'),
    'mesh-solve E6 6,5,4,3,6,2': (0, '77b34cc04d8784a4e224e55c2ee64c88193b23246b008c7d42af3eab4b3e4975'),
    'mesh-solve E6 4,3,2,1,3,5,4': (0, '3b3da3918a787aef5475972a4edcce5997c7338f70c41701ebecefa482eea457'),
    'mesh-solve E6 1,3,1,4,2': (0, '6cd85b2a123f15d28a7db3897482c3924bb625e5b28b94eff03a07b20c2bea82'),
    'mesh-solve D5 text 5,4,5,2': (0, 'b0bfc10679a8eed3e4cb0557726da951d72c5d1398c04aab07ca6b779a3bd63b'),
    'mesh-solve E6 dot 4,3,4,5': (0, '00165ffbb7c2005f64f9ec374760fc7745742fb17203249a103ce048464a9d7e'),
}


def _cases():
    for diagram, field, w, w2 in WORDS:
        for name, argv in COMMANDS.items():
            yield f"{name} {diagram} {field} {w}", ["--diagram", diagram, "--field", field, *argv(w, w2)]
    for diagram, args in MESH_WORDS:
        yield f"mesh-solve {diagram} {' '.join(args)}", ["--diagram", diagram, "mesh-solve", *args]
    for diagram, fmt in MESH_FORMATS.items():
        args = next(a for d, a in MESH_WORDS if d == diagram)
        yield (
            f"mesh-solve {diagram} {fmt} {' '.join(args)}",
            ["--diagram", diagram, "--format", fmt, "mesh-solve", *args],
        )


CASES = list(_cases())


def run_case(argv, stdin=""):
    """(exit code, sha256 of standard output) of one CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _stdin(stdin):
        code = main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@contextlib.contextmanager
def _stdin(text):
    import sys

    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(case for case, _ in CASES)


@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_golden_digest(case, argv):
    assert run_case(argv) == GOLDEN[case]


# -- complexes read from stdin ------------------------------------------------

# Twist images fed back in: (diagram, field, word whose image is read, word
# that `twist --object -` then applies).  Each image is `twist`'s own JSON
# output, pinned above, so these cases pin the JSON decoder on complexes
# with nonzero differentials in several degrees.
FEEDS = [
    ("A2", "f2", "1,2,1", "2"),
    ("A2", "q", "2,1,2,1", "1,1"),
    ("A4", "f3", "4,3,2,1,2,3", "2,4"),
    ("A4", "q", "2,1,3,2,4,3,2", "3"),
    ("D4", "f2", "2,1,3,4,2", "4,2"),
    ("D5", "f3", "2,3,5,4,3,2,1", "5"),
    ("E6", "q", "1,3,1,4,2", "3,6"),
]

# Hand-written complexes in the dense JSON form: null and zero-term cells,
# non-minimal differentials, a three-term complex, and coefficients that
# differ over QQ and GF(3).  (name, diagram, field, complex)
HAND = [
    (
        "arrow-cone-with-nulls",
        "A2",
        "f3",
        {
            "degrees": {"-1": [1, 1], "0": [2]},
            "diffs": {"-1": [[None, {"src": 1, "tgt": 2, "terms": [{"kind": "arrow", "coef": "2"}]}]]},
        },
    ),
    (
        "unit-and-zero-term-cells",
        "A3",
        "q",
        {
            "degrees": {"-1": [1, 2], "0": [1, 3]},
            "diffs": {
                "-1": [
                    [
                        {"src": 1, "tgt": 1, "terms": [{"kind": "id", "coef": "-1/2"}, {"kind": "loop", "coef": "3"}]},
                        {"src": 2, "tgt": 1, "terms": [{"kind": "arrow", "coef": "1"}]},
                    ],
                    [{"src": 1, "tgt": 3, "terms": []}, {"src": 2, "tgt": 3, "terms": [{"kind": "arrow", "coef": "-1"}]}],
                ]
            },
        },
    ),
    (
        "three-term-loops",
        "A2",
        "f2",
        {
            "degrees": {"-1": [2], "0": [2], "1": [2, 1]},
            "diffs": {
                "-1": [[{"src": 2, "tgt": 2, "terms": [{"kind": "loop", "coef": "1"}]}]],
                "0": [[{"src": 2, "tgt": 2, "terms": [{"kind": "loop", "coef": "1"}]}], [None]],
            },
        },
    ),
]


def _image(diagram, field, w):
    """The complex that `twist w` prints, as a JSON object."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["--diagram", diagram, "--field", field, "twist", w]) == 0
    return json.loads(buf.getvalue())["complex"]


def _stdin_cases():
    for diagram, field, w, w2 in FEEDS:
        head = ["--diagram", diagram, "--field", field]
        yield f"twist - {diagram} {field} {w} | {w2}", head + ["twist", w2, "--object", "-"], (diagram, field, w)
        yield f"recover - {diagram} {field} {w}", head + ["recover"], (diagram, field, w)
    for name, diagram, field, _ in HAND:
        head = ["--diagram", diagram, "--field", field]
        yield f"twist - {name} | 1", head + ["twist", "1", "--object", "-"], name
        yield f"twist - {name} | empty", head + ["twist", "", "--object", "-"], name
        yield f"recover - {name}", head + ["recover"], name


STDIN_CASES = list(_stdin_cases())


def _stdin_text(source):
    if isinstance(source, str):
        return json.dumps(next(obj for name, _, _, obj in HAND if name == source))
    return json.dumps(_image(*source))


# "<command> - <input>" -> (exit code, sha256 of stdout), generated before the
# differentials were stored sparsely
GOLDEN_STDIN = {
    'twist - A2 f2 1,2,1 | 2': (0, 'eac17a2489c881b9a713a6965cc4c0b060e79defeb464954a467bd478833e30d'),
    'recover - A2 f2 1,2,1': (0, 'a960200cf9fae3225cf757b8fd0c562de5ef3bd666dce3ce855f632507656bd2'),
    'twist - A2 q 2,1,2,1 | 1,1': (0, '9087c3596c71cc08a545d627dd28dfa565f4bea22ed3ebbbbcf9a24c15caeaf5'),
    'recover - A2 q 2,1,2,1': (0, '38896205694d517559ee1934b3627a05e756858f4a620591fcf6dfa216870c81'),
    'twist - A4 f3 4,3,2,1,2,3 | 2,4': (0, '563f157be8faa48aa7950c768c8a5c2f8f20378382ec112e8beaa507ef9f3db2'),
    'recover - A4 f3 4,3,2,1,2,3': (0, '10586378a62af1fecaf328f8d1a3e3394fb6c164e5f4dd9fbcdb82e29ea20c8a'),
    'twist - A4 q 2,1,3,2,4,3,2 | 3': (0, 'f96d18ae4a7820ffc06067ea27a066d078e3c8f6ac66b02feab12c62b74096b6'),
    'recover - A4 q 2,1,3,2,4,3,2': (0, '681b9b425e1a92d91031692b43d161d92b69f841059012ee5cf0e3d5748737ce'),
    'twist - D4 f2 2,1,3,4,2 | 4,2': (0, 'b557ede2a33f348ea5cb9f416574a7dfd164310b7b537419d96e093ae2022372'),
    'recover - D4 f2 2,1,3,4,2': (0, '50c141222d0f35cdf2bc89005a15e3a4e89aca0a929417cdba610b59eadaeb73'),
    'twist - D5 f3 2,3,5,4,3,2,1 | 5': (0, '1e4bc76b8fa5fb9f0224e6de23627688035fc28ddbef0617ec324d5714e9f499'),
    'recover - D5 f3 2,3,5,4,3,2,1': (0, 'c2a8a7b66fd219b8994f4923ff967848eeb1ac6c812f848e955f310ed6614e47'),
    'twist - E6 q 1,3,1,4,2 | 3,6': (0, '4f93dbdfe2847d4ca64782bc4ea755d5af9861449ed0cfa830e61ff642d1f0bd'),
    'recover - E6 q 1,3,1,4,2': (0, 'a1bf312c48c84b4adfb8a84988638a7a9ae39b2d6d7b202ed6fb6f4ebff05cc4'),
    'twist - arrow-cone-with-nulls | 1': (0, '40f884e98a6526e56793957befed23776f8985aba2b0af987fddc583920e0d59'),
    'twist - arrow-cone-with-nulls | empty': (0, '16fe9d75e4d602db146469d03b7f628083c7e7f7400ac282e8613cf6ca82366d'),
    'recover - arrow-cone-with-nulls': (0, 'c1416929065d250ad9c928538c8c36ce0b2fa437d26de69856f6446e36c699fb'),
    'twist - unit-and-zero-term-cells | 1': (0, 'dec5088180fb2a60520dd8997ddd4914e76df935838c261b10991f62273dbf61'),
    'twist - unit-and-zero-term-cells | empty': (0, '908d36b068b7d7cb5087c28407b203952916f10be91113b3f86eb877ac5f902b'),
    'recover - unit-and-zero-term-cells': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'twist - three-term-loops | 1': (0, '9757baf37981cfae8fd195ac5052c6eb2fa384517f254ad6cdd35facfca83af5'),
    'twist - three-term-loops | empty': (0, '3c426b80c33e8665f6e858d7ba792ca2c8c1ed77755bc49d4e8682e415b16a11'),
    'recover - three-term-loops': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def test_every_stdin_case_is_pinned():
    assert sorted(GOLDEN_STDIN) == sorted(case for case, _, _ in STDIN_CASES)


@pytest.mark.parametrize("case,argv,source", STDIN_CASES, ids=[c for c, _, _ in STDIN_CASES])
def test_golden_stdin_digest(case, argv, source):
    assert run_case(argv, _stdin_text(source)) == GOLDEN_STDIN[case]


@pytest.mark.parametrize("diagram,field,w,_w2", FEEDS, ids=[f"{d} {f} {w}" for d, f, w, _ in FEEDS])
def test_json_round_trip_of_twist_images(diagram, field, w, _w2):
    obj = _image(diagram, field, w)
    alg = ZigzagAlgebra(diagram_from_name(diagram), field_from_name(field))
    assert complex_to_json_obj(complex_from_json_obj(alg, obj)) == obj
