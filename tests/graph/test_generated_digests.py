"""Generated graphs pinned bit for bit.

The sha256 of every array a generated graph carries (``src``, ``dst``,
``features``, ``labels`` and the three masks, each prefixed with its
dtype and shape) is compared with digests recorded before the Zipf draw
of :func:`repro.graph.generators.scaled_social` was rewritten, so any
change of a single generated bit fails here.  Re-record (only for an
*intended* change of the generated graphs) with::

    PYTHONPATH=src python tests/graph/test_generated_digests.py
"""

import hashlib

import pytest

from repro.graph import generators
from repro.graph.datasets import load_dataset

FIELDS = ("src", "dst", "features", "labels", "train_mask", "val_mask",
          "test_mask")


def _social(**kwargs):
    g = generators.scaled_social(6000, seed=3, **kwargs)
    return generators.attach_features(g, 8, 16, seed=4)


CASES = {
    "social-large/0": lambda: load_dataset("social-large", seed=0),
    "social-large/1": lambda: load_dataset("social-large", seed=1),
    "social-large/2": lambda: load_dataset("social-large", seed=2),
    "scaled_social/hub_exponent=0.3": lambda: _social(hub_exponent=0.3),
    "scaled_social/hub_exponent=1.7": lambda: _social(hub_exponent=1.7),
    "scaled_social/num_communities=7": lambda: _social(num_communities=7),
}


def _digest(array):
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def digests(graph):
    return {field: _digest(getattr(graph, field)) for field in FIELDS}


PINNED = {
    "scaled_social/hub_exponent=0.3": {
        "src":
            "4e06c79fb4a9fa4a15ab3b260100b4005695fae8c1b02c088ed79939f6d091b3",
        "dst":
            "9ebbc44b3d297597cf9373c869ac4f1846c6120e0111cd3c99e5901947311a87",
        "features":
            "3e43ad5f1510488f37068c1aad3f236be7991896375cac9c6cf7b706f2d3f39a",
        "labels":
            "008c8a4832b6ebe4ddbac8c2384bb14c3f9ee788cff52cb7686eb26a5fda435d",
        "train_mask":
            "305a7772158334824a83443a984e0fca654821d27cb0584256f2ac622c0de192",
        "val_mask":
            "bd231136d02b2e22b4fe78db9ded82e4cecfdc533c543e89bbffa3a898ba102f",
        "test_mask":
            "4bf1a23a0b75985dace9b34d75abe6b7d3d771bee86222db15305653f780de37",
    },
    "scaled_social/hub_exponent=1.7": {
        "src":
            "759588c3ceb062c59b5b5cc0960bdd697e72c3ae42bc479f138db11c2f323b05",
        "dst":
            "d2047a79bf4b1d98b5a856006bceb0dd7bae5a6fb1bb70c2b7ed73330aa5a8e3",
        "features":
            "3e43ad5f1510488f37068c1aad3f236be7991896375cac9c6cf7b706f2d3f39a",
        "labels":
            "008c8a4832b6ebe4ddbac8c2384bb14c3f9ee788cff52cb7686eb26a5fda435d",
        "train_mask":
            "305a7772158334824a83443a984e0fca654821d27cb0584256f2ac622c0de192",
        "val_mask":
            "bd231136d02b2e22b4fe78db9ded82e4cecfdc533c543e89bbffa3a898ba102f",
        "test_mask":
            "4bf1a23a0b75985dace9b34d75abe6b7d3d771bee86222db15305653f780de37",
    },
    "scaled_social/num_communities=7": {
        "src":
            "01ad4fc777475ba3d072a0722236f80d5d82bef8e35487288b4808167771957e",
        "dst":
            "f699e01386eec027e178b0538e51b87949ce5c22ebe0d5384d14efb6bf524464",
        "features":
            "5af899ac6f544752a9bd03a16b6a3ab1dee56d93d05d6dcb1553cdfc1487d668",
        "labels":
            "819e7a66ff2e6797e6d80547eb6570abd95c45d9d4743b7abe40ceb14ff24e16",
        "train_mask":
            "305a7772158334824a83443a984e0fca654821d27cb0584256f2ac622c0de192",
        "val_mask":
            "bd231136d02b2e22b4fe78db9ded82e4cecfdc533c543e89bbffa3a898ba102f",
        "test_mask":
            "4bf1a23a0b75985dace9b34d75abe6b7d3d771bee86222db15305653f780de37",
    },
    "social-large/0": {
        "src":
            "442ff9e553ca01224d9544c674d1c80eddde131e40d7eeb8333ac72e9a4fb3e7",
        "dst":
            "d03fd7276d2b8252b3510b4d7e01def678479a3f90d4a4fb766aa0f262b029f3",
        "features":
            "5f537c61483f3f77467fd689c78a894b1abfdb8f91b20cb34e445dc4690bcbe3",
        "labels":
            "1d492742dee6f148b0fc91fe5d1d06b589e7d666a04ec2aecd1e57468dda9e8c",
        "train_mask":
            "35f1e661c96c709523f42fd01f147556d584f249c14ac677567497768b69f8fd",
        "val_mask":
            "919861b36a4442b18de8a0f9e9762c7b6be169461be3ba936912ff8bfcdbc3a4",
        "test_mask":
            "528c67947362979ccec20c7cc3f9adf06cd9dbb65ff7a9326a20345ded0e6ffa",
    },
    "social-large/1": {
        "src":
            "ccc6fbb9f37743b4316c2d2167f8c8db3eb68a4f6b511535df86e8d35b99520f",
        "dst":
            "5d753bcb7b34f92ed01976fb4df476a40dd0ac19c397842fef14729fbcf7433b",
        "features":
            "b254c7a9dbb91c694146dc82e4a5e1abb2c239b290471f5e429858bbe949827d",
        "labels":
            "1d492742dee6f148b0fc91fe5d1d06b589e7d666a04ec2aecd1e57468dda9e8c",
        "train_mask":
            "852eda854c59d601bc66872f2591903813f86c410f7aa62944100846d8d26021",
        "val_mask":
            "e866775b00a0384259e0971ee823f0d83a6ee905bf0361b5bf610149928e7a60",
        "test_mask":
            "5efdae5eae3b3e8dc69ffad1cde78e2d471cdc3e51bf67e59215ee03ded402b2",
    },
    "social-large/2": {
        "src":
            "d5640fce62cc23a90096dd876594e3c15416797b5e58193e5abe9adb1d232ac2",
        "dst":
            "41a1b5180e609e2fdecb6431577a1e6b719579ec9760bb1acaa2531ccd3b269b",
        "features":
            "aec98a5e066b45178ca044feee58745869a864b563a05cf68ecc1efd70092219",
        "labels":
            "1d492742dee6f148b0fc91fe5d1d06b589e7d666a04ec2aecd1e57468dda9e8c",
        "train_mask":
            "9f4fe3deed1152d2a4573661ea654483498d58ea88506bce223039f2ec60670d",
        "val_mask":
            "d28e5e074f59662bdd99d856d70226d6a4ded646f20db9c87700659342af9de9",
        "test_mask":
            "2e3832742aea928f80ccc434aa9ccb56633fc2ef58b817836f63ecf824145a7d",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_graph_is_pinned(case):
    assert digests(CASES[case]()) == PINNED[case]


if __name__ == "__main__":
    import json

    print(json.dumps({c: digests(CASES[c]()) for c in sorted(CASES)},
                     indent=4))
