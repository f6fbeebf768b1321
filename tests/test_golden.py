"""Frozen output of a fixed command corpus, in both formats.

Each entry is the SHA-256 of the bytes that `picardkit <command> --format
json`, or `picardkit <command>` in the default text format, prints.  A
refactor that keeps behaviour keeps every digest; a change that alters a
document on purpose must say so and refreeze the digest.
"""

import hashlib
import json

import pytest

from picardkit.cli import main

GOLDEN_SHA256 = {
    "cones blowup --rank 0":
        "d1df4ed81adca411a36d1b604bc709ba160b95dc2b31637b71732791a21b190b",
    "cones blowup --rank 1":
        "2eea2dd9b67b7ba4b7f5b100f3fde89214d0c5f760f8912e6ae6fdf44e320054",
    "cones blowup --rank 2":
        "523757f68bdb383c1ca65cad5e36ad77784a97006c552578b8110b75e7ce69b2",
    "cones blowup --rank 3":
        "e1c4697799ad2a428d2fcabdde2df28438732a1cf466847828be2a5a94ba63fb",
    "cones blowup --rank 4":
        "3cd2df4005126257cbfb7e820b5f20d8337d27fa25f6e1a7a8ff3e51105430c3",
    "cones blowup --rank 5":
        "0057c758c3741aa2c8fcd58ffa7320441014df4c0cf222046362f706aa147eb3",
    "cones blowup --rank 6":
        "50f96de44288ed322ab2d89906f1c62310569b19b5e4d3e0e59b6fbb30f646d9",
    "cones blowup --rank 7":
        "516a8f69142ce6ffea07e42c63238ba41a4a5767420935d936be5a43a5436b26",
    "cones blowup --rank 8":
        "49b8e2122e9bcf8e5bb0997ecaf88055d587716835221514a5ebcc1c5c079d1f",
    "cones product --rank 2":
        "7c5701f938cb22ef8cbe469a384fd9b037579ed83249a6c301e58441fca65839",
    "verify cone-dp":
        "888ff3007ecfe47ec168612be147f66904ce17679b4d50529d0bffe75afac094",
    "verify quadric-target":
        "2ecc33711f7d64716b625870c273e3b0c5f08b6d950c05fc72e947221cfaa620",
    "verify double-cover-k":
        "ec0a3280091899e5f47b5b641615c2b4c0127037c7ad3e5df5a9e09d0ee68a0d",
    "cover 1,1,1":
        "7d6d1e69cab9110bc52b5126ada021a4bbfa3dd4cd48bbcc634a88b51e7c5f5d",
    "cover 0,1,2,2":
        "e17db67a0b378c1bd8b7679da4dc1ee0c4a8a7133373c70a86529ba9a96c3518",
    # all-ones branch types of length 2..12 (length 3 is listed above), and
    # types with a zero, a vanishing and a negative anticanonical power
    "cover 1,1":
        "d076f2557d4f2fe388db5443dc7ecd246b537f19d9acbb827cd7f85e5112f984",
    "cover 1,1,1,1":
        "608327fc5a782e7d86ddaff7613388ea1c7f665a11c602070e6d19267d6e4939",
    "cover 1,1,1,1,1":
        "0264b23e4116beae081f6c167b6f4034021d615bab00e9f4b7eed73e6a2c5388",
    "cover 1,1,1,1,1,1":
        "d18c35934b3dd40c1ccbf2040a2196f2b194c7b3d1f34d1c255f9c7088bf8e0b",
    "cover 1,1,1,1,1,1,1":
        "4ab8614e87976e61fcc26f1012fa9656fba20fd26bb8706c065ba2071e412d5a",
    "cover 1,1,1,1,1,1,1,1":
        "872a39ee38ae5ee2d2eaa9bf83f354ebc87ee407a262a1abb4125296b4b70d4e",
    "cover 1,1,1,1,1,1,1,1,1":
        "d1ede1957771a117632cf9163c43cd8dae19d5d04569d48c68b3978c48ca9383",
    "cover 1,1,1,1,1,1,1,1,1,1":
        "8fe245616b22e95f5e950dd808551322040a741d2de702a2926b1f705da5e7d1",
    "cover 1,1,1,1,1,1,1,1,1,1,1":
        "d5c4df7375b85fdc2fb7e4d5ce102517d5b15b2ba4ad41e0b774d7ab89b6b790",
    "cover 1,1,1,1,1,1,1,1,1,1,1,1":
        "49bf6eae1720cf3fbaa8d74fccc68f6ff22bf4ac708bb612a4bd29bb1ff5fac1",
    "cover 0,0":
        "7b8ff6ece5c6aa969688b66b058df6f2a1b61363f885aad42787e38838ac4f5b",
    "cover 2,1":
        "49b8bde565fe8c355f76892674f829626ae8ce26cd1d19b112da3ad0c61eda8f",
    "cover 3,1":
        "97a769967d330b5a94d16292f158e301c469c40da7a9d6eeeda49733613c8c33",
    # pair scans and classifications at every rank, and the suites built on
    # reducible fibres and pair analysis
    "pairs --rank 1":
        "0abf3850f6486f98e41efa58ad2e2d0c17177b1e75173c24487bf7f54e1eb1ca",
    "pairs --rank 2":
        "82b669ea95cc9a32e85c4c0561795fe2fe97462bc749fb887ccb2eeaece90c73",
    "pairs --rank 3":
        "ed9d7b46bcc137d777f01ebf30e612a87ce08b9fe75a699b89853bf2119aa306",
    "pairs --rank 4":
        "beeaff7d702b515e09b7fa0dd8c2d0f50cb0c4705bcd7a394b256f1e38207602",
    "pairs --rank 5":
        "944453007d5cb4ff2971d28f2b841c4dfd17ce4ec52c2e6d786df992f4a05616",
    "pairs --rank 6":
        "4a3eed53f1b14b6aab57ea833523a1d57815c6d421a52367732961e211f7d038",
    "pairs --rank 7":
        "031d344a02c24e3d454d170db7208808d19d456da4694a23d38a22166f835a13",
    "pairs --rank 8":
        "d636a7663c3d9064e4340f82186c4fca579e1c3bc73977cb951a660f471c23e4",
    "verify fiber-counts":
        "f17cbcb0847ce93fe2bad4e3a022c519c8af7f26ec8384f96da9c1a13343831a",
    "verify deg2-pairs":
        "841da8921aef3cb02eaa95738be6d3f03dc5f814519e8f45b7f2c2cbd6a969de",
    "verify hodge-bound":
        "5aec953cb487b5dacf27a51f8805afa523fddac15eb4e7c2cd71300a2299d74a",
    # both class families at every rank, which every other layer reads
    "enumerate exceptional --rank 0":
        "8a2c4af5bf4251e354b74deabad8fbda84e3e46c424e587ffe59c765a183781b",
    "enumerate exceptional --rank 1":
        "37a57b601d17bc8b71585a545696f955c6c62696d388be694644c79c6a208fa2",
    "enumerate exceptional --rank 2":
        "9d201d670d3a3eff6875ad038b05e0d2a5a03450f01940f5c631524dad96f7d3",
    "enumerate exceptional --rank 3":
        "578caf70480f5fc07761bec2b09144faffdef361a170589fb92bf7c25761f958",
    "enumerate exceptional --rank 4":
        "38f7be9030d8680b31453a12cf1ce4fcb5cbd4e13ca03ccb2a3f0879559d7127",
    "enumerate exceptional --rank 5":
        "b6693c301cbfa3e3cb651f684ddbb2809bd02795f8229399eaeb00719e424671",
    "enumerate exceptional --rank 6":
        "d793e2776fdd6989d9402e234da0b19aac08a0c9f683b9920c5f9370bfe89794",
    "enumerate exceptional --rank 7":
        "6f4d21fe3c1ef1d22f16bd042003962b17af3c153c9ff7a444abe85249d121f8",
    "enumerate exceptional --rank 8":
        "bcb87e42aa3da06ea90d4b0526c511c17204b86da022553910759be077765291",
    "enumerate conic --rank 1":
        "38f5c592f2654c5bb12cb746776bf4e1ff5f9f59c312dcd597c85da8e5c78704",
    "enumerate conic --rank 2":
        "96ee775c2f8b9ad8e2f178f69f06aad82553e0e2ed7f0929663a98691bf9cc00",
    "enumerate conic --rank 3":
        "a76397734f1e8b5c560897186491715bcff86388400b4850021d7d006ad626c8",
    "enumerate conic --rank 4":
        "62f7d86bb579fbb6ea68811aab0edc3475615d80392acf3e9dc9c33b4f62cc80",
    "enumerate conic --rank 5":
        "0911e3ed471744334d39f62144afd108c9b1fc4843342521abe4f87f465fd820",
    "enumerate conic --rank 6":
        "aaea074e020fe8657e66047904617c26d9b26a130a17710412ad1520fcecadca",
    "enumerate conic --rank 7":
        "cbfdc448a41fe2742aee16517e024aa8d1e8a0ed0cce5998fa828169d5b8dc41",
    "enumerate conic --rank 8":
        "90d3b1dd38fb2454dea762ce2c907650f16a2891780f82b804b374f8b33cdceb",
    # the singularity test and its independent route through the partials
    "verify branch-singular":
        "c53374b4e872cca3d56ef46512465a255047f860b1e165854f00f0d0d35c43d7",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_json_output_matches_frozen_digest(capsys, command):
    assert main(command.split() + ["--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_SHA256[command]


# the same corpus in the default text format
TEXT_SHA256 = {
    "cones blowup --rank 0":
        "2a56f0392e83641a5e903059d64ee4af0ee14a4014cf8ce68cbee6b5e3a86b76",
    "cones blowup --rank 1":
        "8c5dea45a81445b4ed82f59250bea864f75750432dcc88e67dd41003b22758b4",
    "cones blowup --rank 2":
        "79a9431337fe2b0e25c5cf80b06929f5a28743499c22568758720792b87a0ea0",
    "cones blowup --rank 3":
        "ca9f30348ae804a95a29287f43a4ab000e79cd0ec329c7049b9f23add44f0fc0",
    "cones blowup --rank 4":
        "cb1a2b28893b6decdbb252ba94b1763f0d80d6ea71fdb8091b7edc3fb6a83bcf",
    "cones blowup --rank 5":
        "59a22a910c5348db49c6daa74754bb9e3df13969741fd7eb3aed50f8c722b39b",
    "cones blowup --rank 6":
        "47faa0f761c63e47a5c185d59c7081b1c06d8c3a375bb05f8610ec02f789ad64",
    "cones blowup --rank 7":
        "6c975f049f91a355efaf9fb3a312e8f4984bd4e1362c1336e2fc48bf4f8454d6",
    "cones blowup --rank 8":
        "b11b6452d73e1714b836c4c584e9a5f50a00a03ae5b76932b9059441442dee2b",
    "cones product --rank 2":
        "e05f70714ad944e0d319c98355ff8f75734e5e14879ca07a9455876b15b149da",
    "cover 0,0":
        "eb41faa40ce66220a1d5ae8701cdddee002bd2c33331455c413f634dcbf8cb39",
    "cover 0,1,2,2":
        "2b88bcb686364848c859e015a09c85ca68fc72fe59885eee08fde194bbc72b4b",
    "cover 1,1":
        "beb8bdd9bc12956cba94a8dd7123acde69a9e0cf84287f0d15e8a50c289822a9",
    "cover 1,1,1":
        "4c690e74caa9f635a0bba4daa2d72cb0311dc12db56c25dae67ce9aceb6997a7",
    "cover 1,1,1,1":
        "700b0d714912cd274bc02c06e71a1e652b85a295ab59d9a86f91286fcc2f3383",
    "cover 1,1,1,1,1":
        "ab7cb0a4b6ef41d471be9ddcb1cd0e83f9a8f3c93de57897c5ea190cbeef5960",
    "cover 1,1,1,1,1,1":
        "22c7ba3756bc8becf6298b2800cb52549fd9407cb26b0deab48e43dc6d7965e6",
    "cover 1,1,1,1,1,1,1":
        "517702e9d408d1ad0233cc44b922e11b4b5ec0a773f261a0ff5e259c1af97c8d",
    "cover 1,1,1,1,1,1,1,1":
        "031872ccec0c63e7acd97d75326a2be5eb0e8f9d9d3085b636b5bff4663b656f",
    "cover 1,1,1,1,1,1,1,1,1":
        "cc2612d2de00388dfe1ea86c4009f506e070d228debd5fa4a2f0c615206e2586",
    "cover 1,1,1,1,1,1,1,1,1,1":
        "c851bbfd4475746763f184ebfaa4b449e707c6ae5c0a288a939dedfc5c3189fc",
    "cover 1,1,1,1,1,1,1,1,1,1,1":
        "9eb34889f689a4a3cc56f964be5f7430ded5400417a831db4a77384a6bd4ba88",
    "cover 1,1,1,1,1,1,1,1,1,1,1,1":
        "0e20b36fd099ecf013763239688bc1396ae328b87763d96b0e29ec18e7f4e70d",
    "cover 2,1":
        "424fb36a99c22bff72f0f7c78ccfacb938b82f6859253c3352215e8e78d13cc7",
    "cover 3,1":
        "352b5ec4f878d466ff5d98d0c6189e20dc6f1949a3aad3944854ab4110c3a9de",
    "enumerate conic --rank 1":
        "9de2fc4d768e2563a36e47330288ae32ef6acb819cd90d6f080765b08465b04b",
    "enumerate conic --rank 2":
        "a85b73215cb5fbd5dbf56a4047d4c46090aa9728cc56144661acd964cbd5aaa7",
    "enumerate conic --rank 3":
        "572db6d00e750e0f71f999705c8f31491e09f4f3a65a0165a51a84e0910afa93",
    "enumerate conic --rank 4":
        "0a8e2d83237ca5475caa43a3dc8deb57ebc6b0fa4734a8f4051edbd7443fc304",
    "enumerate conic --rank 5":
        "04145646b4a93be7abfa6d207ccfcb166a59e7cd6532055f7a8dd0e0f4631f84",
    "enumerate conic --rank 6":
        "89981ea3ea699d6bee4ebe18a18c35d191a53fd7dfa960f7a1f09b788d413319",
    "enumerate conic --rank 7":
        "37622f60e3ddbe3bbf0ec1ffe1ea2c4d1a30a21e7f46dfde6de9c2224e6bc585",
    "enumerate conic --rank 8":
        "41904ac42937694d54277dd4f532b074a1c1015e9a2cf0516ec343c519674dcd",
    "enumerate exceptional --rank 0":
        "f36cd3661de047aa365f94120ca90766080150a75a1bcc85dfcbbc972029eddd",
    "enumerate exceptional --rank 1":
        "93f9d27622a0c27b41c7ce72e7280e276d13eddc864ad68f141f0bdcef1b2653",
    "enumerate exceptional --rank 2":
        "54d355ce2479e1b7970495da1756a71365dfad1aa1f96e8610df8e6e31aea106",
    "enumerate exceptional --rank 3":
        "e60fc570a459b7d56ed2afda802a9fc949c54e73a2951d1a13f25f1c67a78152",
    "enumerate exceptional --rank 4":
        "c219b3acd8f61f7147ff7adb504019cf65954ea0b7298e313eebcc1d7cc7127d",
    "enumerate exceptional --rank 5":
        "b3188dc6e6099b2747e2e8fa9105f6782a1b987d1a2b507de16c80b6feeda87a",
    "enumerate exceptional --rank 6":
        "32da025b77a3ea39bcef80fde8e8ba66bde0c535a34b5ac0e0b5b1e09ffd4f94",
    "enumerate exceptional --rank 7":
        "efa743c74b0fc208cce0c14d0819478e06e568676f5191e18db70add0e14de56",
    "enumerate exceptional --rank 8":
        "676e70ce1d20ef91f8c0ed9ecedcbcf47a840d37193af6c83984f828316f378c",
    "pairs --rank 1":
        "c09e54668824777656d7cac126c1dbe67fe77845887b2d75084174566c4db03b",
    "pairs --rank 2":
        "f61bbd2327a49f08dc24d5b75c92fdea2802b873e5584f0a3bc07789f45d8ffc",
    "pairs --rank 3":
        "dc2039272f43b82f97db16b2835a5d1afbeedb4df94aa668c40545f4d758cd3d",
    "pairs --rank 4":
        "1a2d64c43cf917d8f4dd781fff522523eb1ca334135c898f9c9e4afd24fe835e",
    "pairs --rank 5":
        "765b7d281206d9a00c68329cdefc26cc7581c7cce9c5169046690f6a640081b8",
    "pairs --rank 6":
        "c1fa1243fa7feec7e76ab6f88a33e15118f1bc723e9601c6d1ff52f02d5da8e1",
    "pairs --rank 7":
        "865dc2cbc0e8880e5ee18614ecff21efa06eecc08f29808ccc63a10432f0dca1",
    "pairs --rank 8":
        "b54b6b2458f75d784c1960f8d5d837c29afae880c8c06114e822402de0550d5c",
    "verify branch-singular":
        "64f705a239a7c0d5ebb0e6070c5e7bf5ec2b234407da81f3de1c247144940557",
    "verify cone-dp":
        "8e438bc2da26c6bbf6ea96bb98c468db7148c1880046c615a849e98efbafc661",
    "verify deg2-pairs":
        "00147c3c4f57d47a9b3442a44b20cff83a799a2c3bfea9245f67a53e50438cb1",
    "verify double-cover-k":
        "6744d1a3404b6e9c9d919b25f94bda64ca57c4ec681f7d95d724d008a9c0fcf4",
    "verify fiber-counts":
        "ba56726e752442cabcaed6a1037590878a72c911580efc51aa367f19d301a305",
    "verify hodge-bound":
        "bf7e44aff84a44bceaf5a58765719e1f19899ba0e9eadca455dac88db0f3e54a",
    "verify quadric-target":
        "66a90063725d71d0e76c8aa2dfba3ecce1c0d42a529d0a6a6e25632ba6272cc2",
}


@pytest.mark.parametrize("command", sorted(TEXT_SHA256))
def test_text_output_matches_frozen_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TEXT_SHA256[command]


# the singularity test on one fixture branch polynomial, at a point built
# singular and at a smooth point; the file is read from a relative path so
# that params.input is the same wherever the test runs
BRANCH_POLY = {
    "n": 3,
    "multidegree": [2, 2, 2],
    "terms": [
        {"exponents": [2, 0, 2, 0, 0, 2], "coeff": "1"},
        {"exponents": [0, 2, 0, 2, 2, 0], "coeff": "1"},
        {"exponents": [1, 1, 0, 2, 1, 1], "coeff": "1"},
        {"exponents": [0, 2, 1, 1, 1, 1], "coeff": "1"},
    ],
}

SINGULAR_SHA256 = {
    "0:1,0:1,0:1":
        "98bed72704e04b89c23c889e60180eb5d3fcaac85ca05acb0d899bf92dbbe56e",
    "1:0,0:1,1:1":
        "e73a16fe8e80b9e8a25bd2e4d1cebdbe38f9d0c79b067302071e4f0061bd824f",
}

SINGULAR_TEXT_SHA256 = {
    "0:1,0:1,0:1":
        "40e17272d64c76e5dc1d8dd8476b33399fd5062829c604bd442768aea332a5db",
    "1:0,0:1,1:1":
        "80c8a5df6b4e2b6846e050fe00fb4e8445411c51cd45a42691e551a90c12efc2",
}


def _singular(monkeypatch, tmp_path, at, *flags):
    (tmp_path / "branch.json").write_text(json.dumps(BRANCH_POLY))
    monkeypatch.chdir(tmp_path)
    return main(["singular", "--input", "branch.json", "--at", at, *flags])


@pytest.mark.parametrize("at", sorted(SINGULAR_SHA256))
def test_singular_output_matches_frozen_digest(capsys, monkeypatch, tmp_path,
                                               at):
    assert _singular(monkeypatch, tmp_path, at, "--format", "json") == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SINGULAR_SHA256[at]


@pytest.mark.parametrize("at", sorted(SINGULAR_TEXT_SHA256))
def test_singular_text_output_matches_frozen_digest(capsys, monkeypatch,
                                                    tmp_path, at):
    assert _singular(monkeypatch, tmp_path, at) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SINGULAR_TEXT_SHA256[at]
