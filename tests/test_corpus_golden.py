"""Pinned CLI output for the corpus.

GOLDEN holds the sha256 of the `decide --json` and the `explain --json`
output of every corpus file, as printed by `cli.main`.  Any change to a
byte of either output fails here.  Update a digest only together with a
change that fixes a wrong verdict or trace, and say so in CHANGES.md.
"""

import hashlib

import pytest

from iccdec.cli import main

GOLDEN = {
    "group_bs12.json": (
        "5c5e3037252f1659de70e788adcc59389f661535525c64088678e95244c56427",
        "a4ee94eec49814ce1d253b73cb3f6287fc2577adbb9eae51828f175232530c82",
    ),
    "group_dihedral_infinite.json": (
        "aadd134f9a2208d1a3c70809a2ba534032cfca4af380b7f786750feaa8ceb1d7",
        "1cc4378fc9746caa598723a390aa98097503a13055726e8a9b3a40e6d20ce59b",
    ),
    "group_f2_as_hnn.json": (
        "559e6b1feccb1d926ef27b73fd6a847f1d079027d05ab1fc1cb6c3a762f5b6eb",
        "2a0a9644d95bcd5b57f1eafd2de0e3c570ccf88144d850b83d0133184d70c1fe",
    ),
    "group_f2_x_z2.json": (
        "d1b4836c534b23d6769a2d37769a9e80fa42d7b6ff79eba0ce7b2d5c06def4c4",
        "ae44828c84a244a23278c8553249d71b229d81e5e9285c8a1c77b6e917925d60",
    ),
    "group_figure_eight_matrix.json": (
        "8bf3337cf2c1897297f6e35d7d94be1dae99412f482b84ea45c0804604f2d3e1",
        "9cae92bacc92712927b75998a8c116f53d79bd9e0a03708907d1ab4da8139065",
    ),
    "group_free_rank2.json": (
        "a6d5ab4f119911ff55afd3350ad256b3823373d8ba6b22e7a9e919dfe568f730",
        "e7ae4dab0731e747a19fd9681851c0585d5b88b1d8f33fbcd42546cba04d7946",
    ),
    "group_hnn_icc_base.json": (
        "d80d1361dbe692c30dd6d0317fadb7f621bb739af2dddb86b14eb7c5802e4bdc",
        "abf028fdae33bd8034915353fdcf24c493d2e832b3d595750fb0914c0f4cb7e0",
    ),
    "group_hnn_z_x_z2.json": (
        "3494b69f02dc35ea7feff07efc3a4204b1162862c6546e5d379c988ec3f5abe7",
        "e1e9e65e4ca510dfa1f863bd4a2834a597b2a553930d4c81ee95e6ad601fccbc",
    ),
    "group_klein_bottle.json": (
        "9a9b8daf9f06123803f60a73133b4ba7859187efa81716d6bbce879765dd140a",
        "d7e2750841511b7fd88e1323882b7c218ae18bb85668a763f215eb44ab1c27db",
    ),
    "group_psl2z_amalgam.json": (
        "9a683cc90deab1ffbc13c51977aeb00d6d21a82bc5574a47a5009772fd804c78",
        "335a6978bf825436805acccfb6b162684d682b9726171ba727eeb1f0297fb738",
    ),
    "group_s3_amalgam_s3.json": (
        "92039a2f9617f75b317c59ca59c6f41abfc0bb93b0f821f9cd4985249f8e2a1a",
        "862b8a2d011c92fcacb3bbf7e21700432d81aca0dc1df659fee62ec57a52d48e",
    ),
    "group_surface_mobius.json": (
        "6d3881d6537c444473e4ba97a6b43ba435ec48c4ee3a8c3a73906604a84ac342",
        "9c45aad8562a254aa94e0cd0d526fd3ff794ef01654092a0395f7e8e6e05a3a4",
    ),
    "group_surface_torus_hole.json": (
        "c2065eb84d36b023fd0bf1988e8fd3af0371b8d3290bcabafd4a17a2030f959b",
        "faebc943b59ca93c30b696521df783a205b9b6ec794755a11c816df25370d16c",
    ),
    "group_torus_bundle_elliptic.json": (
        "ec33f8d5bca4b90950fab54f2099ffab6a5cffcccc986b8834a02a01fd646fa5",
        "ab40636f985d11039331b525478abc2c07bc6bb3ab7fb48f012a711edd665349",
    ),
    "group_torus_bundle_hyperbolic.json": (
        "96fe439b36ea1ecdb4152fa9ba12e12ce547324fa4160a210bfeea602edfe7e2",
        "5edffba6619b56eab869e4368a3aa09e55b382d6fe60bd6f647114eaf2ed5eaf",
    ),
    "group_torus_bundle_parabolic.json": (
        "2fc4f383fb6fa5f7f4984878f99b287860cc929b65ed8808b1a5a3f28f266db0",
        "7bdeffbfff2fbe7093747a8e60d8b05490c44481fae15594b2318bfd158f275e",
    ),
    "group_z2_lattice.json": (
        "1d8c58111a32386cdc850e6c221974ced0e9165b16774048142d22bbac9676d6",
        "8fd8a79d4e6cebc9845b5797cb3fde1a7da954793849242994090c4bbc55bf36",
    ),
    "group_z2_star_z3.json": (
        "54be8647090e9b623341c3664d77ca22234dac96f8f53933758804c7f6ed38e5",
        "d7d04c21b88620d352c16ccce7bc66819d27e54825189f81a848a2aae29e9090",
    ),
    "group_z_star_z2.json": (
        "cb5c515ba178f045722445c09ecd94369b55ab22c0ab341abb5836a8033c0cef",
        "caa85b61fed5e1bd31ac819a55e2f4d00d9e730302bde40b2c45e46a7e313a90",
    ),
    "knot_figure_eight.json": (
        "51ebcd47fa4db7ff436ef4bc16d3b40b637301657a9c367b3966acc76af49a07",
        "42c817cd4dd8fe603386b376aa994778edf3a80330adc5b066c94f991deda6ea",
    ),
    "knot_other_flagged.json": (
        "e49fd7576e88dd540103468699ea85883b43eefbbef2a34a4d29ed367bf3dcbd",
        "98afa2f952d2433c1dc6f2e52333cdb271c6695034b3c2d8cc357b8c09a15480",
    ),
    "knot_trefoil.json": (
        "f3fe64db9d8789141ccb6aab196afe3d967c8ffaf6a828fa18357ef14f450902",
        "1ca15fdb04a59d9d5d45275753bda1de54f288a7db79ad5187c12502625edeba",
    ),
    "knot_unknot.json": (
        "85dcfa0e8adb92f6a34507b9125d247ae5296fafabd5a51586e96662ce6bda26",
        "93779b5264b70f5113f70fd7cc63f6512b6caf38cc519b9055bcdb127d7a3a2f",
    ),
    "link_hopf.json": (
        "b137d1b16ceaff28e8d866e13dfe39126b810536193085dc3a3c2fff28da62ea",
        "ae99844aeb31c0118ff651e5e2f26077cad1260f21c81676c3f265e78ae34fd6",
    ),
    "link_not_fibers.json": (
        "e094bc916416642556cccfb5ff33861eef763bf6cdbb8f44c165371d431eef67",
        "5ba3ea1ab08b145a2029276410b3ab783728fec7553f965e58de4a5207602c44",
    ),
    "link_unflagged.json": (
        "038892128c4869486a0215dc731ffd1e5d4bf928cf754893dbcb76a9c095d3b4",
        "f266bbd326cb4e097bfa6f7f55d64bf1e9ab5be05b24e8fc7db96b51038cbe81",
    ),
    "manifold_flagged_aspherical.json": (
        "6ca4b3e09c4cc5e40e2ee1c54f2c5a38842cb09ae44657507633555de7360b64",
        "2c8bdc284197853b331473ac7ee71b8cdc83f27a481c9e9d151a60076e0abe0f",
    ),
    "manifold_flagged_seifert_like.json": (
        "ceeccfb7eb5d41b41e93dc8a8bcd740daf8044ee9e30e905ddffdb33e6b715a6",
        "ab659de5d76f81dfb7932a23e3cdf7a0d43502e2ba9f3ad9d23cf7a7341430b3",
    ),
    "manifold_homotopy_sphere.json": (
        "7e6aed40d7e051bd292dedf41e769b71e7f50d4c62dba939c8554ada0d0ab20a",
        "ba04af46d54ba200308eda8cff2d1e75d84b1ac1cf3d063be7bdcb22d504a592",
    ),
    "manifold_hyperbolic.json": (
        "bff94a5214765d3b3b9a6e24cbc311578a682cc38287687afd13db2f06847c0a",
        "0d1f17aba5d01226ae1bb01ddafe15525648658c7eff93c9cecb20fbd7bcc5e7",
    ),
    "manifold_hyperbolic_plus_sphere.json": (
        "bff94a5214765d3b3b9a6e24cbc311578a682cc38287687afd13db2f06847c0a",
        "7166b8e5e1a45b9f5e97b0415eecd15a137e7bf1ffb1c6b61cd8ab4f5d842c97",
    ),
    "manifold_lens_plus_hyperbolic.json": (
        "ef9a68aaf0874a76d465607a63898b4447cce340257c85e4a4b769566781d666",
        "559b7b2ee8a2ebf4a52f86f0ebf1b7ddf35591d14b708915ae848d8c493443cc",
    ),
    "manifold_nonor_aspherical.json": (
        "a92f1d4b173b1817c6f21d55a3e83966995645b4640834475982ef1abbd3e73b",
        "78fc2bebf2c11a66eb734eb0abde409f24c64a67156861345e80b43a4e3f0cf2",
    ),
    "manifold_nonor_nonstandard_p2xi.json": (
        "f4a2717e7710d6edd9c5968a9209f6434af55caaf7a06ffec93ea0d4025075e1",
        "7c798560ae4bb081214f0f573dadcba3a0e5a8244cb3a57e39ae428e95ee75c2",
    ),
    "manifold_nonor_p2_base_seifert.json": (
        "562258ab991f62e2d341dc41169039051fd0b957c0cdc41cae4e61b015c1e899",
        "a91302e1640c179ffd39bf9a29dffc9ec644fa933b32547c7d3880102adf7dee",
    ),
    "manifold_nonor_seifert_mod_p.json": (
        "b0bf8fb9c4971a309f6dc30ed4b913fa11a01635d1eefc1bfaeb6a2132646014",
        "e28d47649544dc382505da06d248419bbdf1fe2ae97d92cc18967c7b24a4a7c8",
    ),
    "manifold_p3_p3.json": (
        "7aaa31de397b7d73fa21d3fc12d267a23107373c3d97f4e033dcf0f6f800f074",
        "e72e7098dd8b8a66ab77230511aee85c9f29d960e2753a88a3c3a10070e8d59a",
    ),
    "manifold_poincare_sphere.json": (
        "7c2e4a7c34694944fef302231fcdb824376426bfcc697f7e5ffad07ecb9372ce",
        "bfcfc34bda359cd159b12447d570c67778df9a5cb9a4bf5d73c22ab9f210a52d",
    ),
    "manifold_rp3_lens3.json": (
        "ef9a68aaf0874a76d465607a63898b4447cce340257c85e4a4b769566781d666",
        "d1a56cf6691a45ba219ee5142dd64f56fea5f5b339ad79f0606811f7c956892e",
    ),
    "manifold_s2xs1.json": (
        "cd4cdae538d240f79c41ef866bf01554f74f2407c1c3cae1521843bca9456152",
        "ea9d00bbbc92ad803096fdb38bc96e3b775c2c4f6d36a6ae7c658c48efb3a7ea",
    ),
    "manifold_s3_seifert.json": (
        "7e6aed40d7e051bd292dedf41e769b71e7f50d4c62dba939c8554ada0d0ab20a",
        "69deb2f4684809ec58f278db9c32ffaf63434bfa17132739c4345b3491fa97fb",
    ),
    "manifold_solid_torus.json": (
        "a165ae5bb879c062a2a0bb7f9316a5538e8c67992b2dd8e9b115c948345ae6b7",
        "4322a1a2f6edddee2e21ea7c8be69c9152c59ea206ec7b25be0187119772628c",
    ),
    "manifold_t3.json": (
        "a93b845efdb02beeaf500420dae0463e278adb566c8c791e53c09f727ecbe483",
        "7c6155ac14102dfdc2125092b0615bd259d9b73d40009851dde5387a355a0ba6",
    ),
    "manifold_torus_bundle_elliptic.json": (
        "652cfae781ceae0240062d4b222149df7e6a75f204c0037881049d7755f1a1b3",
        "078025a560bd9e572f535e0cc5b031626b560266314dcf5f21e5064e47bcfeae",
    ),
    "manifold_torus_bundle_hyperbolic.json": (
        "96fe439b36ea1ecdb4152fa9ba12e12ce547324fa4160a210bfeea602edfe7e2",
        "7a3513d581ee40d89d2d228816f20287440967ce019a5fa40d76c00e7a34627c",
    ),
    "manifold_torus_bundle_parabolic.json": (
        "c4eaadd429dc5eebaef91d0ce661a716c26e0479db9c71ad2bf6fd67d77cadfb",
        "5e0b5881b3e6338a7c77c5b1e23f82e8371250b3d89a5ab191dfb98ad0dfda62",
    ),
    "manifold_trefoil_complement.json": (
        "a165ae5bb879c062a2a0bb7f9316a5538e8c67992b2dd8e9b115c948345ae6b7",
        "b0754857a9e3f9af4405a13ceae1e7ec8b56ecf25a79e6b07119321f6adb7b55",
    ),
    "manifold_trefoil_plus_sphere.json": (
        "a165ae5bb879c062a2a0bb7f9316a5538e8c67992b2dd8e9b115c948345ae6b7",
        "181f8d690e73052bbb6b1770283b4f2f4d9a591021a5f79a97046a4deca7b824",
    ),
}


def test_golden_covers_the_corpus(corpus_dir):
    files = sorted(p.name for p in corpus_dir.iterdir() if p.name.endswith(".json"))
    assert sorted(GOLDEN) == [f for f in files if f != "manifest.json"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_json_output_is_pinned(corpus_dir, capsys, name):
    digests = []
    for command in ("decide", "explain"):
        main([command, str(corpus_dir / name), "--json"])
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == GOLDEN[name]
