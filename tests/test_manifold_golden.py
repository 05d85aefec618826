"""Pinned CLI output for generated manifold descriptors.

DESCRIPTORS is a fixed set built from PIECES: every piece kind and flag,
trivial pieces and homotopy spheres, one to three pieces, both
orientations.  For each, GOLDEN holds the word given to `enumerate` (the
first generator of the descriptor's carrier, or "1" when it has none) and
the sha256 of exit code, stdout and stderr of three `cli.main` calls:
`decide --json`, `explain --json` and `enumerate --element <word> --radius
2 --window 1 --json`.  Update a digest only together with a declared output
change, and say so in CHANGES.md.
"""

import hashlib
import json
from itertools import combinations_with_replacement

import pytest

from iccdec.cli import main


def _seifert(genus, orientable_base, boundary, fibers=(), euler=None):
    data = {
        "kind": "seifert",
        "base_genus": genus,
        "base_orientable": orientable_base,
        "boundary_components": boundary,
        "exceptional_fibers": [list(f) for f in fibers],
    }
    if euler is not None:
        data["euler_obstruction"] = euler
    return data


def _other(order, **flags):
    return {"kind": "other_irreducible", "pi1_order": order, **flags}


PIECES = {
    # Seifert data, one entry per branch of the Seifert group
    "s3": _seifert(0, True, 0, (), 1),
    "s3_fibers": _seifert(0, True, 0, ((2, 1), (3, 1)), 1),
    "rp3": _seifert(0, True, 0, (), 2),
    "lens3": _seifert(0, True, 0, (), 3),
    "lens_fibers": _seifert(0, True, 0, ((2, 1), (3, 1)), -1),
    "s2xs1_seifert": _seifert(0, True, 0, (), 0),
    "poincare": _seifert(0, True, 0, ((2, 1), (3, 1), (5, 1)), -1),
    "flat": _seifert(0, True, 0, ((2, 1), (3, 1), (6, 1)), -1),
    "t3": _seifert(1, True, 0, (), 0),
    "nil": _seifert(1, True, 0, (), 1),
    "genus2": _seifert(2, True, 0, (), 0),
    "p2_dihedral": _seifert(1, False, 0, (), 0),
    "p2_dicyclic": _seifert(1, False, 0, (), 2),
    "p2_prism": _seifert(1, False, 0, ((2, 1),), 1),
    "solid_torus": _seifert(0, True, 1),
    "trefoil": _seifert(0, True, 1, ((2, 1), (3, 1))),
    "mobius_bounded": _seifert(1, False, 1, ((2, 1),)),
    "torus_two_holes": _seifert(1, True, 2),
    "hyp": {"kind": "hyperbolic", "finite_volume": True},
    "hyp_inf": {"kind": "hyperbolic", "finite_volume": False},
    "tb_elliptic": {"kind": "torus_bundle", "monodromy": [[0, -1], [1, 0]]},
    "tb_parabolic": {"kind": "torus_bundle", "monodromy": [[1, 1], [0, 1]]},
    "tb_hyperbolic": {"kind": "torus_bundle", "monodromy": [[2, 1], [1, 1]]},
    "tb_det_minus": {"kind": "torus_bundle", "monodromy": [[0, 1], [1, 0]]},
    "sb": {"kind": "sphere_bundle", "orientable_bundle": True},
    "sb_twisted": {"kind": "sphere_bundle", "orientable_bundle": False},
    "hs": {"kind": "homotopy_sphere"},
    "o1": _other(1),
    "o2": _other(2),
    "o5": _other(5),
    "o2_std": _other(2, contains_nonstandard_p2xi=False),
    "oinf": _other("infinite"),
    "oinf_ncs": _other("infinite", normal_cyclic_infinite_subgroup=True),
    "oinf_no_ncs": _other("infinite", normal_cyclic_infinite_subgroup=False),
    "oinf_p2xi": _other("infinite", contains_nonstandard_p2xi=True),
    "oinf_std": _other("infinite", contains_nonstandard_p2xi=False),
    "oinf_std_ncs": _other(
        "infinite", contains_nonstandard_p2xi=False, normal_cyclic_infinite_subgroup=True
    ),
    "oinf_std_smp": _other("infinite", contains_nonstandard_p2xi=False, seifert_mod_p=True),
    "oinf_std_not_smp": _other("infinite", contains_nonstandard_p2xi=False, seifert_mod_p=False),
}

PAIRED = ("s3", "rp3", "lens3", "trefoil", "hyp", "tb_parabolic", "sb", "hs", "o2_std")

TRIPLES = (
    ("s3", "rp3", "rp3"),
    ("rp3", "rp3", "hs"),
    ("hs", "hs", "hs"),
    ("s3", "sb", "hs"),
    ("trefoil", "lens3", "sb"),
    ("rp3", "o2_std", "s3"),
    ("p2_dihedral", "t3", "hyp"),
)


def _descriptors() -> dict:
    combos = [(key,) for key in PIECES]
    combos += list(combinations_with_replacement(PAIRED, 2))
    combos += list(TRIPLES)
    out = {}
    for orientable in (True, False):
        for combo in combos:
            name = ("or:" if orientable else "nonor:") + "+".join(combo)
            out[name] = {
                "schema_version": 1,
                "type": "manifold",
                "orientable": orientable,
                "pieces": [PIECES[key] for key in combo],
            }
    return out


DESCRIPTORS = _descriptors()

GOLDEN = {
    "nonor:flat": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "b34c4d4b059a68bf5627f803f93843e2235aac3ad22450fa276ae99753ab26af",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:genus2": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "6fc3df008ab485d5f5eba86fbb7fe6e98bf6563238b5ccdccadf64213565b346",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hs": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "07df10ac8e8aca57ebf47303e62d961905a9055224d663e31dc53842546027d4",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hs+hs": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "8eb84c5b67a9a7f7d037dff8e5509ec521854616547f6d5af553e80dcc53ab0a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hs+hs+hs": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "e09fa7c58124370370b5604c01756ec19abf6a510743501bdc50b261e6ed5167",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hs+o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "8668dcf8e693137adc41298d80d55f2f37fe1ead6be97eb6cfcbbf151b64ea56",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp": (
        "1",
        "77a11ef8f6f8e26e89da5d97a3161c41b89f9b06cd5d8a6e7335ac63e5ce9fc5",
        "e0e61957f36d47b5a5452c9188d7822eab5ae9116dfe0aedb409153e489d1f9a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp+hs": (
        "1",
        "77a11ef8f6f8e26e89da5d97a3161c41b89f9b06cd5d8a6e7335ac63e5ce9fc5",
        "615aee9509153c7947948ae0a56179a6ada21c70ae8cad9b9bfff311d7e69876",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "7244645310caae2211e982f77a0b657e9f8d24890d93d97e3d6fb858d3d9528f",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "48eabea71c0264190c2d29510473f64ee8c603a6416bf4ad4ca83cfceb1d388a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "dd443fbda3d13b017ecc70459c8dfe079150b42bbe69b48b1d2d6b07eb4245f8",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp+tb_parabolic": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "a311c130b4d184733a8f42ffb5d5ce273b9fab7bc50e0646a0f61cfe49a7c3f4",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:hyp_inf": (
        "1",
        "a4190b71c00663a81a42f3fe4f54d847acd50a9dc4b899529719bacb8572894e",
        "1548934891501d90b05f7487823f19565dfb7e04eea6479ecae87133182ef5e3",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "353369476c2aecf0d9d69c4fd33f426a1a0c255db0cf76499973d834b44a404c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+hs": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "df6a4c584f3d758612b78f5db2fa13001863f139ab4f0749d64ca859f0ecfda7",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "174b5ab7d0a7d5a310b78ec391a509e9306c9ac4d6c5f5ffdfb0154df44651d4",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+lens3": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "2bb846b72076da15c7cd1285fa5c26982f2a345fff016e624fa720be2299925a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "271e8c029cf678956030db904acd63b4e6606200610b1183c34a166aeb70a004",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "0a2c6f408f0f6a74f76ffeba21c87122e320c0aa91c9a136da30c7fbe41c4bbd",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+tb_parabolic": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "19ec5f32728db132fbc79e4f5d4a15ccb03ca0357563a7152871ccc53c5afb74",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens3+trefoil": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "87b0a89f89af30f67a25b821f0e6e4de312713fb8753212b94dd341685bac89f",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:lens_fibers": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "c445aef3b66d2d1c86bb36d794a4914e0927f2fb090713f6cd2c51469b4918b0",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:mobius_bounded": (
        "1",
        "f71b0e3d8da743697c84bbcd724a5dc5be54fc6820f39cc478dbfbf8d09986d1",
        "9afce4bebf6f0c18bd63ec8bbd6f07252036760d07d05d53213017a65021bdc9",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:nil": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "3d214f4eb9ee186c31b00a4e443110be2691d3e94e677240c24966bbd316353c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:o1": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:o2": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "5d02cd41e938ca9c3f2a69f7ab60cf66973d146d0f717b63683c9ef3ed9e9df9",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:o2_std+o2_std": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "ed2e819561a67d71f05ce542f004d282b49d1aebdef82c0e79afd0fc352596b1",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:o5": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_ncs": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_no_ncs": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_p2xi": (
        "1",
        "6736b941df3a88c5aaf7cb14cd55ff2446894b84c697e2c9670090c0137f4845",
        "e1af6598e6b4273919b61a02aa5647b544f85bd3f35c2fb25769529dbc35fe57",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_std": (
        "1",
        "84bc22f2a95695e6cc12107b6b391e881c4dafed16b18c0997f24d307ba8ea1e",
        "ff4dff67f73d188c2929166fe9fe8acfa4990fc18fd689b00a39cac0de100c9e",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_std_ncs": (
        "1",
        "5a7df2650c6242deb4e1a601875164f787893ec173b38615f3679de63b7388ad",
        "7d677426c58a2c3dd568c4a80a926e38a0187599f61fdc83e6e0f06d39f7e689",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_std_not_smp": (
        "1",
        "77e55f5318b32837771969d061471f350c61b5cb4dbe05871de3baa1f4f4bffe",
        "d32c58070452530736a5b3fb51df4164c7f60aabb229e0d75678a619e35ec258",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:oinf_std_smp": (
        "1",
        "71d0ee75c9167ebf86b9cd531bb88f3ffe4f4cc8c31747b2d294440123bf3d55",
        "1536d14a2cc841bbd4affec44c69e4e936638f4abf1581a98e2861e0dc6ee5b6",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:p2_dicyclic": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "ab382075764e00a16d44078d81b106e9fe6f06df85138ae20a4d4e4c5970d1d4",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:p2_dihedral": (
        "1",
        "f71b0e3d8da743697c84bbcd724a5dc5be54fc6820f39cc478dbfbf8d09986d1",
        "860f85c92e5826cb93455868fd3e17e7f18d319db2da3b4eb380c7501dbf1d01",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:p2_dihedral+t3+hyp": (
        "1",
        "6e241a164321da7f34787d830cc37bd90ffde8b70129af5eb0047cc1e350b345",
        "336787210b8d3bf2133666bcd43691f84446a35f3abf0973443cc0a83d823d15",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:p2_prism": (
        "1",
        "f71b0e3d8da743697c84bbcd724a5dc5be54fc6820f39cc478dbfbf8d09986d1",
        "8f886e571267f9ceda875a407df98381563523f4c021e80bde9c4937613f4b3d",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:poincare": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "432ac3b67c4b01a8b29bc6557882c6336c8cba1afe8839c001a4d0fac420a256",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "0776466293e06da4eb06ee7239b16b4b419dc0ca6d042e0fb062e82e75c4a1cb",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+hs": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "cf91ba0d977940f1b90385eff9dcc6a225e479226056a3e635c62c0f13f670d2",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+hyp": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "ece53006d5db752ed6fe87648d3d349cc5ee97687fad2ef0c84b32f8d4c87be7",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+lens3": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "a5d45c1d38a20124eb14e44fc54acdb155b676b12fe336ffb020a60a6e538d09",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+o2_std": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "a1ba4c2029d107b8d2e6354bf3a81854d24fd817ac23c53967a01e6817f6a80d",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+o2_std+s3": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "ea0cec0bbcb7e304064b9c893d460fa0796c994aa839b1856d26452a5ba670cc",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+rp3": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "f86c2f04dbf2a9c7489019b508ed5f59391853d11df47062865f1e6e13f051de",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+rp3+hs": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "cb5c53ef4117770dd70e3ef8f0623a9a1a89e91d14274e2640e24ee798a2d951",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+sb": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "b9738020a24bbeccb4abe2bb29ca6fad8cf30c6536fb9f3e17824c7721db3845",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+tb_parabolic": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "3ab9a039c7400108174bb26867a41cf7c6ecc009fb420b5ecbde659d543c76dd",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:rp3+trefoil": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "b4b5b33d990efececb9786a045095c060f70ea97ae366bf44d957700134bad38",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s2xs1_seifert": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "5d22b675fe6a2336da9fa8712e116621e6ff584d3c599c64451283193dcdb3b3",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "fca40fb2bbf5634836addc9a3b68bb62484425f202500bf88bf1624f454aecd0",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+hs": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "908a8f1f6f931e490bd80f6f35c5422204f746ce78802acf71bfd3c978031721",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+hyp": (
        "1",
        "77a11ef8f6f8e26e89da5d97a3161c41b89f9b06cd5d8a6e7335ac63e5ce9fc5",
        "13720a9c3fd0491686713f5cfeb4f5c2f3fb59679ceba4158d5663f447f4a516",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+lens3": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "0c11ea94629129f84af349b66165aa85cdee6348eba2b2d0e5bd24647ceb1bd4",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "8caa28323fe9b8cb87f9badf008ca17a9002e5bd913f47b551d05c364dc45fe2",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+rp3": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "b00e7ae891832a215f64393502027e20609cdbe66f572b052c2c5f274fe0dfa3",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+rp3+rp3": (
        "1",
        "2da370c96e6f27c9e516ce365eb0fb0bf3798587910b8a9c7765ea92e946194c",
        "22be5c9cd60df7664aa91d0b408d05a90df44e061602af00d10372ae535dcab8",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+s3": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "1ca9586687b007932b1e8af51e90c9b8284aeed195def6426405bd6be6a1599f",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+sb": (
        "1",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "1620a50fb2db49668f6b04027bcd412780972cc3e0387695f50ac60eee6162b3",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+sb+hs": (
        "1",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "473373e042b6e91be06a59e431052e6fecb4247341763e0103d341b35b1a53fd",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+tb_parabolic": (
        "1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "f97f719aa5aade3366045124ee33ac3134dff948b3b1252d866f4e5b16e34526",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3+trefoil": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "5758e171d020f94b8b4511008bd08280c1fddf163c21f819ad5c642a71c83cf8",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:s3_fibers": (
        "1",
        "2d883a9643500cfd687637634adced1a8e9d764af4bc7e5b885a52eff61df350",
        "2cb4aaf6bfeab6cb36f0f027292da02c3d20dc8f04ea65dd47eaaddf02933169",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:sb": (
        "1",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "1082626b8216e2e21bf4011110d6cfdc9d23fc4d2720e4c36a3cff2a1db0a974",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:sb+hs": (
        "1",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "0509d64c095703281a7576f5709b127d50b54c00ccda154cea79980590ccb76d",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:sb+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "9442195c48106e9263d21de3367785d595acf9597bd14cfe0652bda2f79cc471",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:sb+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "2e42f2ca0c6b1809c0f6a5598165d3614c027fdb67b534b8e38414a7b3537b1a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:sb_twisted": (
        "1",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "1082626b8216e2e21bf4011110d6cfdc9d23fc4d2720e4c36a3cff2a1db0a974",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:solid_torus": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "cfcf65d9e78905cba28fc0a5cb9f345a6f9936bfcd294d6e3b71092d5b9707bf",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:t3": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "7176779a6a9b49f587cdf095a10200c60bc9c9ca20f4a2b65b183a50b02d0b9c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_det_minus": (
        "1",
        "30875b912a51279742fd0dc4fcf78b62810098e5edc2ee019a18910d69e5f3c5",
        "a6ff4b2b3b77a5b0effaee898db66d58b6f52fabd69fde162b8b1dc25af1e518",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_elliptic": (
        "1",
        "afe72549b56ddc521469d367e8693fe60e2b03eacf55305028aaaab19bf99294",
        "3d73c67bf6f4eea1aa8318a930bd085b8a9a895ec6b9820e6a90a79752148e2c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_hyperbolic": (
        "1",
        "7929a559c4fc808b1fae746042ec993d1e7731c58b433bac8c04e17d9d983e2c",
        "9a361dfe4af84735f120f0ca06f0fed0d6db8f5ab11aeecf21636464e68955c1",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_parabolic": (
        "1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "24c28559621b8acc52862644eba8637afd6e87cd1a7ed4febb1dc324c683a5ac",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_parabolic+hs": (
        "1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "c87de0a46269207a5d74a134129962c8525e7071c16f280107f5bae4f8af48c3",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_parabolic+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "ef5489f02b041303f16a9818bd6aa1fb18cbf73f383980a838c89c2c7c9ae307",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_parabolic+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "6494b9ff3f0790d26a723b219e8837d801bf9697080cab5304f7ebc2d59639ae",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:tb_parabolic+tb_parabolic": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "236c0e99888ef8990c560d5d77564dc37c21365870acca2f62bc12d911836382",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:torus_two_holes": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "8989d0c3aa5a5110fc73bc07f234853331f396e05b5d45bd75e784ab2990e145",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "1c1268a5332c6b5d95068854ff2670f29816e8070e522ee21641adb18758b7fa",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+hs": (
        "1",
        "3c06417bb0a2b7f5ced3664ac4562b14f1344e9dc5790bb4bc74d7a123d29dc7",
        "4898e3c6b0e6718e30e310b6871d9137114995d7a4196d8e9a4cc350b4d279f9",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "269b6f7bf3fc1a21f7b572d84b5bee3b8007c3554a2b1f274dc4ad1185b346f1",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+lens3+sb": (
        "1",
        "6e241a164321da7f34787d830cc37bd90ffde8b70129af5eb0047cc1e350b345",
        "867cf1f40c4eb0e3be48595f9cddaecf62dbd549d2a9bffa7a6ad240c0c3d10a",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "78bba6826272ae28cd556b322e908e350c5f38e1198fee6a43384d913fdf2c87",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "67ce6edd96e7845d40f78e759f6e01363ef2d6e98ed39858a955b8a56783629c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+tb_parabolic": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "1543d2d6f04b84ec2b12fe087828bc2562d686f4515e6acf7c7d1a7f3e711e5c",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "nonor:trefoil+trefoil": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "5824193f519aea110b5af1fd33eb9bccd897eca82be6a60991e3b857a4f83b47",
        "83945a3960dbfef18dfcd1c1daedc70c63724dbc5e8623b666839e9fc9e76618",
    ),
    "or:flat": (
        "1",
        "5445b21efc33a9b298ba2bfdd4d529a32f99d76c83294aa507331dd044431390",
        "1eb208f00e00ac703868e62bcd5b866ccf707a7237453929d5566ff4688b9e0e",
        "39ee15f4195a1c3c27956d36ccb27709c3cb9fa06ec825e8a2f87baad0f8c842",
    ),
    "or:genus2": (
        "1",
        "5445b21efc33a9b298ba2bfdd4d529a32f99d76c83294aa507331dd044431390",
        "97922f937071745ccff9c27465e8840f02a06f7e81065b8953942fa3f1254827",
        "39ee15f4195a1c3c27956d36ccb27709c3cb9fa06ec825e8a2f87baad0f8c842",
    ),
    "or:hs": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "7bce4bc84ee298d6ff3b4e9deb66e37dee51cbf5f2ba201de9eb45ae34d63097",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:hs+hs": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "22dd8fcf1568eaac77d080fc54d7dd83e95424ea682e9f211c0a2e6b718808ae",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:hs+hs+hs": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "01fc30e683b4e173b4ee59ffff00514f06754b9e9127653a8be0e4efacf64f56",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:hs+o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "60a99c22b53f06629b9c2b8eb7bac6efa2f7c744f9902de16ab9b4a0abc48557",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:hyp": (
        "1",
        "fabc99cb83da7a6d4a0d5e75f90eb1d1cbd7336c9d339268c7fb4a0c7cb48014",
        "11bdddf9fa5819751f70791616a16f8f6e78ead01e6ba5365996fdffe64d25fd",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp+hs": (
        "1",
        "fabc99cb83da7a6d4a0d5e75f90eb1d1cbd7336c9d339268c7fb4a0c7cb48014",
        "eb8589069484968a60fc698a510309c7d7e595b50b88a0f612efbeb1beb5bf55",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "9c364a48d0a04fc965ae762f579ddc573990400a95b9a12d854fb78e6757e4c1",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "126357b52e3b4b5d15fe1f9edad8ad605d6b09325fb1ed3fd9939a2dc9d5171c",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp+sb": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "5c48f6321a949f87f540e7c26d38990ff388312b53345295c73732fa885011d3",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp+tb_parabolic": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "ebe977328dcd7db78a707d5961994641f5f49a21e35746cb00a44449371979e0",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:hyp_inf": (
        "1",
        "a4190b71c00663a81a42f3fe4f54d847acd50a9dc4b899529719bacb8572894e",
        "5cd571df04c8d842551345775e43164fc271d653e923d91f84d17569a649c3b7",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:lens3": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "fecf2aba706a59039cb4848455a07422d80c1bc1feef7d7f545a0621c01c0cd1",
        "f7cefc09ac32bbe25d8acc3c4dfcf358773538c6352a9115025d8f7bde5f8a83",
    ),
    "or:lens3+hs": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "ad512d217a1caf05b02a56e8f7bea523b40b264f5d002568b06ea6adc79d4c88",
        "f7cefc09ac32bbe25d8acc3c4dfcf358773538c6352a9115025d8f7bde5f8a83",
    ),
    "or:lens3+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "5733b01dc63169f055faa42c27c258634cda95ab20417f5e003356c4f5e8fcdb",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:lens3+lens3": (
        "h_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "6da3dcef2ff499fef19ef02c1465026337bd21942373249c2e5694f1f62730ab",
        "fb143b9e31373951d98e1cb44b2d7bef0e233b9926ba09044e664d82a1f6b822",
    ),
    "or:lens3+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "0cdb7b80d9a22789c927703cc9f704d5fb1cd17ccc036d9da6b0720c636b23f7",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:lens3+sb": (
        "h_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "f30199198f7640a1b060ac7a5b7f0bb519aaca4f29f1f5af37ee3fa934df793f",
        "3228b5acf1c037d75bf53e629b46a656b954bd531ddc60befdcdc406b99df489",
    ),
    "or:lens3+tb_parabolic": (
        "h_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "01edd2adb29927776eb4b85bbf366b58d108650a8bacfadc642b62e3fdbdf371",
        "71bd766cad5486a6218e3d55938ef05516ffcb03a340625bf9560ca615622297",
    ),
    "or:lens3+trefoil": (
        "h_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "cb3c5ff1b866e1a9172946a3695f49fcc3800ef78afd191a9da1aecc120b4e51",
        "a91583b762019bffd8555342bedde0d7d0378c343ea5652b8f32b096eaf3ff8b",
    ),
    "or:lens_fibers": (
        "c",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "10d2960868a01f9cb0ba34455fa3c7ea8c5315ea53e923f2702784f39e8d14c5",
        "c5c9a8e2453075f4fed4f60961063d1f3a99ff3799819070682994f64fac78d9",
    ),
    "or:mobius_bounded": (
        "a1",
        "91f66e90c226fb3a6aafc57d2e7ebe31b50de21adc5a9bb56a6f0c5a35673acd",
        "f4f250068b3dc17243a0c4475c7c285e8060fd020804caf058e2900d4abcb9f3",
        "dc9818b4c64a696f3e254bab9c5a0471a7266c299e1019bad6ae214fdcf46d5d",
    ),
    "or:nil": (
        "b1",
        "9c7dc0f8e8c380e0fd9420b5e34c1a09482a2038512374321e9985ebbd293b26",
        "2df8fdb36e8061cd83530af21f3221b1f37fdad6ffd57cf718e3811d7f80abb3",
        "80a1983c54fc185d6d8d6e959e54c09a3e0de6b0b82cdca9b3a2d1bd5ee41999",
    ),
    "or:o1": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "d42153e9abc07307939f3c15fde934458fb397795ed30c88d7b2c4a752bf330f",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:o2": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "e0fabe77359616b334274804eb2cb8032ab8db4ba4e9fea3aaf1de973df094b5",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "e0fabe77359616b334274804eb2cb8032ab8db4ba4e9fea3aaf1de973df094b5",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:o2_std+o2_std": (
        "1",
        "26566b83fd524d17d69fe53507bd5c69c44379b8d54b363feeb51b4ab46143eb",
        "c8ae575631f15f707f698adc122f747e878ad129a291835b90c6a75f1d3cf0c6",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:o5": (
        "1",
        "d249e0909a9a4131e897f86f90ecd2f2a120eaa797f0f0fb629798ee2ff70eae",
        "a0fa03fef85632a7af0e9667635eb51f0c6d0d04505e615b7207a053fac32802",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf": (
        "1",
        "ea9d3430532f9f4589a2eaca0f86255b24991081d4157c3b35cefe25a6a58738",
        "048b01ccfaf71ec3acef7c582626fbe8c5b548b4211b63888f9f557dc768f14c",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_ncs": (
        "1",
        "41e209e4aa5157a3ed5def55015149926588fba64265b4c74567d5a5eb018e3a",
        "6e2b80f2680bc390c838594694d3ef493dfb063e9837611c449c394e2e6c34fc",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_no_ncs": (
        "1",
        "b336fd73a2bdd908b774cb22c9680b50d564df1d44dd1abd1d75ee203dc3a91f",
        "449acdd452ff45258984d98d99a4d7bb256800fce3bb8a21399985bad1b9e7d9",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_p2xi": (
        "1",
        "ea9d3430532f9f4589a2eaca0f86255b24991081d4157c3b35cefe25a6a58738",
        "048b01ccfaf71ec3acef7c582626fbe8c5b548b4211b63888f9f557dc768f14c",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_std": (
        "1",
        "ea9d3430532f9f4589a2eaca0f86255b24991081d4157c3b35cefe25a6a58738",
        "048b01ccfaf71ec3acef7c582626fbe8c5b548b4211b63888f9f557dc768f14c",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_std_ncs": (
        "1",
        "41e209e4aa5157a3ed5def55015149926588fba64265b4c74567d5a5eb018e3a",
        "6e2b80f2680bc390c838594694d3ef493dfb063e9837611c449c394e2e6c34fc",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_std_not_smp": (
        "1",
        "ea9d3430532f9f4589a2eaca0f86255b24991081d4157c3b35cefe25a6a58738",
        "048b01ccfaf71ec3acef7c582626fbe8c5b548b4211b63888f9f557dc768f14c",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:oinf_std_smp": (
        "1",
        "ea9d3430532f9f4589a2eaca0f86255b24991081d4157c3b35cefe25a6a58738",
        "048b01ccfaf71ec3acef7c582626fbe8c5b548b4211b63888f9f557dc768f14c",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:p2_dicyclic": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "9097b59ff7cc3019d4651667dc7e69fca10ff14049c65d3c146ce0293c62cc1d",
        "39ee15f4195a1c3c27956d36ccb27709c3cb9fa06ec825e8a2f87baad0f8c842",
    ),
    "or:p2_dihedral": (
        "r1",
        "216b85c353373ab79aa0aba47ba6d8ba4cf2702caadf867db9f26da0e6b697ea",
        "77792fbac4bb1558ebf682ec2d8a9e5acbfe9d1c691a848f8f7d7b0fca78a945",
        "12b5b38e5d185a2d22f368a5d2625ef3192dbb84e0dfb37ca892e8534c35eb47",
    ),
    "or:p2_dihedral+t3+hyp": (
        "1",
        "6e241a164321da7f34787d830cc37bd90ffde8b70129af5eb0047cc1e350b345",
        "dedd1d30641e5ef6f21656c341498e3a89a0c552736ad2bdfb21b1b17f395fde",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:p2_prism": (
        "1",
        "0d35f21f7fd066ca6dac089296b23044b05a5be8208ecb180463a0deb52738dd",
        "b4720b9996e7b1511a0b8a21fd6b9673fb136a3a54983559e55d17c130942854",
        "39ee15f4195a1c3c27956d36ccb27709c3cb9fa06ec825e8a2f87baad0f8c842",
    ),
    "or:poincare": (
        "1",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "47b6015e04bddc7fec367d25e2ac68fff46fab5be6a70f0e8a196cb102b2a18b",
        "39ee15f4195a1c3c27956d36ccb27709c3cb9fa06ec825e8a2f87baad0f8c842",
    ),
    "or:rp3": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "d6cf2c0d0fe682c194daed2532caaee8ecc67b999de0c631d6c23dadf45dd2c8",
        "696bfbacdab0249afbaac2218666118671c14d456d164d35ad10881ec0c3c56b",
    ),
    "or:rp3+hs": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "7eb97ef29d70afb008a20479204aef2d8bdbda476e343581a1533c69e2f65c72",
        "696bfbacdab0249afbaac2218666118671c14d456d164d35ad10881ec0c3c56b",
    ),
    "or:rp3+hyp": (
        "1",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "f41575b217a75c087329e8dd70ef70960ed334d9c5e040c0dd49345244c10aa1",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:rp3+lens3": (
        "h_0",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "9e596e0973bcb4646b5c73c9904e49df5b43400c17d8746781cdf7dbc8145940",
        "501b2711e0ff64a886806cac5fe21dd5f611c477672e2fd820b8a248e1cdd25f",
    ),
    "or:rp3+o2_std": (
        "1",
        "26566b83fd524d17d69fe53507bd5c69c44379b8d54b363feeb51b4ab46143eb",
        "ef6b8e7c0b1ae07ae44374c7e82c419bfc265091ce44ae4f194c70c6132ab761",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:rp3+o2_std+s3": (
        "1",
        "26566b83fd524d17d69fe53507bd5c69c44379b8d54b363feeb51b4ab46143eb",
        "b26c9885dd750a5dd73c0f9415289633ae19b2c16ab72eb80bd0708960905d67",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:rp3+rp3": (
        "h_0",
        "4ced2bdf555495d830eb851ed71aafd06585d41377c57fc9371735a37660a877",
        "38f5ec5454cbcc1c5a576cc3be509427668fb462ac3ebe7c7d0e01502c6e5462",
        "50259ee081125d653e5ec5a1d3c8189dac0e7cfeeb0b1c3694a9ba29353e04d0",
    ),
    "or:rp3+rp3+hs": (
        "h_0",
        "4ced2bdf555495d830eb851ed71aafd06585d41377c57fc9371735a37660a877",
        "edd3d812e23b50e40510c35f0b1e402aade250625cad7998384cf364945af99d",
        "50259ee081125d653e5ec5a1d3c8189dac0e7cfeeb0b1c3694a9ba29353e04d0",
    ),
    "or:rp3+sb": (
        "h_0",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "dbf51961a0f3829b57988604f085ed8496b5f34358400c0e0dade82752d5a859",
        "e64f64f7b44d6e126e2d317ffe2b9115a015e8163f14b3e2e449bf6e7343f1ac",
    ),
    "or:rp3+tb_parabolic": (
        "h_0",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "e920096b399f604ae07def3cad34b60ce6c388b8cac11e406a09df7c4eb03f9a",
        "b5792ae2f715e067c2a2f487aabbddcbfe1988be00be8b121432d01d7ba3c1fa",
    ),
    "or:rp3+trefoil": (
        "h_0",
        "fd6a810af5ac919949cce8059c0bc8488c068b7ac1899a5f4f1a6c1085972140",
        "ea5dc6a3e33bf212db26fa2bf8d75f51a177f3afe4e475be7f46e6f84ba97a20",
        "3a866008f32e8a70e1f6b49daf1b3e6a868b0e64c040bf95ea946b6e3180ad85",
    ),
    "or:s2xs1_seifert": (
        "h",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "7ba10babc18be2a13aa555bb38a68e522bcadc175e3063541765f9a706e9f57d",
        "c27ed1435235bdedd01fa6dcba83c1b0ca6dbf648fffd17d77288c8c91075926",
    ),
    "or:s3": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "a59069cbeae38cdafb2d80798bef693caf2b5858ca0325df048736b491507ede",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:s3+hs": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "2a7dda919782d3958a15e339eae82e86cd2acb3caba51711a6fc9db696d3b35c",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:s3+hyp": (
        "1",
        "fabc99cb83da7a6d4a0d5e75f90eb1d1cbd7336c9d339268c7fb4a0c7cb48014",
        "6c9c606cfdff0c4d959e576ba5279322c1134d3457006cc406f9dd32c268c8c5",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:s3+lens3": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "92bda3093195568f99e62d8e529d8ddd58760a8927ea1191bbc085ae76db2d30",
        "f7cefc09ac32bbe25d8acc3c4dfcf358773538c6352a9115025d8f7bde5f8a83",
    ),
    "or:s3+o2_std": (
        "1",
        "bced91e49cfb7d443117ed61283c09794a80eaa18463de2c37fd3be2c4864157",
        "ab36fe9dae5c94c5820b6b55f6383783c8dcab16571ed81d4854285c2e24a085",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:s3+rp3": (
        "h",
        "b717567308bb1db3ac6702081e7871fe495245c1edea158f8c0e24bb62096eef",
        "70e228bec65bf2e2faa63c0c99087c6d0ee22f57ec3abe0867d528b3a6baaf1a",
        "696bfbacdab0249afbaac2218666118671c14d456d164d35ad10881ec0c3c56b",
    ),
    "or:s3+rp3+rp3": (
        "h_1",
        "d75cc5bac674beb734696244ed56b79b3492739ca823fa25febb3d174b8059d2",
        "4682b1addbdca0cb97e3b301c43c90659b4af0dad54a9e17711b0e982f7c0090",
        "e799c8b507b122df53edd6bca7fb2905ed9deb9832b5a2db8349fe797d419bb6",
    ),
    "or:s3+s3": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "d97f1035a988f38802232237b19b6865063573359d9fd9cc959588dcc23960fe",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:s3+sb": (
        "t",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "3970de75d00c424d853bffe6b997e7763d0d7a1b444b785fc24eb8ff622bcb4f",
        "9ae6ca8e16150791bb1a0e2efbd950b4c127275ac325e42958d09a657bd0897e",
    ),
    "or:s3+sb+hs": (
        "t",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "36c41ec920335e68fdb3c3ecae502630335bfdf81a912e1b47faf2477f69160b",
        "9ae6ca8e16150791bb1a0e2efbd950b4c127275ac325e42958d09a657bd0897e",
    ),
    "or:s3+tb_parabolic": (
        "e1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "7202e8f4141510b4bee63c66a7f51925c89f03b7892b7ec291cb648a7f01b073",
        "a619b597a99a1670685af4eebabbbb6191a88de56edaefad0d731d31d2b85ef8",
    ),
    "or:s3+trefoil": (
        "q1",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "6c9811547b44f6ceb1342bfc576a9c66975c147620afbba74c7c2ecd57e9de31",
        "12408b1a8e5e700478ba7ff1642d41430c19a085fc5bbecad73e3c0e5bfb0f29",
    ),
    "or:s3_fibers": (
        "1",
        "695de8688377bb1e59cf180004e094a8b01c8445833ce746f2d343dfa434cd07",
        "ef758792f6768004fbec18cdd7ceb8763010ada3d72ac613aea19ec07ff0bd4f",
        "3251aaf40c5856526cd89f1e21af7817155a10e9009b54ea139473f810727df9",
    ),
    "or:sb": (
        "t",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "8fc6a9d0f0eaf8170d31c9661d8f57c7f3b5e81a4a8da4ad016b1c800ef4a147",
        "9ae6ca8e16150791bb1a0e2efbd950b4c127275ac325e42958d09a657bd0897e",
    ),
    "or:sb+hs": (
        "t",
        "193fad51a3b348a369e585a588092ffa321ea1ba21bcc858ef99254b4bf9bdc4",
        "41a935e8ec6cb950ee6512c3ec99fa40ee6d5728f9f9248bf77951bb4e0f8686",
        "9ae6ca8e16150791bb1a0e2efbd950b4c127275ac325e42958d09a657bd0897e",
    ),
    "or:sb+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "a9dc440b152bd8f2dd271eba52e839018b69bd122b1d237386743048136c42ec",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:sb+sb": (
        "t_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "3cab6ce9b0926a9a303e337bc741cfc79d4ef28b4756db08534d4084d5972905",
        "692458103f976f3ae8667a7976683a3567f1a26cca09f1cfb81240a6fbb6af28",
    ),
    "or:sb_twisted": (
        "t",
        "57532707308a3fc7ca8890d3635844440499a7bb4adf9619d13fb69922a770f6",
        "57532707308a3fc7ca8890d3635844440499a7bb4adf9619d13fb69922a770f6",
        "9ae6ca8e16150791bb1a0e2efbd950b4c127275ac325e42958d09a657bd0897e",
    ),
    "or:solid_torus": (
        "h",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "59906415ec4a02a591bfe0843ff46a7fc90dbd2957199dd9b4ce55c681a7e019",
        "7f4ec4cac2f522f1668d9fdbacce2b2e7a5a1eab97d80b9d369918520d22958d",
    ),
    "or:t3": (
        "b1",
        "9c7dc0f8e8c380e0fd9420b5e34c1a09482a2038512374321e9985ebbd293b26",
        "272db3bc6546de811ceb3072f2fdaf439c12e71872e9c78f0252c0953be998d5",
        "2d648eb5900a7ba6a9e93629295675ee1b07a2237a23e1b801d8d26ae859c662",
    ),
    "or:tb_det_minus": (
        "1",
        "092b8273e8cae792b5cc3175cfe92f6020fb3fed5479eab7d8312e4ade8d7c40",
        "092b8273e8cae792b5cc3175cfe92f6020fb3fed5479eab7d8312e4ade8d7c40",
        "ed49263d5836ee467ab73e273e2a3893c3dc43a170e3938df91f798fbcd20168",
    ),
    "or:tb_elliptic": (
        "e1",
        "afe72549b56ddc521469d367e8693fe60e2b03eacf55305028aaaab19bf99294",
        "9d2e8d0b531aa4408bb3547ca5e79f23d82e894e55414bee94d8ac216a82524e",
        "f7bac120ba04f1f9fea85590bbde83f00f09dace008760eb219bac41232bc48c",
    ),
    "or:tb_hyperbolic": (
        "e1",
        "7929a559c4fc808b1fae746042ec993d1e7731c58b433bac8c04e17d9d983e2c",
        "6b0007870a10f2e89598c4b8638428147e05826e86cae9ce09eeb0dc2cb2c57e",
        "ab60555bb72e9805b28bec0f07f2238f571601db242bd9420bd550d50eab7629",
    ),
    "or:tb_parabolic": (
        "e1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "6f256459d9eba4e14d469ea3e120c3be34c1cbab977ba66d224e322e7086d3b0",
        "a619b597a99a1670685af4eebabbbb6191a88de56edaefad0d731d31d2b85ef8",
    ),
    "or:tb_parabolic+hs": (
        "e1",
        "a0a4ce13b7e2a65fc3b1f6bc1b628c9760c927e8a27b646e7a2be6b02ff07c9c",
        "d2f97504ac910894ddf65f7e96e7d7f05d4fdfe8d05d26e283869a6e708eda26",
        "a619b597a99a1670685af4eebabbbb6191a88de56edaefad0d731d31d2b85ef8",
    ),
    "or:tb_parabolic+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "e0cca3fc87cbb824dd3929e03bd3ca76a9a3528fc8a0cf2a517e324fc2d2b780",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:tb_parabolic+sb": (
        "e1_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "05cc7b6d79a4f3f4852b827739a46326f079011af4286377df8c1921fee10cf5",
        "5d9cecbebb8cb57a7ca7a0fb89ad82674f9760f05254a87cf84a5a99a3900b48",
    ),
    "or:tb_parabolic+tb_parabolic": (
        "e1_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "acc03c3fca4b42a4b35e39c6cbc21a10f87fc3a6878d2294faa441e49d97f21a",
        "db0937d8f55c63480e2bcd967099f86d0458db7a377499322538c9503aa9865d",
    ),
    "or:torus_two_holes": (
        "a1",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "9d5a5ce68693d1457420197f0789f0d6deb7df221b2abeefe7a82356f7fe184a",
        "90fb0a06436f81dd10bd06337a3e5cc2e66cbf6b826522daa02ae288d8b8bb1c",
    ),
    "or:trefoil": (
        "q1",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "d06713079d1b450bdbb19d68b22bc1e9d2d2104b05431fb4d8b0e93ae428f63f",
        "12408b1a8e5e700478ba7ff1642d41430c19a085fc5bbecad73e3c0e5bfb0f29",
    ),
    "or:trefoil+hs": (
        "q1",
        "3419ecfa1d24d7688e4f6f8c0392e2407879650c738bbd97660e3e226bf825fa",
        "3551818b51b161e43c5cf855527f252868be476569ca7d35a80f209233e41ad6",
        "12408b1a8e5e700478ba7ff1642d41430c19a085fc5bbecad73e3c0e5bfb0f29",
    ),
    "or:trefoil+hyp": (
        "1",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "2db5e9b863d65b693a3b2118aac8ee2d65169fa28f84b9cf2b55879270e1a3cd",
        "468359f1d5ec8eb430cee2b5f7c4fc9827c4fc1e5c590de60a902eb335295591",
    ),
    "or:trefoil+lens3+sb": (
        "q1_0",
        "6e241a164321da7f34787d830cc37bd90ffde8b70129af5eb0047cc1e350b345",
        "851735b0bc343c859c63a42654d140f67c0772a204e0f104216e2829d8a5772b",
        "440373c42b8bacd881b716c27609e8087d31b63ce145abc4f7119e815066ca33",
    ),
    "or:trefoil+o2_std": (
        "1",
        "2e9ca347629ca0416c00a6b09c4e6eb9f157324e833e05def9722a8829846490",
        "aeb496ad5d1b54cced6d08513cbf47f2a8d1368c7c977f7aa7dc6c01718306a5",
        "def0e3114863111a034e6ff71988c6aad7a356e8adcccaafce50b411db67feae",
    ),
    "or:trefoil+sb": (
        "q1_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "2c85cb6c31efd5de7035004baf103737822aed107d32e7695aa0c932dd2a9c16",
        "49142925b7ce1258bbe91e0b554cf79f06c0e529deb00c5a0e279443ee442aa7",
    ),
    "or:trefoil+tb_parabolic": (
        "q1_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "2e43cd1235825a48edd99d87ba08ffe341765e9ba79da22fc33ab68062678bbd",
        "97eb492ebbb5aed7df20bed6e1516dfe52299341697bfe3ec8c21fe98573c78f",
    ),
    "or:trefoil+trefoil": (
        "q1_0",
        "991ab4afeb17f04253d17078f3089ccb2069b96c564c8311942441729c4fa41a",
        "08a54dbd18a7f1177a668210621735280e53630baad38b6b826a0f7640f20ac8",
        "23d1108bb79888d054d605558cdd039a566bd2269fa37184c0436b35e81e9132",
    ),
}


def _run(argv, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    record = json.dumps([code, captured.out, captured.err])
    return hashlib.sha256(record.encode()).hexdigest()


def test_golden_covers_the_descriptors():
    assert sorted(GOLDEN) == sorted(DESCRIPTORS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_manifold_output_is_pinned(tmp_path, capsys, name):
    element, *expected = GOLDEN[name]
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(DESCRIPTORS[name]))
    file = str(path)
    digests = [
        _run(["decide", file, "--json"], capsys),
        _run(["explain", file, "--json"], capsys),
        _run(
            ["enumerate", file, "--element", element, "--radius", "2", "--window", "1", "--json"],
            capsys,
        ),
    ]
    assert digests == expected
