"""Pinned `enumerate --json` and `witness --json` output for the corpus.

GOLDEN maps every corpus file whose descriptor has an enumerable group to
its designated generators, and each generator to the sha256 of the exit
code, stdout and stderr of two `cli.main` calls on it:
`enumerate --element <gen> --radius 3 --window 1 --json` and
`witness --set <gen> --length 3 --radius 3 --json`.  This pins each
construction's element rendering and the order of its balls and orbits.
Update a digest only together with a change that fixes a wrong report, and
say so in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

from iccdec.cli import _enumerable_group, main
from iccdec.descriptors import load_descriptor
from iccdec.groups import GroupUsageError

GOLDEN = {
    "group_bs12.json": {
        "a": (
            "d3d8b31f4a8cd41b0dbacff09f79a54b71c1e2053db71fd26fbc2b24f5d0f921",
            "044d7a9aca64969fd24eb2f1731eff859dc1bf4070108954f47f15cbd1ab4b0b",
        ),
        "t": (
            "e849d54e2c7254ebc765aa059600d0086d4c886b17909846716072459755f357",
            "0733f93760a04359dc959f4d4df619557869b9ce9f70fed9a40c927d8d521101",
        ),
    },
    "group_dihedral_infinite.json": {
        "a": (
            "8ea6ee9588b804c7b2181e41e0b92ec9583c22c220fa4e450dbff66c2f7a15b2",
            "d9dbba8c4368367c17bf5f21cf3094d78ec210b44d0ac93f9267125445748263",
        ),
        "b": (
            "ef3efa556ef94e0087ae9247a07b532b4503e6df8251758a8d483e88b1349c35",
            "213833e27861c6031fa174341be7504f409144583a12726a7c6192cb5cc24a76",
        ),
    },
    "group_f2_as_hnn.json": {
        "a": (
            "7e2ebd899a6242134a322ebb4ff36fd997bee22fec0e03983ff684a4322be5cc",
            "044d7a9aca64969fd24eb2f1731eff859dc1bf4070108954f47f15cbd1ab4b0b",
        ),
        "t": (
            "e657b3067dbc640927d4a533f79c0c851e74756b47f195184928be9d2790e33e",
            "0733f93760a04359dc959f4d4df619557869b9ce9f70fed9a40c927d8d521101",
        ),
    },
    "group_f2_x_z2.json": {
        "x": (
            "e64441bda0cead7746d4d4cda8eaefbed3091e44e5792d1932abca6f47202645",
            "b31221956e8811ed78c750d3537eeafb9d6754869d5cb5234ef35654133e6708",
        ),
        "y": (
            "5f6b448ada12de1f2a7d4344e87cb480d40384b56be5f390c212ea3a490af153",
            "22b5d72ddbb17ff46edbdaa2a5b6394cfd77e1de8deff05678dc4a919a3b12b2",
        ),
        "z": (
            "cd8c39c760207c155df2451ded253e41851005841ade4be7e9a6c98d7c2c8a94",
            "bc2e29b7134a51992352af427fed327312b42140426455b1ff7a3f2d7816e987",
        ),
    },
    "group_figure_eight_matrix.json": {
        "A": (
            "dcd54c60bb918a392c07b113c749e01ed61ea7e75a9c1f8f1d091b0156a1c3a1",
            "c3bdb0fe5da1da3407fe59df57f34091bb4fc6ea4724a831c5b7c9564a98480e",
        ),
        "B": (
            "251ee28c6945879be070d33c905e6de2d6b13b728bc6821f1d299335bbf58841",
            "e6a1c4c6f38cc9f493a71e95870dbcf891e177f0642d1e98c19566e352671cae",
        ),
    },
    "group_free_rank2.json": {
        "x": (
            "445a522b9090709bb701754c78ccc2faf783940e0f6209a4aa2e4e80d265202b",
            "3e541d41b30b57b85d11f7a56ee762de0d7c5c42fccbdb3582b9ea0374fb6f06",
        ),
        "y": (
            "a6b49f918d2a26655dcb19aa349e822945fe9e339781ed8c1d8ec94818151082",
            "69e0f2e4c23e649fcf618885e30a171669093e2e9b635864a5023c6732df55ad",
        ),
    },
    "group_hnn_icc_base.json": {
        "a": (
            "59a3f3600ad95857888a67c3aac2885351427bd54f7b39930d53df95aca1e949",
            "134b2cf807ea7792b9bbe63c6d028f76f1bbd7226c36b61e2c5d39cbb83ebd8a",
        ),
        "b": (
            "889d2c5bac798d803f776df1e69bbe3b28fc47b892a978d0c47a94ea63adc611",
            "aef0c3e6ed28d7c065e661966350a834eff69b0377a0d932378b30995a799d06",
        ),
        "t": (
            "aa13f2568bb36d9c557c681163644228b9cffb3a7c56cf1abec755050ecfa36e",
            "8de3e346e82be1b8ca60207c746258d88d169092be9fae2f32a7cec6310fcc9d",
        ),
    },
    "group_hnn_z_x_z2.json": {
        "a": (
            "377caf58b0de308c1fd111eb5276439b892eb802196c1aeb667932046e96633c",
            "459bf0d04e8177cf1c7dff42a488d0f7b93bf9be6c5d13124a5e4c5205e81015",
        ),
        "z": (
            "26fd11185fe7269d9eff1575d636787e51ec03a35b08f035bb4e4eba7b5dd8d1",
            "a5b3461abe1b57aa0d62a1371dd1fc969fdc8a0fe4c4073dbffe9b1e75109154",
        ),
        "t": (
            "b86522af3bf25c7d073f1357f5ef41ab96e9e641ba40793b67da7f69c65f3613",
            "6d5080d4721983107c67435f46538fb5f8744ffe81aec28c7b9702da3e46b4bf",
        ),
    },
    "group_klein_bottle.json": {
        "e1": (
            "37411173c8970621371d6558584ad7147b84f0a6a22c4f4de2d71b1ec151e7e5",
            "584c60fb17da0bbe87ca6dc5d5a8eb9e6e932d47f9d975c44dec9774578eeab4",
        ),
        "t": (
            "4ad55645f897d7e0b82316b6896e9cde82fb36a3d140f8a0de429df334d08dab",
            "d8373f46b6f875f7754a519e26c167520d1008bdb15bb5ed300030b360a0062c",
        ),
    },
    "group_psl2z_amalgam.json": {
        "p": (
            "a4cddc8ce854e35ed7a1daf0150f9d3693c4446a7ed92892b8373500ab6aabbf",
            "c74e4c247ef262a8ba48c2880c008ea9a68a1ad5206f57530373e08cc2184b9b",
        ),
        "q": (
            "7ac5d72214452426dde9da170e9c5c9084b5e02978dccd5d42ecfedad787975e",
            "0125beea361c1d63c6ae8cd0743d601265f50c1e8ad4bc477ad5a5e0173d61bc",
        ),
    },
    "group_s3_amalgam_s3.json": {
        "s1": (
            "b06e8e1c99106cbe6ed7965d5b1f35dec0fbeedcb774a3d42fc7444a65a1c459",
            "6d90edc1aea5be33eef11183f143c3b22c83197e41acc282f71424c03c286087",
        ),
        "u1": (
            "cd32c7bc825f20ee6924af4438a0432f883a18988fa0aeb3f64479d871cedc38",
            "befacd7e0e06c6884870156d6f379e5f268a9675ae0a5e4d0afbdcbacf87c430",
        ),
        "v1": (
            "b61d4991f5846909c79eb929ae5730154e10ddb90e3b844a1eddb68c7162f525",
            "34826814e9a482c8f03b1c16eba8f1b3bed8135dc757909a1814a907d403db0b",
        ),
        "r1": (
            "313a16de7864a640ef918e20f850e749f7ddcee9b9250c0be37320d36bee2b13",
            "5c198e607ae491d2bebc8608182d7e520235ed7e9c0ed30c2e4580def1300375",
        ),
        "w1": (
            "43ec851230da3a91eefe49340557a3cfd01bcf8a31e98a5ec8015b510514c766",
            "5f7cb01a6a1a9e421a2e2f72bbc1f02d0acba0f82f207edf9348667a9bd2b85b",
        ),
        "s2": (
            "212217408c25201f29382f0fa2a3260175d07e7a54a314784cbbbd1cc882e76a",
            "6d90edc1aea5be33eef11183f143c3b22c83197e41acc282f71424c03c286087",
        ),
        "u2": (
            "8a1d3cb46d428d5c8d596ccdca43156c7ed58f2c50d8c30940d9c6a2c27f0194",
            "507e36a257c5097d172d4cf369efdabd1dc7bf503a8d2f7a047f85eeaadacf8a",
        ),
        "v2": (
            "71f54a33a98dad4d1e42420c822110a5237a46e6ab78b8bc7fffb258d70a0e00",
            "3c6a2b3546036edf5a4753a452439b36aaaf3721cd995a2d2ea93100efeae2c1",
        ),
        "r2": (
            "1851fd66e6eabc1a3b5687f84bb53d803be18a3d1d2b088e5f891973f7983872",
            "42f2f6e62d1ec7960e33867b69798adfb9d17c29b74af753606a99270ebd0503",
        ),
        "w2": (
            "3204ad175a9632c3e109b19e5ade4b2422bd59cc2baed249ecd49c44a4ee6cce",
            "57a5babd5924f35670c1c612256c4341bb7a7982a55c10ab1ce28bb7bab2e638",
        ),
    },
    "group_surface_mobius.json": {
        "x1": (
            "fe863b5c5015e3591bde755712e8d60408a2eeb8c76e9ce2535b5d8c11ee0548",
            "d0f02d28d6f266ed7de68891998baea5ac12782f5fda6ef88c1bf4064975af8b",
        ),
    },
    "group_surface_torus_hole.json": {
        "x1": (
            "e90578b0708b7b4836eb035b51b40521f023e764a3626adc7c16286dbac74d0c",
            "4c48419046bacd74e36db39fbb1c4d770828bd1ec879bf0a116dce017949a02a",
        ),
        "x2": (
            "275df1a2c183e76b9153acfea87252b6574aa2c71fe8bf8687424a6b6e919728",
            "f1b0b91e33e0394a683c98694ae6e269835497db935cf2394af14d401580e4d5",
        ),
    },
    "group_torus_bundle_elliptic.json": {
        "e1": (
            "be11ca69c5106d317ff750e7996854fadff3222b084e876701a9bef148cea845",
            "6bf8dee20ce67af601d0eb44a4bd5e58f17ba8cfc996b30b3a1b7837aa3ecc85",
        ),
        "e2": (
            "5e75521c81576824af51fcb91a4bc60d0471baa369136e712099a5fe19b0d365",
            "858d60e1f8e2cc591f5477c130a10cccb559f3c1e219850d4bf8df8412f51fbb",
        ),
        "t": (
            "05eb8136472dacce3d8314e5ac3814af9c33f67c710a701dc8383c05ad20f5b2",
            "4d8f7af62ae6dddd990af0c5415b7e895a02a975f7837cd9799d7007b0650e69",
        ),
    },
    "group_torus_bundle_hyperbolic.json": {
        "e1": (
            "9298bf3837390e5ebca4ef97dca8a7ae0e3125392c53c49b7050b58ea47ec462",
            "6bf8dee20ce67af601d0eb44a4bd5e58f17ba8cfc996b30b3a1b7837aa3ecc85",
        ),
        "e2": (
            "d46e21b0e2c996a8fcc21641f185c3f0b91c0fe73d32a898d1eebb8392d2204a",
            "858d60e1f8e2cc591f5477c130a10cccb559f3c1e219850d4bf8df8412f51fbb",
        ),
        "t": (
            "df77560ea37ed82804da3d0626920685cc8bf5d5355aa9f6cc02730911944e9d",
            "4d8f7af62ae6dddd990af0c5415b7e895a02a975f7837cd9799d7007b0650e69",
        ),
    },
    "group_torus_bundle_parabolic.json": {
        "e1": (
            "42b89c68c5434543b112242fb0a115084a7969b8b5f326466cad61bc093ce65e",
            "5ac6f8d6f606399e1670977ffd8ecea7abdc8d145f87abcd7de8442d3508bd0c",
        ),
        "e2": (
            "a3f709246b70deb7d2142a254c933a55104b9d7b5a702934c6db009abd1ee436",
            "858d60e1f8e2cc591f5477c130a10cccb559f3c1e219850d4bf8df8412f51fbb",
        ),
        "t": (
            "6e7b739c1a1b2a2d12a0311f22d7219bdb82107d6167d14db141b7b97120b2f9",
            "e1ed01195a51f20384d106097c8d9be6df6073ea182a937634b9842678aaef11",
        ),
    },
    "group_z2_lattice.json": {
        "e1": (
            "0a6c5fda9867b5d36bfd744d475d7890285632efea19955d7244bf9c53e63557",
            "772b058072d7b93ce13027ed694b5261ad09f2bf6fb8be722b3a91895d5578a4",
        ),
        "t": (
            "67fd528b75d496b178bc1f36693ce56dedba03bcbb62354e61c9a1d559d82fc7",
            "d6b289eb5faf379efa142b0b40200c71077b4c03b21df4ab7c77be5cf486c88e",
        ),
    },
    "group_z2_star_z3.json": {
        "a": (
            "eeeef7d7c6a084b3a04b2fd116d2ea173a5988171c4c7b5e17aac8ffc6c4be18",
            "b11bd6de4636e6804376023d948b89b209002153cb55ec8f255b40d183eab622",
        ),
        "b": (
            "7279e88572b42db6ebe8804edd68f8b8bee9bad7c3d7a50e240e8238498b088e",
            "5db1f903b5e8f3e153880a4edd8b03f3f5dac4790ec4d90495b918deb3504b6e",
        ),
    },
    "group_z_star_z2.json": {
        "x": (
            "33246d226bf1a4febebb1abf06410a74879110eb727ffcfd69b9fd4bf837b39f",
            "b09b082cb5810acc7a3c52e2f9e67a2876273bb6625616c0494c591791711d12",
        ),
        "b": (
            "cdd4744c6e4c0aa9541eda43539f0093cdc2d30fa91e23cb31375775335e174a",
            "74f1340781d899ddff2801aff6d50daa574f3d2c427c1493c4cc1a663191bf18",
        ),
    },
    "knot_trefoil.json": {
        "x": (
            "a25d9d84ad865d2ba5394b79c2434391c287683df2cb3cab29f407e91893fea3",
            "431530e3edfda96c58c1ca9a3c819420433b62ed78d9c326f9d251df5ba7bbd2",
        ),
        "y": (
            "5b790f960192fb5039e545859a93682a721c1ce90bbcfda93362e9530012d5d9",
            "0eb6bd67014d001af9fb6f3cfb0edea4f618f0e9a1dda437d330967901a64c61",
        ),
        "h": (
            "3a54c9702cb0ccd5f4091ff8ad4c692be7e534274e7d47e500378f4aa215e044",
            "64686ee157cf565c5a193f8e814560cca06a5972791ef653fd9a0bd9b7acda9c",
        ),
    },
    "knot_unknot.json": {
        "x": (
            "43809c959e266b4cc1f2c0a118a0cc8882fc879c2412d2e77d91b427e2aa2a7a",
            "dad79fe424e9c1232d02fb84a323563bee7b9353e0942332b519f12bfed9e154",
        ),
    },
    "manifold_homotopy_sphere.json": {
    },
    "manifold_p3_p3.json": {
        "h_0": (
            "12bcfaafd795b498bd390e6fb3084c2e50beadbc292029f9cf66990ca8c8d0dd",
            "8681d95beaa5b814b24092ecd9da5381717a239d24833b8821a8567bad283fc9",
        ),
        "h_1": (
            "4a8b370dcbbd1dff95fb1f5bf91511ac80207302d59f9396bca4c16430ba769b",
            "7cbd77585b5bb6c6f679a61e734a78f2b2acbfe784dfdd136bde93a43936a393",
        ),
    },
    "manifold_rp3_lens3.json": {
        "h_0": (
            "a2baf1ffe51a0ad245c07a27e8a75f411579cac44b83dd4f0fa0963722b18f1e",
            "7a9f5f1812ca3fcbee4acac7d8fc075e39292a087f42e51268f25e67f0a1ef42",
        ),
        "h_1": (
            "bcdf07ccf6cfcb76ae894bdd41958ec987d6c4f5a09380efde0b1b30b8299d44",
            "f8728d4f6ff909c14439a4c4c07be35f709eda84afe3c813b6ddb40f5cca840d",
        ),
    },
    "manifold_s2xs1.json": {
        "t": (
            "893b32f7cafcfa40050f44b5e853b815983ff32c54dd41313a90a1e8470133ba",
            "2fdcb63f42a63e16de8a8616f840b090a688c0e6cefbdd05a786c4b46f8ef6d0",
        ),
    },
    "manifold_s3_seifert.json": {
    },
    "manifold_solid_torus.json": {
        "h": (
            "e945fd04c7d45afb2c477af009df2541538219a0a78d27821b187de8f728fdf0",
            "8a61eda61d32857ff7df8cc09235e3e134300c1cb8cb0fab7c1cbba32d3f9725",
        ),
    },
    "manifold_t3.json": {
        "b1": (
            "7cc750085ac24d7cc09474ce9aec0f09bfe9bf51718c49f62aae977173a8cc43",
            "c5bae46f60f015034c1214af774f09d924b195f2daeb15afa1eae32c93ae6069",
        ),
        "h": (
            "5b8cc856efdcaf3400b35f28ec2c6a1745a0c9445d42293248fb64844c0c812c",
            "95ff09068199ca86235fbdd7ac0316534cf68170cbf395e0ad5d9bb68c4225ed",
        ),
        "a1": (
            "f5180c17fc39bd878e3e14ec23a7b0e2abcb3181b108d4a3e37b2fe8dfe095be",
            "ff3ed54c818a62c235598f8c2e9bb77b5dde2d614c9006bf785a62ea1e42fd2e",
        ),
    },
    "manifold_torus_bundle_elliptic.json": {
        "e1": (
            "44d2da690ccd167aaf851eb21570a75250102ebdcc0d900ef391bc754b5c20b9",
            "57fc493500f66d6c12c5f361a70029855b4a4e9f7a124fc7ac142593b37e0e12",
        ),
        "e2": (
            "55577b8123c4a8691887c64898d6423b4429116898a7d784dbb59424210836af",
            "f4788bdc9adf0084b8fdcdb3fdeb730cc293f949eab4a5794b674b0694779eb7",
        ),
        "t": (
            "d8f8adca998353ca3806e840845dc36e5d5c3a53d3fab68205c2b356b3b8e5cb",
            "d434de3624efea35ad68f3d2cd39964572dffc8e1eb4cc81e66b06bf9df59bfd",
        ),
    },
    "manifold_torus_bundle_hyperbolic.json": {
        "e1": (
            "b0b56c1d525cf9047ab930e07a0e72cbb0f198acf4db9fc04ed2966f603fd6cf",
            "57fc493500f66d6c12c5f361a70029855b4a4e9f7a124fc7ac142593b37e0e12",
        ),
        "e2": (
            "6f842e6018b8ee9abc7c78053e36c91959501c7c3260b4d2b8a92b30c46e9956",
            "f4788bdc9adf0084b8fdcdb3fdeb730cc293f949eab4a5794b674b0694779eb7",
        ),
        "t": (
            "a8460666afdb2e3908d63b7e23c8ac3c7acc43b3ef8a73e78324f26d16b1aa3d",
            "d434de3624efea35ad68f3d2cd39964572dffc8e1eb4cc81e66b06bf9df59bfd",
        ),
    },
    "manifold_torus_bundle_parabolic.json": {
        "e1": (
            "f0bf05958453c700112bda10902e605020545742201ecf90e7a5587c62512fc8",
            "107ff9bb6fd6252873cc9840507507641beb2930bd1cbb48064d3a78b941dc14",
        ),
        "e2": (
            "484432345dd58a908700ac541f2924e0903048617f1d38da34aac605c4e754ef",
            "f4788bdc9adf0084b8fdcdb3fdeb730cc293f949eab4a5794b674b0694779eb7",
        ),
        "t": (
            "4ae71d705f796f07bacf9239c64ee8f8e7fdf89377dd3067767da6419ce476c1",
            "d3c99ac99078fc7d308be62e566afcc5c8ae029ad4549edb2d6fc8284302246c",
        ),
    },
    "manifold_trefoil_complement.json": {
        "q1": (
            "7c256e778df0f58f067e6d542f3a88029c2babfa6e956ca7e03ade3d255f87cf",
            "22aba41ce7afe8a2ce8b0fc7c07e62ad3746a2bba47ae567a7b04d122962f53f",
        ),
        "q2": (
            "7269d464e4fab28e203bd0993186cfb610387c8a072a9fcb7a35caaa7f35a6fa",
            "1a209c5969d59969ac9aca9843a1c0932c87e3849ee5e30a50d0929f33f2c93a",
        ),
        "h": (
            "fcc9891ebcedcfeac853b340847d51331dca466a62ab30ae6993dd221eb701dc",
            "0306473a93728f0fe09a43d3658dd147b84fca9402b14764908e372dab7081e0",
        ),
    },
    "manifold_trefoil_plus_sphere.json": {
        "q1": (
            "7c256e778df0f58f067e6d542f3a88029c2babfa6e956ca7e03ade3d255f87cf",
            "22aba41ce7afe8a2ce8b0fc7c07e62ad3746a2bba47ae567a7b04d122962f53f",
        ),
        "q2": (
            "7269d464e4fab28e203bd0993186cfb610387c8a072a9fcb7a35caaa7f35a6fa",
            "1a209c5969d59969ac9aca9843a1c0932c87e3849ee5e30a50d0929f33f2c93a",
        ),
        "h": (
            "fcc9891ebcedcfeac853b340847d51331dca466a62ab30ae6993dd221eb701dc",
            "0306473a93728f0fe09a43d3658dd147b84fca9402b14764908e372dab7081e0",
        ),
    },
}


def _digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


def test_golden_covers_every_enumerable_group_and_generator(corpus_dir):
    generators = {}
    for path in sorted(corpus_dir.iterdir()):
        if not path.name.endswith(".json") or path.name == "manifest.json":
            continue
        try:
            group, _ = _enumerable_group(load_descriptor(str(path)))
        except GroupUsageError:
            continue
        generators[path.name] = group.generator_names()
    assert {name: list(GOLDEN[name]) for name in GOLDEN} == generators
    assert len(generators) == 33


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_enumerate_and_witness_json_output_is_pinned(corpus_dir, name):
    path = str(corpus_dir / name)
    digests = {
        gen: (
            _digest(["enumerate", path, "--element", gen, "--radius", "3", "--window", "1", "--json"]),
            _digest(["witness", path, "--set", gen, "--length", "3", "--radius", "3", "--json"]),
        )
        for gen in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
