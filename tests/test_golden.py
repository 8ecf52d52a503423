"""Golden outputs: the sha256 of each CLI invocation's exit code and stdout.

The digests pin every report verb and both table verbs on the fixtures, so
a refactor that changes a single byte of output fails here. A digest is
changed only together with an intended, documented output change. Before
the digests are compared, each output is checked to be a fixed point: a
report of ``json.dumps(doc, indent=2)``, a table verb's output of reloading
and re-serializing it. Those checks fail with a readable diff.

To print the digests of the current code:

    PYTHONPATH=src:tests python3 -c "import test_golden; test_golden.show()"
"""

import hashlib
import json
import pathlib

from click.testing import CliRunner

from weakind import granular, tables
from weakind.cli import main

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = sorted(p.name for p in DATA.glob("*.json"))
ALL_KINDS = "ci,csi,pci,cwi,wi"

PREMISES = [
    {"kind": "WI", "X": ["A"], "Y": ["B", "D"], "universe": ["A", "B", "C", "D"]},
    {"kind": "WI", "X": ["A"], "Y": ["C", "D"], "universe": ["A", "B", "C", "D"]},
    {"kind": "CI", "X": ["B"], "Y": ["A", "D"], "universe": ["A", "B", "C", "D"]},
    {"kind": "CI", "X": ["C"], "Y": ["A", "B"], "universe": ["A", "B", "C", "D"]},
    {"kind": "WI", "X": ["D"], "Y": [], "universe": ["A", "B", "C", "D"]},
]


def _cases():
    cases = {}
    for name in FIXTURES:
        path = str(DATA / name)
        cases[f"validate:{name}"] = ("validate", path)
        cases[f"enumerate:{name}"] = ("enumerate", "--kinds", ALL_KINDS, path)
        cases[f"enumerate-limited:{name}"] = (
            "enumerate", "--kinds", ALL_KINDS,
            "--max-context", "1", "--max-statements", "5", path,
        )
    wi, cwi, csi = (str(DATA / n) for n in ("wi_cpt.json", "cwi_cpt.json", "csi_cpt.json"))
    nest_demo = str(DATA / "nest_demo.json")
    cond = str(DATA / "cond_cpt.json")
    escape = str(DATA / "escape_cpt.json")
    cases.update({
        "check-ci": ("check", "--kind", "ci", "--x", "X", "--z", "Z,W", "--y", "Y", wi),
        "check-ci-joint": (
            "check", "--kind", "ci", "--x", "A1", "--z", "A2", "--y", "A3", nest_demo
        ),
        "check-csi": (
            "check", "--kind", "csi", "--x", "X", "--z", "Z,W", "--context", "Y=0", csi
        ),
        "check-csi-fails": (
            "check", "--kind", "csi", "--x", "X", "--z", "Z,W", "--context", "Y=1", csi
        ),
        "check-pci": (
            "check", "--kind", "pci", "--x", "X", "--z", "Z,W", "--context", "Y=0", csi
        ),
        "check-cwi": (
            "check", "--kind", "cwi", "--x", "X", "--z", "Z,W", "--context", "Y=0", cwi
        ),
        "check-cwi-fails": (
            "check", "--kind", "cwi", "--x", "X", "--z", "Z,W", "--context", "Y=1", cwi
        ),
        "check-wi": ("check", "--kind", "wi", "--x", "X", "--z", "Z,W", "--y", "Y", wi),
        "check-wi-joint": (
            "check", "--kind", "wi", "--x", "A1", "--z", "A2", "--y", "A3", nest_demo
        ),
        "check-wi-pretty": (
            "check", "--kind", "wi", "--x", "X", "--z", "Z,W", "--y", "Y", "--pretty", wi
        ),
        "commute": ("commute", "--x", "A2", "--z", "A3", nest_demo),
        "commute-noncommuting": (
            "commute", "--x", "A1", "--z", "A3", str(DATA / "noncommuting.json")
        ),
        "nest": ("nest", "--by", "A2,A3", "--as", "B", nest_demo),
        "probe-3": ("probe", "--vars", "3"),
        # A strict conditional table: given-configurations (Y=0, Z=2) and
        # Y=2 have no positive row, and context Y=2 matches no row.
        **{
            f"check-cond-{name}": ("check", "--kind", *args, cond)
            for name, args in (
                ("ci", ("ci", "--x", "X", "--z", "Z", "--y", "Y")),
                ("csi", ("csi", "--x", "X", "--z", "Z", "--context", "Y=0")),
                ("csi-empty", ("csi", "--x", "X", "--z", "Z", "--context", "Y=2")),
                ("pci", ("pci", "--x", "X", "--z", "Z", "--context", "Y=1")),
                ("pci-empty", ("pci", "--x", "X", "--z", "Z", "--context", "Y=2")),
                ("cwi", ("cwi", "--x", "X", "--z", "Z", "--context", "Y=0")),
                ("cwi-empty", ("cwi", "--x", "X", "--z", "Z", "--context", "Y=2")),
                ("wi", ("wi", "--x", "X", "--z", "Z", "--y", "Y")),
            )
        },
        "probe-4": ("probe", "--vars", "4", "--trials", "3"),
        # Names and values that need JSON escapes: a quote, a backslash,
        # control characters, a non-ASCII letter and a non-BMP character.
        "check-escape-wi": (
            "check", "--kind", "wi", "--x", 'X"q', "--z", "Z\x01\U0001d538",
            "--y", "Y\\s", escape,
        ),
    })
    return cases


CASES = _cases()

DIGESTS = {
    'check-ci': '9e4bac900ed51772cc85e297963971e696906d27b68367266b2d6a696fa48cea',
    'check-ci-joint': 'e47e8080b5b38113c3fdfa88a6c7dcad60282158d44a7575e60a8ccf468edc00',
    'check-cond-ci': '5a40705d74c97d3923ca2c714c9f18d75eda1fec45850576db91d36114b1c6b3',
    'check-cond-csi': 'f7ec8f5773237ea920fec50453e0445b4659e60a0cdc41a4f33f78e0f8a3c3e9',
    'check-cond-csi-empty': '5408f636e7c71838a4b7a99605d2e5561410e5623f6c6f0d65c26eeb8e9f16a3',
    'check-cond-cwi': '396cc0e83fce156838c76420fc13b9178cdfc506b04c5348c6ad70f6e5c5dc3e',
    'check-cond-cwi-empty': '53581206c00fa4d13243a0bc3e1b1555f9de87120acd3f985c79115ce70447fb',
    'check-cond-pci': '9a7d7500cc0f61f8a7ff5f06b0f1ca73608f0a5aff4c442e4cfd8df68b3ade62',
    'check-cond-pci-empty': '6182da7cd2d6d3165fe26c708ee988f27348dccd7949ef23e01ca45131a61fc2',
    'check-cond-wi': '3ddf7f41c637467e81b5cacd82648c589457c1161af746e3280719614e437604',
    'check-csi': '93ab7bfb5c040b22a5fcc59b5d14f44133475571702a2f3f5727fd4509f90768',
    'check-csi-fails': '6c453a7435537d1d1733df75b660b60fc926319427a97cab52a81b4263aa96d9',
    'check-cwi': '7fa4c1791fc182b52a122fa2095fb2e02d1d92714d0e146262c29a145bfa3738',
    'check-cwi-fails': '703aa8dd32ba695999713fbe50cf432e18f17a9fba88a055a3afad893e0867fd',
    'check-escape-wi': 'fa180ccd3c077dd571162b9ede4dd9fd123814d8ed5b5055c3dcdf882844f83a',
    'check-pci': 'db05bd170d59f4955170fbb11113e75d687483d938845439f729851b5887f686',
    'check-wi': '65b908315097bd7e25b43098db31c17cf4969d70f6dba029e6058c0bb092359f',
    'check-wi-joint': '290b818d460a1eefd726f8c63e4809dfa19e8795e4dc97b7878f0b5c64f24b48',
    'check-wi-pretty': 'e829fc57b8fbe46a657ad64708d479cf55bcf93a5e5d7e3879e78a73180722b1',
    'commute': 'd083bb511f65fe225398f5f2d98c7b7a5a9fec7cf2a03cc0b233e0e6ddcae41b',
    'commute-noncommuting': '009a6ea9f1405a27f41558fd0fe7dce6dfdec0ca51ade8dff59f922d8478a9ea',
    'derive': '0cd12af5700d62f6e6488fd3353add7b84c20f28814746c5d02fb7d04e8ad0cc',
    'derive-rules': 'ee6812139c721e40fa6b70d8bc7943a6209f343ec07bbb1293c68b068a7eeebd',
    'enumerate-limited:cond_cpt.json': '419638856de4e14987a93e7aee32e915c2df7c92ea6f299a271f6f34943b725b',
    'enumerate-limited:csi_cpt.json': '600101c3fdb0d7ed749ebf14d8a39c185e586a54d4343ea773e0c722b007f516',
    'enumerate-limited:cwi_cpt.json': 'd2281c599402b5768f4fef1a4ae5a7400c9003ab86b9d585f1e8097f27623097',
    'enumerate-limited:escape_cpt.json': '657e44d1720c7b8305f07491980dabbefeaaffcf6cc238a72bd493ac5e9c584d',
    'enumerate-limited:nest_demo.json': '09b8006df69de64f1bfdab45703a39965d45c9a1e5e0d40a38936e3970f5caec',
    'enumerate-limited:noncommuting.json': 'afa490a3583e49cba4de3f933dddfb50134169c1847602760459ed5afc0dd6f6',
    'enumerate-limited:wi_cpt.json': 'b0807929d4aa3e791334d12f86be192e46a141df0e26e31410988e261e7856ac',
    'enumerate:cond_cpt.json': 'b123a4fb4417f3e9643cefd14886486028be9a3e517031d39fd53d0ba7c3ebba',
    'enumerate:csi_cpt.json': '540fffe81d5eaf324e351e6d4584914fb2195c40619830b6aca27cb51b479983',
    'enumerate:cwi_cpt.json': 'f4758edc225bcb7c6bb44480f49f73f0ef6b4793d98a8754c5fe71224938b9ad',
    'enumerate:escape_cpt.json': 'fbfbc017ded38d09804256c7ab028518889a4aa088aa19c0cbb80c1948898e80',
    'enumerate:nest_demo.json': '1d76de623ec94decaf0caa0dbdfbf0b6d9882a520e4607419453e841cbdad845',
    'enumerate:noncommuting.json': '9645c45e372f086bc1648f8e59d70fc202c1dc9feb382d82da40798cae219796',
    'enumerate:wi_cpt.json': '91a8836ce59a5f78619a6d8ebff06c10d2174efc83d4819ac1078c7543866510',
    'nest': '1b0900690df786a8ebd2717b62d6f2d28a52b8681ec4a0bee56eb812bca352dd',
    'nest-escape': '307f37d05b8a1a63c6270f836aa6c0891649e4a5ba43c4308dfe964c2ff73318',
    'nest-nested': '9699763840e864390e932ab667625c8993b98cef455608067685772b41e369ca',
    'probe-3': '094fa886032319db150466c8fea185b1d1c45daf4ae61c52dd280088d2a0dba0',
    'probe-4': 'b65a8fff8ecbdbb27db22ad8cc7f44d4a217071ff6cff287a4ff23931922119e',
    'unnest': 'fe4e1eeff03adaefdbc82a39a7567efcd5b07c6ecf0796f9963866838646cc48',
    'unnest-escape': '09673f6af7a53fa214c6ae5b15e0ee91a97d4b78452598006d3abd3d405c9072',
    'validate:cond_cpt.json': '2536d57b6bf1737098497504e6c5ac4f6ef790f7db3949dfaa0dfdabab02d074',
    'validate:csi_cpt.json': 'f31897ef7cb6c99f059b1894e53a48af29e78ae5fb3cfeb5ac052050e4eec29c',
    'validate:cwi_cpt.json': '56e2b07a1d8e7be9e60981ddaca8da9a598bfeb01f9f5ef7933fb5ce65d950df',
    'validate:escape_cpt.json': 'af3c690619e9835850989681e30b3b4893e31458b8a2c55c1e2d6c6357276f8c',
    'validate:nest_demo.json': 'b312d104e3ea1e5e958c313038f0db4376577db4df854aa93e8f8a1349f00080',
    'validate:noncommuting.json': 'b87c683711f44b7e6b79f00f7a5dedb2add1b07bc99a6f5da2dc4f4a9d165189',
    'validate:wi_cpt.json': '6666e17c36fba1f5c713d23685cd60859dbf3be72d5a5f9e76c966d6c0aed574',
}


def _run(args, stdin=None):
    return CliRunner().invoke(main, list(args), input=stdin)


def _digest(result) -> str:
    data = f"{result.exit_code}\n".encode() + result.stdout_bytes
    return hashlib.sha256(data).hexdigest()


def _outputs(tmp_path):
    out = {name: _run(args) for name, args in CASES.items()}
    out["unnest"] = _run(("unnest", "--attr", "B", "-"), stdin=out["nest"].stdout)
    # A second-level nest: the grouping key holds the nested cells of B.
    nest_a2 = _run(("nest", "--by", "A2", "--as", "B", str(DATA / "nest_demo.json")))
    out["nest-nested"] = _run(("nest", "--by", "A3", "--as", "C", "-"), stdin=nest_a2.stdout)
    escape = str(DATA / "escape_cpt.json")
    out["nest-escape"] = _run(("nest", "--by", "Z\x01\U0001d538", "--as", 'N"\u00e9', escape))
    out["unnest-escape"] = _run(
        ("unnest", "--attr", 'N"\u00e9', "-"), stdin=out["nest-escape"].stdout
    )
    premises = tmp_path / "premises.json"
    premises.write_text(json.dumps(PREMISES))
    derive = ("derive", "--premises", str(premises), "--universe", "A,B,C,D")
    out["derive"] = _run(derive)
    out["derive-rules"] = _run(derive + ("--rules", "WI2,WI3,CIWI2"))
    return out


def _assert_fixed_point(name, out):
    """A report is ``json.dumps(doc, indent=2)`` of itself, and a table verb's
    output reloads and re-serializes to itself, so a layout slip shows as a diff."""
    if name == "check-wi-pretty":
        return
    assert out == json.dumps(json.loads(out), indent=2) + "\n", name
    if name.startswith(("nest", "unnest")):
        if "attributes" in json.loads(out):
            again = granular.serialize_nested(granular.load_nested(out))
        else:
            again = tables.serialize_table(tables.load_table(out))
        assert again == out, name


def test_golden_outputs(tmp_path):
    outputs = _outputs(tmp_path)
    for name, result in sorted(outputs.items()):
        _assert_fixed_point(name, result.stdout)
    got = {name: _digest(result) for name, result in outputs.items()}
    assert sorted(got) == sorted(DIGESTS)
    changed = sorted(name for name in got if got[name] != DIGESTS[name])
    assert not changed


def show() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = _outputs(pathlib.Path(tmp))
    for name, result in sorted(outputs.items()):
        print(f"    {name!r}: {_digest(result)!r},")
