"""Golden renders: the CSV, PGM and .meta bytes of the two benchmark maps.

Each render goes through `skewdyn render` on a 12 x 12 grid of the fiber
z = 0.5, so any change to an orbit kernel, a settle routine or the writer
that moves a single byte of a rendered file fails here.
"""

import hashlib

import pytest

from skewdyn.cli import main

# example_degenerate(1, 4): integer alpha = 1, the weighted-ratio kernel
RATIO_MAP = "builtin semiconjugate degenerate 1 4 ; h: 3 1 0 2 1 0\n"
# (z^2, w^2 - z^3): alpha = 3/2 and two dominant terms, the direct-orbit kernel
DIRECT_MAP = "p 2 1.0 0.0\nq 0 2 1.0 0.0\nq 3 0 -1.0 0.0\n"
GRID = "0.5,0.0,0.01,-0.01,1.0,1.0,12"

GOLDEN = {
    ("fiber_ratio", "Gzap"): {
        "csv": "b1df1aef6e941645f83b959800787d32f966904a473331f1c6c1d52344fbe716",
        "pgm": "f1a3fcd43441908f4c44765014553ca6acfd9de813d132ee8c268f49c2909520",
        "meta": "4113fdab52a266ebe3e87a002df8f42e0372e6f93a4482417d5227875eb0a2b0",
    },
    ("fiber_ratio", "Gza"): {
        "csv": "3e8541ebb0422e35217b981bacddd61849454144e1ed7b92bd1122dbf70479e8",
        "pgm": "f1a3fcd43441908f4c44765014553ca6acfd9de813d132ee8c268f49c2909520",
        "meta": "22ecd7923e78c9eab99ae6fe8259ec77702856617ffb42c30206502d7e2fecfa",
    },
    ("fiber_ratio", "Gz"): {
        "csv": "ed4fcc65e43f1e89d26bcabb115a97ccf4b5514f7d54c5d752e552e56f7bdcbb",
        "pgm": "f4b898b3b63470f0a21c218921c1734aa96bfc03f1740421dec24b1e478d5c6f",
        "meta": "def8de8e174073028fe4a2553e8191fd03e06c857d9a65570741678dfebfbfcc",
    },
    ("fiber_direct", "Gza"): {
        "csv": "d3c14e129ccb3681da5b2ba3c796b8c712c0f68abaea8e235d228695119c5705",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "86146fe837463ceaee9ee99733510e516d320fe0d701530fddbe675e92df9ade",
    },
    ("fiber_direct", "Gzi"): {
        "csv": "235af5c20fcacb169ea2c675b6281dd671009799a209e997f1d042cbbd8c1931",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "4592e276935513d25c8fd0414539953baf6dded971afea60faa156d5c11807a9",
    },
    ("fiber_direct", "Gz"): {
        "csv": "235af5c20fcacb169ea2c675b6281dd671009799a209e997f1d042cbbd8c1931",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "56aef2a8e5d55d9f08d3e2810f043da382234b6254a155e9c001a0ca8b60e181",
    },
    ("fiber_direct", "Gf"): {
        "csv": "6223ee5144829fe66fa2a522e65ded20a58d458050c33ac4db302be06b92942e",
        "pgm": "b284b21fe923dc6eae23943eafb0a35f184d233dd3ac0e7760636f3b985c01e6",
        "meta": "a8427df0a4e1bcc7be54b2debbb30b70ffc0f6682f57f1e0aaedf3342cdcc912",
    },
    ("fiber_direct", "Gfa"): {
        "csv": "df979949b6203e1d221758b7ea074da80a1fc592365dd3b6a4ca350f25a56b04",
        "pgm": "4e1c23251edd28610e50c523121a1ba056ea51cdfce2863b9bee42a9029002c7",
        "meta": "753b02aa387dd50fa29abd3314e33143101e9f24770f33c89e459c665134f2df",
    },
}


@pytest.mark.parametrize("name,fn", sorted(GOLDEN))
def test_render_bytes(tmp_path, capsys, name, fn):
    path = tmp_path / f"{name}.skew"
    path.write_text(RATIO_MAP if name == "fiber_ratio" else DIRECT_MAP)
    assert main(["render", str(path), "--function", fn, "--grid", GRID,
                 "--n-max", "64", "--tol", "1e-10",
                 "--out-dir", str(tmp_path), "--out-prefix", "r"]) == 0
    capsys.readouterr()
    got = {ext: hashlib.sha256((tmp_path / f"r.{ext}").read_bytes()).hexdigest()
           for ext in ("csv", "pgm", "meta")}
    assert got == GOLDEN[name, fn]
