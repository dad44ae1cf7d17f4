"""Write two raw-bit input files, extract through the library and through the
CLI, and check the outputs agree bit for bit.

Run:  python3 demos/extract_from_files.py
"""
import tempfile
from pathlib import Path

from markovext import BitString, deor_descriptor
from markovext.cli import main as xtract

n, m = 16, 8

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    x1 = BitString(0xBEEF, n)
    x2 = BitString(0x1234, n)
    (tmp / "x1.bits").write_bytes(x1.to_bytes())
    (tmp / "x2.bits").write_bytes(x2.to_bytes())

    rc = xtract([
        "extract", str(tmp / "x1.bits"), str(tmp / "x2.bits"), str(tmp / "y.bits"),
        "--family", "deor", "--n1", str(n), "--m", str(m),
    ])
    assert rc == 0

    via_cli = (tmp / "y.bits").read_bytes()
    via_lib = deor_descriptor(n, m).extract(x1, x2).to_bytes()
    print(f"x1 = {x1.value:#06x}, x2 = {x2.value:#06x}")
    print(f"cli output bytes: {via_cli.hex()}")
    print(f"lib output bytes: {via_lib.hex()}")
    print("bit-identical:", via_cli == via_lib)
