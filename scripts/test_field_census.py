#!/usr/bin/env python3
"""Self-check of scripts/field_census.py on scripts/census_fixture.

Usage:  python3 scripts/test_field_census.py

The fixture holds one struct per shape the census has misread: a field
typed inline as `Box<dyn Fn(A) -> B>` must not hide the fields after it,
and an accessor called on `Type::f(..)` is a read.  Exits 1 and prints both
listings when the census output differs from the expected one.
"""

import subprocess
import sys
from pathlib import Path

EXPECTED = """\
5 named fields in 3 structs; 2 with no non-test reader
demo       Source::sink                                 1 write
demo       Unread::never                                no use
"""

here = Path(__file__).resolve().parent
got = subprocess.run(
    [sys.executable, str(here / "field_census.py"), str(here / "census_fixture")],
    capture_output=True, text=True, check=True,
).stdout
if got != EXPECTED:
    print(f"field census on the fixture printed:\n{got}expected:\n{EXPECTED}")
    sys.exit(1)
print("field census fixture: ok")
