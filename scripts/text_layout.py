#!/usr/bin/env python3
"""Print where each modsched layer's code starts in a linked binary.

    scripts/text_layout.py BIN [BIN2]

Reads `nm -C -l --defined-only BIN` and prints, for each of the lp, ilp,
pb, ilpsched, sched and service layers, the lowest address of a function
defined in it, and that address mod 64 (cache line) and mod 4096 (page).
With a second binary it also prints, per layer, how far the code moved
from BIN to BIN2.

A function belongs to the layer whose src/<layer>/ directory its debug
line info names; without line info, to the modsched::<layer> namespace
its name starts with (ilpsched and sched code lives directly in
namespace modsched, so those two need a build with -g, such as
RelWithDebInfo). Cold clones (`[clone .cold]`) and static initializers
are skipped: the linker places them ahead of the ordinary code, so they
say nothing about where a layer's hot code sits.

Why: a change that alters the size of code linked in front of a layer
shifts that layer's functions to other cache-line and page offsets, which
can move its timings although its code is unchanged. Run this on the
parent's and the change's benchmark binaries when a layer the change did
not touch reads faster or slower.

Exits 1 when nm fails or a binary defines none of the layers' functions.
"""

import re
import subprocess
import sys

LAYERS = ["lp", "ilp", "pb", "ilpsched", "sched", "service"]

# nm symbol types for code: global and local text. Weak symbols (inline
# and template functions) are left out: the linker keeps the copy of
# whichever object it met first, which need not be the layer's own.
TEXT_TYPES = set("Tt")

# The layer directory named by nm's "file:line" column.
SOURCE_DIR = re.compile(r"/src/(\w+)/[^/]+:\d+$")

# A namespace's own function: the name (after an optional return type,
# which nm prints for template functions) starts with modsched::NS::.
OWNER = re.compile(r"(?:^|\s)modsched::(\w+)::")


def layer_of(name, location):
    """The layer a function belongs to, or None."""
    m = SOURCE_DIR.search(location)
    if not m:
        m = OWNER.search(name.split("(", 1)[0])
    return m.group(1) if m and m.group(1) in LAYERS else None


def lowest_addresses(binary):
    """Map layer -> lowest function address defined in it."""
    out = subprocess.run(["nm", "-C", "-l", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    lowest = {}
    for line in out.splitlines():
        symbol, _, location = line.partition("\t")
        parts = symbol.split(None, 2)
        if len(parts) != 3 or parts[1] not in TEXT_TYPES:
            continue
        addr, name = int(parts[0], 16), parts[2]
        if name.endswith("[clone .cold]") or name.startswith("_GLOBAL__sub_I"):
            continue
        ns = layer_of(name, location)
        if ns is None:
            continue
        if ns not in lowest or addr < lowest[ns]:
            lowest[ns] = addr
    return lowest


def main(argv):
    if len(argv) not in (2, 3) or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        tables = [lowest_addresses(b) for b in argv[1:]]
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"text_layout.py: {e}", file=sys.stderr)
        return 1
    for binary, table in zip(argv[1:], tables):
        if not table:
            print(f"text_layout.py: no modsched functions in {binary}",
                  file=sys.stderr)
            return 1

    header = f"{'layer':<10} {'lowest':>10} {'mod64':>6} {'mod4096':>8}"
    if len(tables) == 2:
        header += f" {'lowest2':>10} {'mod64':>6} {'mod4096':>8} {'shift':>8}"
    print(header)
    for ns in LAYERS:
        row = f"{ns:<10}"
        addrs = [t.get(ns) for t in tables]
        for a in addrs:
            row += (f" {a:>#10x} {a % 64:>6} {a % 4096:>8}" if a is not None
                    else f" {'-':>10} {'-':>6} {'-':>8}")
        if len(addrs) == 2:
            shift = (addrs[1] - addrs[0]
                     if None not in addrs else None)
            row += f" {shift:>+8}" if shift is not None else f" {'-':>8}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
