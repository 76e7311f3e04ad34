#!/usr/bin/env python3
"""Flat per-function profile from sigprof.<pid> dumps.

usage: symbolize.py [-n TOP] sigprof.<pid>...

Samples of all the files given are pooled. Each is mapped to its object
through the dump's /proc/self/maps copy and to a function through
`nm -C -n` (dynamic symbols for stripped libraries); objects are taken to
be position-independent, which rustc's executables and every .so are.
"""
import bisect, collections, re, subprocess, sys


def symbols(path):
    for flags in ("-Cn", "-CnD"):
        nm = subprocess.run(["nm", flags, path], capture_output=True, text=True)
        rows = (line.split(None, 2) for line in nm.stdout.splitlines())
        syms = sorted((int(r[0], 16), r[2]) for r in rows if len(r) == 3 and r[1] in "tTwW")
        if syms:
            return syms
    return []


def main(argv):
    top = 40
    if argv[0] == "-n":
        top, argv = int(argv[1]), argv[2:]
    counts, cache = collections.Counter(), {None: []}
    for dump in argv:
        maps, base, ips = [], {}, []
        for line in open(dump):
            tag, rest = line.split(None, 1)
            if tag == "S":
                ips.append(int(rest, 16))
            elif len(f := rest.split()) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
                base[f[5]] = min(base.get(f[5], lo), lo)
        for ip in ips:
            path = next((p for lo, hi, p in maps if lo <= ip < hi), None)
            if path not in cache:
                cache[path] = symbols(path)
            syms = cache[path]
            i = bisect.bisect_right(syms, (ip - base[path], "\U0010ffff")) - 1 if syms else -1
            name = re.sub(r"::h[0-9a-f]{16}$", "", syms[i][1]) if i >= 0 else "?"
            counts[f"{name}  [{path.rsplit('/', 1)[-1] if path else 'anon'}]"] += 1
    total = sum(counts.values())
    print(f"{total} samples from {len(argv)} file(s)")
    objects = collections.Counter()
    for name, n in counts.items():
        objects[name.rsplit("  ", 1)[1]] += n
    for name, n in objects.most_common() + counts.most_common(top):
        print(f"{100 * n / total:6.2f}% {n:8d}  {name}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
