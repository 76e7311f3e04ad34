#!/usr/bin/env python3
"""Flat per-function profile from sigprof.<pid> dumps.

usage: symbolize.py [-n TOP] [--all] sigprof.<pid>...

Samples of the files given are pooled, except, unless --all is given,
the file of any process that started another process of the set: the
benchmark's orchestrator, whose own calibration loop is not the
workers' work. The skipped files are named with their command lines.
Each sample is mapped to its object through the dump's /proc/self/maps
copy and to a function through `nm -C -n` (dynamic symbols for stripped
libraries); objects are taken to be position-independent, which rustc's
executables and every .so are.
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


def header(dump):
    """(pid, parent pid, command line) of a dump; None for what it lacks."""
    pid = ppid = cmd = None
    for line in open(dump):
        if line.startswith("P "):
            pid, ppid = (int(x) for x in line.split()[1:3])
        elif line.startswith("C"):
            cmd = line[1:].strip()
        elif line.startswith(("M ", "S ")):
            break
    return pid, ppid, cmd


def main(argv):
    top, pool_all = 40, False
    while argv and argv[0] in ("-n", "--all"):
        if argv[0] == "-n":
            top, argv = int(argv[1]), argv[2:]
        else:
            pool_all, argv = True, argv[1:]
    heads = {dump: header(dump) for dump in argv}
    parents = {ppid for _, ppid, _ in heads.values()}
    if not pool_all:
        for dump, (pid, _, cmd) in heads.items():
            if pid is not None and pid in parents:
                print(f"skipped {dump}, which started another profiled process: {cmd}")
        argv = [d for d in argv if heads[d][0] is None or heads[d][0] not in parents]
    counts, cache = collections.Counter(), {None: []}
    for dump in argv:
        maps, base, ips = [], {}, []
        for line in open(dump):
            tag, rest = (line.split(None, 1) + [""])[:2]
            if tag == "S":
                ips.append(int(rest, 16))
            elif tag == "M" and len(f := rest.split()) >= 6 and f[5].startswith("/"):
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
