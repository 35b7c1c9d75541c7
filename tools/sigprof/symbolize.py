#!/usr/bin/env python3
"""Summarise a sampler.c profile: self and inclusive time per symbol (nm -C),
then self time by innermost inlined function (addr2line -i).

usage: symbolize.py <sigprof.out.PID>"""
import bisect, collections, subprocess, sys

TOP = 25
if len(sys.argv) != 2:
    sys.exit(__doc__.splitlines()[-1])
samples, maps, base, taken = [], [], {}, 0  # base: load bias per mapped file
for line in open(sys.argv[1]):
    f = line.split()
    if f[0] == "T":
        taken = int(f[1])
    elif f[0] == "S":
        samples.append([int(a, 16) for a in f[1:]])
    elif f[0] == "M" and len(f) >= 7 and f[6].startswith("/"):
        lo, hi = (int(a, 16) for a in f[1].split("-"))
        if "x" in f[2]:
            maps.append((lo, hi, f[6]))
        if int(f[3], 16) == 0 and f[6] not in base:  # the file's first page
            with open(f[6], "rb") as elf:
                base[f[6]] = 0 if elf.read(18)[16] == 2 else lo  # ET_EXEC: no bias

def locate(addr):
    for lo, hi, file in maps:
        if lo <= addr < hi:
            return file, addr - base.get(file, 0)
    return None, addr

syms = {}
def symbol(file, vaddr):
    for table in ([], ["-D"]):  # a stripped library has only its dynamic symbols
        if file in syms and syms[file][0]:
            break
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", *table, file], capture_output=True, text=True).stdout
        near = f"{file.rsplit('/', 1)[-1]}: near " if table else ""  # local symbols unknown
        rows = [(int(l[:16], 16), near + l[19:]) for l in out.splitlines() if len(l) > 19 and l[17] in "tTwWiI"]
        syms[file] = ([a for a, _ in rows], [n for _, n in rows])
    addrs, names = syms[file]
    k = bisect.bisect_right(addrs, vaddr) - 1
    return names[k] if k >= 0 else f"{file}+{vaddr:#x}"

def name(addr):
    file, vaddr = locate(addr)
    return symbol(file, vaddr) if file else f"?{addr:#x}"

self_t, incl_t, by_file = collections.Counter(), collections.Counter(), collections.defaultdict(list)
for s in samples:
    # s[0] is the interrupted PC; s[1:] is the handler's backtrace, whose
    # first two frames are the handler and the signal trampoline. Return
    # addresses point past their call, hence the - 1.
    self_t[name(s[0])] += 1
    incl_t.update({name(s[0])} | {name(a - 1) for a in s[3:]})
    file, vaddr = locate(s[0])
    if file:
        by_file[file].append(vaddr)
n = max(len(samples), 1)
if taken > len(samples):
    print(f"warning: buffer full, only the first {len(samples)} of {taken} samples kept", file=sys.stderr)
print(f"{len(samples)}/{taken} samples kept\n{'self%':>7} {'incl%':>7}  symbol")
for sym, c in self_t.most_common(TOP):
    print(f"{100 * c / n:7.2f} {100 * incl_t[sym] / n:7.2f}  {sym}")
inlined = collections.Counter()
for file, vaddrs in by_file.items():
    uniq = sorted(set(vaddrs))
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", file] + [hex(a) for a in uniq], capture_output=True, text=True).stdout.splitlines()
    innermost, k = {}, 0
    for line in out:
        if line.startswith("0x"):
            addr, k = int(line, 16), 0
        elif k == 0:  # first function line after an address = innermost frame
            innermost[addr], k = line, 1
    for a in vaddrs:
        inlined[innermost.get(a, "??")] += 1
print(f"\n{'self%':>7}  innermost inlined function")
for fn, c in inlined.most_common(TOP):
    print(f"{100 * c / n:7.2f}  {fn}")
