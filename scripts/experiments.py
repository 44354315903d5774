#!/usr/bin/env python3
"""Check or regenerate the measured blocks of EXPERIMENTS.md.

A measured block is a fenced code block directly preceded by a marker
line that names the acrbench arguments printing it:

    <!-- acrbench -exp ablations -class S -->
    ```
    ...verbatim acrbench output...
    ```

Run from the repository root:

    python3 scripts/experiments.py           # rerun every block; exit 1 on any diff
    python3 scripts/experiments.py --write   # rewrite stale blocks in place

Each block runs `go run ./cmd/acrbench`. The class W paper set takes about
two minutes on two cores.
"""
import argparse
import difflib
import re
import subprocess
import sys

MARKER = re.compile(r'^<!-- acrbench (.+) -->$')
FENCE = '```'
FILE = 'EXPERIMENTS.md'
ACRBENCH = ['go', 'run', './cmd/acrbench']


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--write', action='store_true', help='rewrite stale blocks instead of failing')
    args = ap.parse_args()

    lines = open(FILE).read().split('\n')
    out, stale, blocks, i = [], 0, 0, 0
    while i < len(lines):
        line = lines[i]
        out.append(line)
        i += 1
        m = MARKER.match(line)
        if not m:
            continue
        if i == len(lines) or lines[i] != FENCE or FENCE not in lines[i + 1:]:
            sys.exit(f'{FILE}:{i}: marker is not followed by a fenced block')
        end = lines.index(FENCE, i + 1)
        have = lines[i + 1:end]
        run = subprocess.run(ACRBENCH + m.group(1).split(), capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f'acrbench {m.group(1)} failed ({run.returncode}):\n{run.stderr}')
        want = run.stdout.rstrip('\n').split('\n')
        blocks += 1
        if have != want:
            stale += 1
            sys.stdout.writelines(difflib.unified_diff(
                [l + '\n' for l in have], [l + '\n' for l in want],
                f'{FILE}: acrbench {m.group(1)}', 'acrbench output'))
        out += [FENCE] + want + [FENCE]
        i = end + 1

    if blocks == 0:
        sys.exit(f'{FILE}: no measured blocks found')
    if args.write:
        if stale:
            open(FILE, 'w').write('\n'.join(out))
        print(f'{FILE}: {blocks} blocks, {stale} rewritten')
        return
    if stale:
        sys.exit(f'{FILE}: {stale} of {blocks} measured blocks differ from acrbench output '
                 f'(python3 scripts/experiments.py --write regenerates them)')
    print(f'{FILE}: {blocks} measured blocks match acrbench output')


if __name__ == '__main__':
    main()
