#!/usr/bin/env python3
"""Usage: scripts/dead_pub.py [REPO_ROOT]

List `pub` items in the workspace's production code that no non-test code
names. Production code = each crates/*/src/**/*.rs up to its first
column-0 `#[cfg(test)]`. Callers = production code of every crate plus
src/, examples/, crates/bench/src/bin and benchmark/src.
Test code (crates/*/tests, tests/, cfg(test) tails) does not count.
A name is matched as a whole word; a common method name used elsewhere hides
a dead item (false negative), never the other way round."""
import os, re, sys, glob
root = sys.argv[1] if len(sys.argv) > 1 else '.'
os.chdir(root)

def prod(path):
    out = []
    for line in open(path, encoding='utf-8'):
        if line.startswith('#[cfg(test)]'):
            break
        out.append(line)
    return out

defs = []  # (file, lineno, kind, name)
pat = re.compile(r'^\s*pub\s+(?:const\s+)?(?:unsafe\s+)?(fn|struct|enum|trait|type|const|static|mod)\s+([A-Za-z_][A-Za-z0-9_]*)')
field = re.compile(r'^\s+pub\s+([a-z_][a-z0-9_]*)\s*:')
corpus = {}
for f in sorted(glob.glob('crates/*/src/**/*.rs', recursive=True)):
    lines = prod(f)
    corpus[f] = ''.join(lines)
    for i, l in enumerate(lines, 1):
        m = pat.match(l)
        if m:
            defs.append((f, i, m.group(1), m.group(2)))
extra = glob.glob('src/**/*.rs', recursive=True) + glob.glob('examples/**/*.rs', recursive=True) \
    + glob.glob('benchmark/src/**/*.rs', recursive=True)
for f in extra:
    corpus[f] = ''.join(prod(f))

# Splitbench's frozen surface (ROADMAP facts): never listed.
frozen = {'NclConfig', 'NclFile', 'NclLib', 'RecoveryStats', 'RepairStats', 'recovery_stats', 'repair_stats',
          'peer_names', 'CompletionQueue', 'RdmaDevice', 'RemoteMr', 'WrId', 'register_mr', 'connect_with_mode',
          'File', 'Mode', 'OpenOptions', 'SplitFs', 'Testbed', 'TestbedConfig', 'KvApp', 'MiniRocks',
          'RocksOptions', 'IoTrace', 'IoEvent', 'Telemetry', 'Histogram', 'trace_dropped', 'OpKind', 'Workload',
          'key_of', 'NodeId', 'Xoshiro256StarStar', 'replicas'}
words = {}
for f, text in corpus.items():
    for w in re.findall(r'[A-Za-z_][A-Za-z0-9_]*', text):
        words[w] = words.get(w, 0) + 1
ndefs = {}
for d in defs:
    ndefs[d[3]] = ndefs.get(d[3], 0) + 1
for f, i, kind, name in defs:
    if name in frozen or kind == 'mod' or name == 'main':
        continue
    # uses = occurrences minus the definitions of that name
    if words.get(name, 0) - ndefs[name] <= 0:
        print(f'{f}:{i}: pub {kind} {name}')
