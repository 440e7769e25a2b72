"""Fixed stdlib-only work that the benchmark times next to every clpart command.

The host this benchmark runs on is shared, and its speed for fresh Python
processes drifts by a third over minutes.  This script does the same kind of
work as a clpart command -- a fresh interpreter, small tuples, dicts,
Fractions, sorting and a JSON round trip -- and never imports clpart, so no
change to clpart can move it.  Op time divided by its time (op_vs_ref)
cancels most of the drift; tuples of the same shape every run keep it fixed.
"""

import heapq
import json
import re
from collections import Counter
from fractions import Fraction

numbers = re.compile(r"[0-9]+")
counts = Counter()
table = {}
for i in range(30000):
    key = tuple(sorted(((i * 7919) % 97, (i * 104729) % 89, i % 13), reverse=True))
    counts[key] += 1
    if i % 50 == 0:
        table[str(key)] = str(Fraction(i + 1, (i % 97) + 2))
text = json.dumps(table, sort_keys=True, indent=2)
back = json.loads(text)
found = sum(len(numbers.findall(k)) for k in back)
least = heapq.nsmallest(100, counts.items(), key=lambda kv: (kv[1], kv[0]))
if (len(back), found, len(least)) != (598, 1794, 100):
    raise SystemExit("reference work produced an unexpected result")
