"""Pinned rewriting and Cypher text for one chain-n and one mixed-n TBox.

The two TBoxes follow the benchmark's tbox-scale families (a permuted
atomic chain, and a role chain with existential axioms on both sides),
written out here so that the expected text does not depend on the
generator.  Speed-ups of the label closure, the state elimination or the
role widening must leave every byte of this text as it is.
"""
import os
import subprocess
import sys
from pathlib import Path

# chain-24: A16 <= ... <= A02, names and axiom order permuted.
CHAIN_TBOX = """\
A16 <= A18
A43 <= A49
A08 <= A04
A45 <= A46
A01 <= A27
A49 <= A11
A39 <= A00
A00 <= A32
A27 <= A39
A18 <= A43
A50 <= A01
A26 <= A38
A14 <= A42
A41 <= A14
A46 <= A47
A32 <= A26
A13 <= A50
A42 <= A09
A47 <= A08
A38 <= A02
A11 <= A41
A04 <= A34
A34 <= A13
A09 <= A45
"""
CHAIN_QUERY = "q(x) :- A02(x)"

# mixed-5: role chain r03 <= r11 <= r05 <= r02 <= r01 <= r06, and for each
# of the first five roles Bi <= exists ri . Ci and exists ri . Ci <= D.
MIXED_TBOX = """\
exists r11 . C11 <= D
exists r02 . C06 <= D
B00 <= exists r01 . C00
exists r05 . C07 <= D
exists r01 . C00 <= D
B10 <= exists r03 . C10
r11 <= r05
r01 <= r06
B07 <= exists r05 . C07
B11 <= exists r11 . C11
r05 <= r02
r02 <= r01
r03 <= r11
exists r03 . C10 <= D
B06 <= exists r02 . C06
"""
MIXED_QUERY = "q(x) :- r06(x,y), C10(y), D(x)"

_DUMP = """
import sys
from ontopath.cypher import emit_cypher
from ontopath.query import parse_query, rewriting_to_str
from ontopath.rewriter import rewrite_ncq
from ontopath.tbox import parse_tbox
import test_tbox_families as cases
for tbox, query in ((cases.CHAIN_TBOX, cases.CHAIN_QUERY),
                    (cases.MIXED_TBOX, cases.MIXED_QUERY)):
    u = rewrite_ncq(parse_query(query), parse_tbox(tbox)).to_uc2rpq()
    sys.stdout.write(rewriting_to_str(u))
    sys.stdout.write(emit_cypher(u).text + "\\n")
"""

EXPECTED = """\
q(x) :- (A00|A01|A02|A04|A08|A09|A11|A13|A14|A16|A18|A26|A27|A32|A34|A38|A39|A41|A42|A43|A45|A46|A47|A49|A50)(x)
MATCH (x) WHERE (x:A00 OR x:A01 OR x:A02 OR x:A04 OR x:A08 OR x:A09 OR x:A11 OR x:A13 OR x:A14 OR x:A16 OR x:A18 OR x:A26 OR x:A27 OR x:A32 OR x:A34 OR x:A38 OR x:A39 OR x:A41 OR x:A42 OR x:A43 OR x:A45 OR x:A46 OR x:A47 OR x:A49 OR x:A50) RETURN DISTINCT x AS c0

q(x) :- B10(x)
q(x) :- C10(y), ((r01|r02|r03|r05|r11).<C00>|(r02|r03|r05|r11).<C06>|(r03|r05|r11).<C07>|(r03|r11).<C11>|<B00|B06|B07|B10|B11|D>|r03.<C10>)(x,__w0), (r01|r02|r03|r05|r06|r11)(x,y)
MATCH (x) WHERE x:B10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r01|r02|r03|r05|r06|r11]->(y) WHERE (x:B00 OR x:B06 OR x:B07 OR x:B10 OR x:B11 OR x:D) AND y:C10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r01|r02|r03|r05|r06|r11]->(y), (x)-[:r03]->(`__w0`) WHERE `__w0`:C10 AND y:C10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r01|r02|r03|r05|r11]->(`__w0`), (x)-[:r01|r02|r03|r05|r06|r11]->(y) WHERE `__w0`:C00 AND y:C10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r02|r03|r05|r11]->(`__w0`), (x)-[:r01|r02|r03|r05|r06|r11]->(y) WHERE `__w0`:C06 AND y:C10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r03|r05|r11]->(`__w0`), (x)-[:r01|r02|r03|r05|r06|r11]->(y) WHERE `__w0`:C07 AND y:C10 RETURN DISTINCT x AS c0
UNION
MATCH (x)-[:r03|r11]->(`__w0`), (x)-[:r01|r02|r03|r05|r06|r11]->(y) WHERE `__w0`:C11 AND y:C10 RETURN DISTINCT x AS c0

"""


def test_tbox_family_texts_are_pinned_under_two_hash_seeds():
    # The state elimination walks per-state edge maps, the label closure a
    # stack and the role widening a dict of roles; as in the sweep's
    # hash-seed test, no iteration order may reach the output.
    root = Path(__file__).parent.parent
    pythonpath = os.pathsep.join([str(root / "src"), str(root / "tests")])
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", _DUMP], capture_output=True,
                              text=True, check=True, env=env, cwd=str(root))
        assert proc.stdout == EXPECTED, hash_seed
