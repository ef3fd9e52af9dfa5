"""Engine-independent oracle for `ftsynth analyse` text output.

Nothing here calls the program's cut-set or probability engines. The
expected values come from three sources:

* brute force: the minimal cut-set family of a coherent tree is built by
  plain set algebra over the tree read from its Open-PSA export, and the
  exact P(top) is enumerated over every assignment of the events that do
  not form single-point cut sets, when there are at most 20 of them (every
  top with at most 20 basic events qualifies);
* closed forms for the replicated-lane models: stages**lanes + 4 minimal
  cut sets for Omission-sink, lanes*stages + 3 for Value-sink, and the
  exact P(top) of both from the per-event rates;
* the hand-computed Open-PSA corpus committed under tests/openpsa/, read
  but never written.
"""

import math
import re
import xml.etree.ElementTree as ElementTree
from operator import mul

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Inputs: rates from .mdl text, trees from Open-PSA XML


def mdl_rates(text):
    """{event name: rate} for every Malfunction of an .mdl model.

    Event names follow the synthesiser's "<block path>.<malfunction>"
    convention, e.g. "bbw/bus_a.overload".
    """
    stack = []  # frames: [kind, name]
    rates = {}
    model = None
    pending = None  # [name, rate] of the open Malfunction
    for raw in text.splitlines():
        line = raw.strip()
        if line.endswith("{"):
            kind = line[:-1].strip()
            stack.append([kind, None])
            if kind == "Malfunction":
                pending = [None, None]
            continue
        if line == "}":
            kind, _ = stack.pop()
            if kind == "Malfunction" and pending[0] is not None:
                path = [model] + [f[1] for f in stack if f[0] == "Block"]
                rates["/".join(path) + "." + pending[0]] = pending[1] or 0.0
                pending = None
            continue
        if not stack:
            continue
        key, _, value = line.partition(" ")
        if key == "Name":
            name = value.strip().strip('"')
            if stack[-1][0] == "Model":
                model = name
            elif stack[-1][0] == "Block":
                stack[-1][1] = name
            elif stack[-1][0] == "Malfunction":
                pending[0] = name
        elif key == "Rate" and stack[-1][0] == "Malfunction":
            pending[1] = float(value)
    return rates


class Tree:
    """One fault tree read from MEF XML."""

    def __init__(self, name, top, gates, events, houses):
        self.name = name        # define-fault-tree name
        self.top = top          # root gate name
        self.gates = gates      # name -> (op, min, [(kind, operand)])
        self.events = events    # name -> ("rate", r) | ("p", p) | ("none", 0)
        self.houses = houses    # house event name -> bool


def _formula(element):
    op = element.tag
    if op in ("gate", "basic-event", "event"):
        return ("ref", None, [("gate" if op == "gate" else "event",
                               element.get("name"))])
    args = []
    for child in element:
        if child.tag == "gate":
            args.append(("gate", child.get("name")))
        elif child.tag in ("basic-event", "event"):
            args.append(("event", child.get("name")))
        elif child.tag == "house-event":
            args.append(("house", child.get("name")))
        else:
            args.append(("formula", _formula(child)))
    return (op, int(element.get("min", "0")), args)


def mef_trees(text):
    """Every define-fault-tree of a MEF document as a Tree (one root each)."""
    # The corpus comments contain "--", which strict XML parsers reject.
    root = ElementTree.fromstring(re.sub(r"<!--.*?-->", "", text, flags=re.S))
    events = {}
    houses = {}
    for element in root.iter("define-basic-event"):
        value = ("none", 0.0)
        expo = element.find("exponential")
        flt = element.find("float")
        if expo is not None:
            value = ("rate", float(expo.find("float").get("value")))
        elif flt is not None:
            value = ("p", float(flt.get("value")))
        events[element.get("name")] = value
    for element in root.iter("define-house-event"):
        houses[element.get("name")] = \
            element.find("constant").get("value") == "true"
    trees = []
    for ft in root.iter("define-fault-tree"):
        gates = {}
        for gate in ft.iter("define-gate"):
            body = [c for c in gate if c.tag != "label"][0]
            gates[gate.get("name")] = _formula(body)
        referenced = {gate.get("name") for gate in ft.iter("gate")}
        tops = [g for g in gates if g not in referenced]
        trees.append(Tree(ft.get("name"), tops[0], gates, events, houses))
    return trees


def probabilities(tree, time_hours, rates=None):
    """{event: P} at the mission time; `rates` overrides exported rates."""
    out = {}
    for name, (kind, value) in tree.events.items():
        if rates is not None and name in rates:
            kind, value = "rate", rates[name]
        if kind == "rate":
            p = 1.0 - math.exp(-value * time_hours)
            out[name] = p if value > 0 else 0.0
        elif kind == "p":
            out[name] = value
        else:
            out[name] = 0.0
    return out


# ---------------------------------------------------------------------------
# Minimal cut-set family by set algebra (coherent trees only)


def _minimise(sets):
    kept = []
    for s in sorted(set(sets), key=lambda m: (bin(m).count("1"), m)):
        if not any(k & s == k for k in kept):
            kept.append(s)
    return kept


def family(tree):
    """(event names in index order, minimal cut sets as bitmasks)."""
    index = {}
    memo = {}

    def event_bit(name):
        if name not in index:
            index[name] = len(index)
        return 1 << index[name]

    def operand(arg):
        kind, value = arg
        if kind == "gate":
            return gate(value)
        if kind == "event":
            return [event_bit(value)]
        if kind == "house":
            return [0] if tree.houses[value] else []
        return formula(value)

    def formula(f):
        op, k, args = f
        parts = [operand(a) for a in args]
        if op == "ref":
            return parts[0]
        if op == "or":
            return _minimise([s for p in parts for s in p])
        if op == "and":
            acc = [0]
            for p in parts:
                acc = _minimise([a | b for a in acc for b in p])
            return acc
        if op == "atleast":
            # Sets picking k of the operands: DP over operands.
            layers = [[0]] + [[] for _ in range(k)]
            for p in parts:
                for j in range(k, 0, -1):
                    layers[j] = _minimise(
                        layers[j] + [a | b for a in layers[j - 1] for b in p])
            return layers[k]
        raise ValueError("non-coherent operator '%s'" % op)

    def gate(name):
        if name not in memo:
            memo[name] = formula(tree.gates[name])
        return memo[name]

    sets = gate(tree.top)
    names = sorted(index, key=index.get)
    return names, sets


# ---------------------------------------------------------------------------
# Brute-force exact probability over a truth table held in one big integer


def _pattern(i, n):
    """Bitset over 2**n assignments: bit a is set iff variable i is 1 in a."""
    if i < 3:
        unit = bytes([(0xAA, 0xCC, 0xF0)[i]])
        return int.from_bytes(unit * (1 << (n - 3)), "little")
    half = 1 << (i - 3)
    return int.from_bytes((b"\x00" * half + b"\xff" * half) *
                          (1 << (n - i - 1)), "little")


def truth_table_probability(table, probs):
    """Sum of assignment weights over the set bits of `table`."""
    n = max(3, len(probs))
    probs = list(probs) + [0.0] * (n - len(probs))
    low = [1.0]
    for i in range(3):
        low = [w * (1 - probs[i]) for w in low] + [w * probs[i] for w in low]
    byte_weight = [0.0] * 256
    for b in range(1, 256):
        j = (b & -b).bit_length() - 1
        byte_weight[b] = byte_weight[b & (b - 1)] + low[j]
    high = [1.0]
    for i in range(3, n):
        high = [w * (1 - probs[i]) for w in high] + [w * probs[i] for w in high]
    data = table.to_bytes(1 << (n - 3), "little")
    return math.fsum(map(mul, high, map(byte_weight.__getitem__, data)))


def tree_truth_table(tree, names):
    """Truth table of the tree's structure function over `names` (<= 20)."""
    n = max(3, len(names))
    full = (1 << (1 << n)) - 1
    var = {name: _pattern(i, n) for i, name in enumerate(names)}
    memo = {}

    def operand(arg):
        kind, value = arg
        if kind == "gate":
            if value not in memo:
                memo[value] = formula(tree.gates[value])
            return memo[value]
        if kind == "event":
            return var[value]
        if kind == "house":
            return full if tree.houses[value] else 0
        return formula(value)

    def formula(f):
        op, k, args = f
        parts = [operand(a) for a in args]
        if op == "ref":
            return parts[0]
        if op in ("or", "nor"):
            acc = 0
            for p in parts:
                acc |= p
            return acc if op == "or" else full & ~acc
        if op in ("and", "nand"):
            acc = full
            for p in parts:
                acc &= p
            return acc if op == "and" else full & ~acc
        if op == "not":
            return full & ~parts[0]
        if op == "xor":
            acc = 0
            for p in parts:
                acc ^= p
            return acc
        if op == "atleast":
            # counts[j] = assignments where exactly j operands hold (j < k),
            # plus the ">= k" bucket.
            counts = [full] + [0] * k
            for p in parts:
                for j in range(k, 0, -1):
                    counts[j] = (counts[j] | (counts[j - 1] & p)) if j == k \
                        else (counts[j] & ~p) | (counts[j - 1] & p)
                counts[0] &= ~p
            return counts[k]
        raise ValueError("unknown operator '%s'" % op)

    return operand(("gate", tree.top))


# ---------------------------------------------------------------------------
# Expected values and report checks


class Expected:
    """What one top's report section must say."""

    def __init__(self, count, min_order, singles, rare, ep, exact,
                 members=None):
        self.count = count
        self.min_order = min_order
        self.singles = singles
        self.rare = rare
        self.ep = ep
        self.exact = exact        # None: not computable here, not checked
        self.members = members    # set of frozensets of names, or None


class FamilyOracle:
    """Expected values of one coherent minimal family under any rates.

    The structure-only work (set lists, the truth table of the non-single-
    point sets) is done once; expect() then costs one pass over the sets.
    """

    def __init__(self, names, sets):
        self.names = names
        self.index_lists = [[i for i in range(len(names)) if s >> i & 1]
                            for s in sets]
        self.members = {frozenset(names[i] for i in idx)
                        for idx in self.index_lists}
        self.min_order = min(len(idx) for idx in self.index_lists)
        # Single-point events appear in no other minimal set, so they
        # factor out of P(top) independently; the remaining sets are
        # enumerated over their own events when there are at most 20.
        self.singles = [idx[0] for idx in self.index_lists if len(idx) == 1]
        rest = [idx for idx in self.index_lists if len(idx) > 1]
        self.used = sorted({i for idx in rest for i in idx})
        self.table = None
        if rest and len(self.used) <= 20:
            n = max(3, len(self.used))
            position = {i: k for k, i in enumerate(self.used)}
            patterns = [_pattern(k, n) for k in range(n)]
            full = (1 << (1 << n)) - 1
            self.table = 0
            for idx in rest:
                cube = full
                for i in idx:
                    cube &= patterns[position[i]]
                self.table |= cube
        self.exact_known = not rest or self.table is not None

    def expect(self, probs):
        p = [probs[name] for name in self.names]
        set_p = [math.prod(p[i] for i in idx) for idx in self.index_lists]
        exact = None
        if self.exact_known:
            q = math.prod(1.0 - p[i] for i in self.singles)
            p_rest = 0.0
            if self.table is not None:
                p_rest = truth_table_probability(self.table,
                                                 [p[i] for i in self.used])
            exact = 1.0 - q * (1.0 - p_rest)
        return Expected(count=len(set_p), min_order=self.min_order,
                        singles=len(self.singles), rare=math.fsum(set_p),
                        ep=-math.expm1(math.fsum(math.log1p(-x)
                                                 for x in set_p)),
                        exact=exact, members=self.members)


def expect_replicated(top, lanes, stages, rates, time_hours):
    """Closed form for synthetic::build_replicated's two tops."""
    def p(name):
        r = rates.get(name, 0.0)
        return 1.0 - math.exp(-r * time_hours) if r > 0 else 0.0

    stage = [[p("replicated/lane%d_stage%d.fail" % (c, s))
              for s in range(1, stages + 1)] for c in range(1, lanes + 1)]
    shared = [p("replicated/voter.voter_fail"),
              p("replicated/shared_input.fail")]
    if top == "Omission-sink":
        shared.append(p("replicated/power.supply_dead"))
        singles = shared + [0.0]  # env:Omission-source (no rate)
        lane_sets = stages ** lanes
        rare = math.fsum(singles) + math.prod(math.fsum(row) for row in stage)
        lane_lost = math.prod(
            1.0 - math.prod(1.0 - x for x in row) for row in stage)
        q = math.prod(1.0 - x for x in singles)
        exact = 1.0 - q * (1.0 - lane_lost)
        ep = None  # needs the 10**5-set product; not checked
        return Expected(count=lane_sets + 4, min_order=1, singles=4,
                        rare=rare, ep=ep, exact=exact)
    if top == "Value-sink":
        singles = shared + [0.0] + [x for row in stage for x in row]
        q = math.prod(1.0 - x for x in singles)
        return Expected(count=len(singles), min_order=1, singles=len(singles),
                        rare=math.fsum(singles),
                        ep=1.0 - q, exact=1.0 - q)
    raise ValueError("no closed form for " + top)


_NUMBER = r"([-+0-9.eE]+|inf|nan)"
_PTOP = re.compile(r"P\(top\): rare-event %s, Esary-Proschan %s, MCUB %s, "
                   r"exact \(BDD\) %s  \[t = %s h\]" % ((_NUMBER,) * 5))


def parse_report(text):
    """Per-top dicts from `analyse` text output, in output order."""
    tops = []
    for section in text.split("=== Top event: ")[1:]:
        head, _, body = section.partition(" ===\n")
        top = {"name": head, "listed": []}
        m = re.search(r"minimal cut sets: (\d+)(?: \(TRUNCATED\))?, "
                      r"smallest order (\d+)", body)
        top["truncated"] = "(TRUNCATED)" in body
        if m:
            top["count"], top["min_order"] = int(m.group(1)), int(m.group(2))
        for line in body.splitlines():
            if line.startswith("  {") and line.endswith("}"):
                top["listed"].append(frozenset(line[3:-1].split(", ")))
        m = _PTOP.search(body)
        if m:
            top["rare"], top["ep"], top["mcub"], top["exact"], top["t"] = (
                float(g) for g in m.groups())
        m = re.search(r"Single points of failure \(order-1 minimal cut "
                      r"sets\): (\d+)", body)
        top["singles"] = int(m.group(1)) if m else 0
        tops.append(top)
    return tops


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-300


def check_top(top, expected):
    """Problems (empty when the section agrees with `expected`)."""
    problems = []
    if "count" not in top or "rare" not in top:
        return ["section incomplete"]
    if top["truncated"]:
        problems.append("truncated")
    if top["count"] != expected.count:
        problems.append("count %d != %d" % (top["count"], expected.count))
    if top["min_order"] != expected.min_order:
        problems.append("min order %d != %d" %
                        (top["min_order"], expected.min_order))
    if top["singles"] != expected.singles:
        problems.append("single points %d != %d" %
                        (top["singles"], expected.singles))
    if len(top["listed"]) != min(20, expected.count):
        problems.append("listed %d sets" % len(top["listed"]))
    if expected.members is not None:
        stray = [s for s in top["listed"] if s not in expected.members]
        if stray:
            problems.append("listed set not minimal: %s" % sorted(stray[0]))
    for key in ("rare", "ep", "exact"):
        want = getattr(expected, key)
        if want is not None and not _close(top[key], want):
            problems.append("%s %r != %r" % (key, top[key], want))
    if not _close(top["mcub"], top["ep"]) and expected.ep is not None:
        problems.append("MCUB %r != Esary-Proschan %r" %
                        (top["mcub"], top["ep"]))
    return problems


# ---------------------------------------------------------------------------
# The committed hand-computed corpus (tests/openpsa/), read-only

# file -> (top, hand-computed P(top), hand-computed minimal cut sets or None
# for non-coherent models). Values are those written in each file's header
# comment.
CORPUS = {
    "and_or.xml": ("FT", 0.069, [{"c"}, {"a", "b"}]),
    "vote23.xml": ("VOTE", 0.028, [{"a", "b"}, {"a", "c"}, {"b", "c"}]),
    "shared.xml": ("SHARED", 0.010594, [{"a"}, {"b", "c"}]),
    "house.xml": ("HOUSE", 0.25, [{"a"}]),
    "exponential.xml": ("EXP", 1.0 - math.exp(-3e-3), [{"fast"}, {"slow"}]),
    "xor.xml": ("XOR", 0.38, None),
    "nand.xml": ("NAND", 0.8, None),
    "nor.xml": ("NOR", 0.72, None),
}


def corpus_expectations(path):
    """Brute-force P(top) (and family, when coherent) of one corpus file,
    asserted against the hand-computed values; returns Expected."""
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    top, hand_p, hand_sets = CORPUS[name]
    with open(path) as f:
        tree = mef_trees(f.read())[0]
    probs = probabilities(tree, 1.0)
    names = sorted(tree.events)
    brute = truth_table_probability(tree_truth_table(tree, names),
                                    [probs[n] for n in names])
    if not abs(brute - hand_p) <= 1e-12:
        raise AssertionError("%s: brute force %r != hand %r" %
                             (name, brute, hand_p))
    if hand_sets is None:
        return top, None, brute
    expected = FamilyOracle(*family(tree)).expect(probs)
    got = sorted(sorted(s) for s in expected.members)
    if got != sorted(sorted(s) for s in hand_sets):
        raise AssertionError("%s: family %r != hand %r" %
                             (name, got, hand_sets))
    if not abs(expected.exact - hand_p) <= 1e-12:
        raise AssertionError("%s: factored exact %r != hand %r" %
                             (name, expected.exact, hand_p))
    return top, expected, brute
