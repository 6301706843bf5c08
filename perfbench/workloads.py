"""The benchmark's three workloads: documents and a seeded gesture stream.

A *gesture* is one keystroke burst: one or more ``edit`` requests sent
together, all but the last with ``defer`` so the service may hold them
and parse the burst once.  A header toggle on ``project`` carries a
*fanout* list: after the burst the client sends a ``query`` to each
named dependent and waits for every reply.  ``typing`` and ``durable``
send edits only (see ``README.md`` in this directory for why each
workload looks the way it does).

Everything here is a pure function of the seed and of the texts the
client already holds; the service under test receives only the
generated texts and edits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random

from repro.langs.generators import generate_edit_script, generate_program

# A numeric literal standing alone (not the digits inside ``v12``).
_LITERAL = re.compile(r"(?<![A-Za-z0-9_.])[0-9]+(?![A-Za-z0-9_.])")
_DECLARATION_STARTS = ("int ", "enum ")

TYPING_LINES = 768
TYPING_DENSITY = 0.1  # share of statements that are Figure-1 choice points
# Gesture cadence: every 5th gesture is a whole-line step, and every
# 8th literal retype hits a literal inside a declaration (an array bound
# or an enum initializer).  A fixed cadence, not a coin flip, so every
# run holds the same share of each kind: the declaration literals take
# the slow tolerant path (see README.md), and a random share of them
# would make the mean latency swing from run to run.
TYPING_LINE_STEP_EVERY = 5
TYPING_DECL_RETYPE_EVERY = 8
DURABLE_DOCS = 8
DURABLE_STATEMENTS = 384
PROJECT_DEPENDENTS = 8
PROJECT_TYPEDEFS = 12
PROJECT_LINES = 120
PROJECT_TOGGLE_SHARE = 0.3


@dataclass
class Document:
    name: str
    language: str
    text: str


@dataclass
class Gesture:
    doc: str
    specs: list[dict]  # one edit request per spec, applied in order
    fanout: list[str] = field(default_factory=list)


def _literal_sites(text: str, declarations: bool | None = None) -> list:
    """Spans of literals; optionally only those on declaration lines."""
    sites = []
    offset = 0
    for line in text.split("\n"):
        if declarations is None or declarations == line.lstrip().startswith(
            _DECLARATION_STARTS
        ):
            sites += [
                (offset + m.start(), offset + m.end())
                for m in _LITERAL.finditer(line)
            ]
        offset += len(line) + 1
    return sites


def _retype_digit(rng: Random, text: str, declarations=None) -> dict:
    """One keystroke: overwrite one digit of a literal with another."""
    sites = _literal_sites(text, declarations) or _literal_sites(text)
    start, end = sites[rng.randrange(len(sites))]
    at = rng.randrange(start, end)
    digit = rng.choice([d for d in "123456789" if d != text[at]])
    return {"at": at, "remove": 1, "insert": digit}


def apply_spec(text: str, spec: dict) -> str:
    at = spec["at"]
    return text[:at] + spec["insert"] + text[at + spec["remove"]:]


class Workload:
    """Documents plus the client's view of their texts."""

    name = ""
    state_dir = False  # does the measured service persist?

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = Random(seed)
        self.docs = self.documents()
        self.texts = {doc.name: doc.text for doc in self.docs}
        self.turn = 0

    def documents(self) -> list[Document]:
        raise NotImplementedError

    def setup_requests(self) -> list[dict]:
        """Requests that open every document and answer it."""
        return [
            {"op": "open", "doc": doc.name, "language": doc.language,
             "text": doc.text}
            for doc in self.docs
        ]

    def next_gesture(self) -> Gesture:
        raise NotImplementedError


class Typing(Workload):
    """One large fullc file, single keystrokes and whole-line steps."""

    name = "typing"
    retypes = 0  # literal retypes so far

    def documents(self) -> list[Document]:
        text = generate_program(
            "fullc", TYPING_LINES, self.seed, ambiguity_density=TYPING_DENSITY
        )
        return [Document("main.c", "fullc", text)]

    def next_gesture(self) -> Gesture:
        text = self.texts["main.c"]
        self.turn += 1
        if self.turn % TYPING_LINE_STEP_EVERY == 0:
            (step,) = generate_edit_script(
                "fullc", text, seed=self.rng.randrange(1 << 30), n_steps=1
            )
            spec = {"at": step.offset, "remove": step.remove,
                    "insert": step.insert}
        else:
            self.retypes += 1
            spec = _retype_digit(
                self.rng,
                text,
                declarations=self.retypes % TYPING_DECL_RETYPE_EVERY == 0,
            )
        return Gesture("main.c", [spec])


class Durable(Workload):
    """Eight calc buffers with a state dir, retyped in deferred bursts."""

    name = "durable"
    state_dir = True

    def documents(self) -> list[Document]:
        return [
            Document(
                f"buf{i}.calc",
                "calc",
                generate_program(
                    "calc", DURABLE_STATEMENTS, self.seed * 100 + i
                ),
            )
            for i in range(DURABLE_DOCS)
        ]

    def next_gesture(self) -> Gesture:
        doc = self.docs[self.turn % len(self.docs)].name
        self.turn += 1
        text = self.texts[doc]
        sites = _literal_sites(text)
        start, end = sites[self.rng.randrange(len(sites))]
        value = str(self.rng.randrange(10, 10_000))
        # Typed digit by digit: the first keystroke replaces the old
        # literal, every later one appends (the service's coalescing
        # algebra merges the burst into one splice).
        specs = [{"at": start, "remove": end - start, "insert": value[0]}]
        specs += [
            {"at": start + i, "remove": 0, "insert": value[i]}
            for i in range(1, len(value))
        ]
        return Gesture(doc, specs)


HEADER = "types.minic"


def _header_line(k: int) -> str:
    return f"typedef int Q{k};\n"


class Project(Workload):
    """A minic header of typedefs and dependents that consult them."""

    name = "project"

    def documents(self) -> list[Document]:
        header = "".join(_header_line(k) for k in range(PROJECT_TYPEDEFS))
        docs = [Document(HEADER, "minic", header)]
        rng = Random(self.seed)
        for i in range(PROJECT_DEPENDENTS):
            lines = [f"int fn{i}(int p0) {{", "  int v0;", "  int v1;"]
            for j in range(PROJECT_LINES - 4):
                if j % 4 == 3:
                    # A Figure-1 choice point: declaration of u<j> if
                    # Q<k> is a typedef in the header, else a call.
                    k = rng.randrange(PROJECT_TYPEDEFS)
                    lines.append(f"  Q{k} (u{j});")
                elif j % 4 == 1:
                    lines.append(
                        f"  if (v{j % 2}) v{1 - j % 2} = "
                        f"{rng.randrange(1, 1000)};"
                    )
                else:
                    lines.append(
                        f"  v{j % 2} = v{1 - j % 2} * {rng.randrange(1, 100)}"
                        f" + {rng.randrange(1, 1000)};"
                    )
            lines.append("}")
            docs.append(
                Document(f"dep{i}.minic", "minic", "\n".join(lines) + "\n")
            )
        return docs

    def dependents(self) -> list[str]:
        return [doc.name for doc in self.docs if doc.name != HEADER]

    def setup_requests(self) -> list[dict]:
        requests = super().setup_requests()
        requests.insert(1, {"op": "analyze", "doc": HEADER})
        requests += [
            {"op": "depends", "doc": name, "on": HEADER}
            for name in self.dependents()
        ]
        return requests

    def next_gesture(self) -> Gesture:
        if self.rng.random() < PROJECT_TOGGLE_SHARE:
            text = self.texts[HEADER]
            line = _header_line(self.rng.randrange(PROJECT_TYPEDEFS))
            if line in text:
                spec = {"at": text.index(line), "remove": len(line),
                        "insert": ""}
            else:
                spec = {"at": 0, "remove": 0, "insert": line}
            return Gesture(HEADER, [spec], self.dependents())
        doc = self.rng.choice(self.dependents())
        return Gesture(doc, [_retype_digit(self.rng, self.texts[doc])])


WORKLOADS = {cls.name: cls for cls in (Typing, Durable, Project)}
