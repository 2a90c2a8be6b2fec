"""Seeded synthetic article corpus for the benchmark.

The generator is the test suite's reference-corpus generator
(``tests/conftest.py::write_corpus_dir``) kept as the benchmark's own copy,
so that the benchmark never imports test code. With ``seed=0``,
100 articles and 90 sentences it writes the acceptance suite's
criterion-10 corpus byte for byte.

Articles cycle through four topics. About a third of each article's
sentences lean on its topic's vocabulary, and within those the topic's
primary keyword (``TOPIC_KEYWORDS``) is the most frequent word, so a query
for a keyword has real cluster structure to find.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TOPIC_WORDS = {
    "vaccine": [
        "vaccine", "antibody", "immunization", "dose", "trial", "efficacy",
        "antigen", "booster", "adjuvant", "epitope",
    ],
    "transmission": [
        "transmission", "contact", "airborne", "droplet", "spread",
        "exposure", "contagion", "quarantine", "outbreak", "reproduction",
    ],
    "genome": [
        "genome", "mutation", "protein", "codon", "replication", "strain",
        "sequencing", "phylogeny", "variant", "polymerase",
    ],
    "clinical": [
        "symptom", "fever", "pneumonia", "ventilator", "mortality",
        "comorbidity", "admission", "oxygen", "prognosis", "recovery",
    ],
}

# The primary keyword of each topic, in the order queries are issued.
TOPIC_KEYWORDS = ("vaccine", "transmission", "genome", "symptom")

NOUNS = """patient cohort study sample hospital laboratory result analysis
model method dataset measurement population region period infection virus
pathogen cell tissue receptor enzyme assay response mechanism factor
evidence finding report estimate approach protocol procedure intervention
surveillance diagnosis treatment therapy outcome incidence prevalence
severity cluster group case control subject participant specimen swab
culture titer serum plasma biomarker indicator correlation distribution
trend pattern variation baseline followup screening detection confirmation
validation framework pipeline algorithm parameter threshold criterion
metric score index ratio proportion interval margin uncertainty
variability consistency reliability sensitivity specificity accuracy
precision capacity resource facility equipment staff personnel workforce
training guideline policy regulation strategy measure restriction mobility
behavior interaction network community household workplace environment
climate humidity temperature season geography density urbanization travel
migration border airport transit vessel crew passenger""".split()

VERBS = """indicates suggests demonstrates reveals confirms supports
implies shows exhibits displays presents reports describes examines
investigates evaluates assesses measures estimates predicts models
characterizes identifies detects observes records documents compares
correlates associates links connects relates influences affects modulates
amplifies reduces increases decreases limits constrains governs determines
drives shapes accelerates""".split()

ADJECTIVES = """significant substantial considerable notable marked
pronounced moderate modest limited partial preliminary robust consistent
reliable reproducible comparable similar distinct divergent heterogeneous
homogeneous widespread localized persistent transient acute chronic severe
mild novel emerging established standard conventional alternative
experimental observational retrospective prospective longitudinal""".split()


def _sentence(rng: random.Random, topic: str | None) -> str:
    noun = rng.choice(NOUNS)
    if topic and rng.random() < 0.6:
        words = TOPIC_WORDS[topic]
        noun = words[0] if rng.random() < 0.5 else rng.choice(words[1:])
    parts = [
        "The",
        rng.choice(ADJECTIVES),
        noun,
        rng.choice(VERBS),
        "the",
        rng.choice(ADJECTIVES),
        rng.choice(NOUNS),
        "within the",
        rng.choice(NOUNS),
    ]
    if rng.random() < 0.3:
        parts += ["and the", rng.choice(NOUNS), rng.choice(VERBS), "the", rng.choice(NOUNS)]
    return " ".join(parts) + "."


def _paragraphs(rng: random.Random, topic: str, n_sentences: int) -> list[str]:
    paragraphs = []
    sentences = []
    for _ in range(n_sentences):
        use_topic = topic if rng.random() < 0.35 else None
        sentences.append(_sentence(rng, use_topic))
        if len(sentences) >= 6:
            paragraphs.append(" ".join(sentences))
            sentences = []
    if sentences:
        paragraphs.append(" ".join(sentences))
    return paragraphs


def write_corpus(path: Path, n_articles: int, n_sentences: int, seed: int) -> None:
    """Write ``n_articles`` article JSON files of ``n_sentences`` sentences each."""
    path.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    topics = sorted(TOPIC_WORDS)
    for i in range(n_articles):
        topic = topics[i % len(topics)]
        paper_id = f"paper{i:04d}"
        article = {
            "paper_id": paper_id,
            "title": f"A {topic} study {i}",
            "body_text": _paragraphs(rng, topic, n_sentences),
        }
        (path / f"{paper_id}.json").write_text(json.dumps(article), encoding="utf-8")
