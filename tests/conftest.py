import sys
from pathlib import Path

import numpy as np
import pytest

from keyclust.preprocess import Chunk, default_cleaning_config
from keyclust.report import TokenTable
from keyclust.weighting import WeightedPoint

# ---------------------------------------------------------------------------
# synthetic article text

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from corpus_gen import write_corpus  # noqa: E402


def write_corpus_dir(path: Path, n_articles: int, seed: int = 0, n_sentences: int = 90) -> None:
    """Write the seeded reference corpus (``perfbench/corpus_gen.py``) to ``path``."""
    write_corpus(path, n_articles, n_sentences, seed)


# ---------------------------------------------------------------------------
# point clouds


def blob_points(
    rng: np.random.Generator,
    centers: list[tuple[float, ...]],
    n_per: int,
    std: float = 0.5,
    weight: float = 1.0,
    prefix: str = "p",
) -> list[WeightedPoint]:
    points = []
    for b, center in enumerate(centers):
        coords = rng.normal(loc=center, scale=std, size=(n_per, len(center)))
        for i in range(n_per):
            points.append(
                WeightedPoint(
                    chunk_id=f"{prefix}{b:02d}_{i:04d}", coords=coords[i], weight=weight
                )
            )
    return points


def random_points(
    rng: np.random.Generator, n: int, dim: int, weight: float = 1.0
) -> list[WeightedPoint]:
    coords = rng.standard_normal((n, dim))
    return [
        WeightedPoint(chunk_id=f"r{i:04d}", coords=coords[i], weight=weight)
        for i in range(n)
    ]


def toy_chunk(chunk_id: str, tokens: list[str], doc_id: str = "doc") -> Chunk:
    return Chunk(
        chunk_id=chunk_id,
        doc_id=doc_id,
        raw_text=" ".join(tokens),
        sentence_count=2,
        tokens=tuple(tokens),
    )


def token_table(chunks) -> TokenTable:
    """The report's table of ``chunks``, built from their stage records."""
    return TokenTable.from_records({**c.to_record(), "tokens": list(c.tokens)} for c in chunks)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def clean_config():
    return default_cleaning_config()
