import json
import random
from pathlib import Path

import pytest

from fpverify import Presentation, Word, parse_presentation

# finite battery: (name, presentation text, known order), orders checked
# against independent oracles in test_coset
FINITE_BATTERY = (
    [(f"z{n}", f"< a | a^{n} >", n) for n in range(1, 13)]
    + [("s3", "< r, s | r^3, s^2, (r s)^2 >", 6),
       ("q8", "< i, j | i^4, i^2 j^-2, j^-1 i j i >", 8)]
)


@pytest.fixture(params=FINITE_BATTERY, ids=[b[0] for b in FINITE_BATTERY])
def battery_case(request):
    name, text, order = request.param
    return parse_presentation(text), order


# a presentation whose relation matrix blew up a two-phase Smith form: its
# entries ran past 4,000 digits before the divisibility chain was reached
BADLY_PRESENTED_Z_MODULE = """< g0, g1, g2, g3, g4, g5, g6 |
  g3^21 g4^30 g5^-10 g6^-29, g1^26 g2^-17 g5^18 g6, g0^-8 g1^-16 g5^28 g6^11,
  g0^10 g3^-9 g6^-3, g0^28 g2^7 g4^30 g5^7, g0^17 g2^-19 g3^26 g6^-2,
  g1^-20 g2^-5 g3^16 g4^-28 g5^24 >"""


SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "fpverify" / "schemas"


def schema(name: str) -> dict:
    with open(SCHEMAS / f"{name}-v1.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def random_word(rng: random.Random, gens="abcde", max_len=64) -> Word:
    return Word((rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randrange(max_len + 1)))


def random_letters(rng: random.Random, gens="abcde", max_len=64):
    return [(rng.choice(gens), rng.choice((1, -1)))
            for _ in range(rng.randrange(max_len + 1))]


def random_small_presentation(rng: random.Random) -> Presentation:
    """Two or three generators and as many relators, each two to six
    random letters long."""
    gens = "abc"[:rng.choice((2, 3))]
    return Presentation(gens, [
        Word((rng.choice(gens), rng.choice((1, -1)))
             for _ in range(rng.randint(2, 6)))
        for _ in gens])
