import json
import random
from pathlib import Path

import pytest

from fpverify import Word, parse_presentation

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
