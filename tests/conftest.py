from __future__ import annotations

from pathlib import Path

import pytest

from slvrate import mlst_io

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo"
DEMO_LOCI = ("aspA", "glnA", "gltA")


def load_demo_dataset() -> mlst_io.MlstDataset:
    profiles = mlst_io.parse_profiles(DEMO / "profiles.tsv", DEMO_LOCI)
    alleles = {
        locus: mlst_io.parse_allele_fasta(DEMO / f"{locus}.fas") for locus in DEMO_LOCI
    }
    dataset, repairs = mlst_io.build_dataset(profiles, alleles, mode="strict")
    assert repairs == ()
    return dataset


@pytest.fixture(scope="session")
def demo_dataset() -> mlst_io.MlstDataset:
    return load_demo_dataset()
