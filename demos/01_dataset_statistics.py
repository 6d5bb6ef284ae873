"""
Loading a review corpus and checking its shape
==============================================

Generates a small synthetic corpus, writes it to CSV, loads it back in
strict and lenient modes, and prints the dataset statistics that the
ingest command reports.
"""

import csv
import tempfile
from pathlib import Path

from revrank.dataset import (
    group_by_accommodation,
    load_csv,
    split_dataset,
    statistics_key_values,
    validate_statistics,
    write_csv,
)
from revrank.synthgen import SynthConfig, generate

workdir = Path(tempfile.mkdtemp(prefix="revrank_demo_"))
csv_path = workdir / "reviews.csv"

# A corpus of 25 accommodations with 10 to 14 reviews each.
records = generate(SynthConfig(n_accommodations=25, reviews_per_accommodation=(10, 14), seed=7))
write_csv(records, csv_path)
print(f"wrote {len(records)} reviews to {csv_path}")

# Strict mode refuses any malformed row.
loaded = load_csv(csv_path, schema_mode="strict")
print(f"strict load: {len(loaded.records)} records, {len(loaded.rejections)} rejections")

# Corrupt one row and retry. Lenient mode skips it and tells us why.
with csv_path.open(newline="") as fh:
    rows = list(csv.DictReader(fh))
rows[0]["guest_type"] = "Time traveller"
with (workdir / "damaged.csv").open("w", newline="") as fh:
    writer = csv.DictWriter(fh, fieldnames=rows[0].keys())
    writer.writeheader()
    writer.writerows(rows)

lenient = load_csv(workdir / "damaged.csv", schema_mode="lenient")
print(f"lenient load: {len(lenient.records)} records, {len(lenient.rejections)} rejections")
for rejection in lenient.rejections:
    print(f"  row {rejection.row}: {rejection.reason}")

# The statistics report covers every column plus corpus-level checks.
stats = validate_statistics(loaded.records)
print()
print(statistics_key_values(stats))

# Splitting assigns whole accommodations, never individual reviews, so a
# property's reviews are always on the same side of the fence.
groups = group_by_accommodation(loaded.records)
train_g, valid_g, test_g = split_dataset(groups, (0.8, 0.1, 0.1), seed=0)
print(f"split accommodations: {len(train_g)} train / {len(valid_g)} valid / {len(test_g)} test")
overlap = {g.accommodation_id for g in train_g} & {g.accommodation_id for g in test_g}
print(f"train/test accommodation overlap: {len(overlap)}")
