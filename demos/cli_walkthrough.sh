#!/bin/sh
# Full command-line pipeline on a small synthetic corpus, end to end:
# generate -> train -> embed -> index -> query -> eval.  All outputs land in
# a scratch directory and the run is fully reproducible from the seed.
set -e

WORK=$(mktemp -d)
echo "working in $WORK"

cardl synth --out-dir "$WORK/data" \
  --clusters 4 --pairs-per-cluster 20 \
  --text-dim 32 --image-dim 48 --latent-dim 8 --seed 7

cardl train \
  --text-features "$WORK/data/text_features.jsonl" \
  --image-features "$WORK/data/image_features.jsonl" \
  --pairs "$WORK/data/pairs.tsv" \
  --epochs 30 --unified-dim 32 --seed 7 \
  --out "$WORK/model.json" 2>&1 | tail -2

cardl embed --model "$WORK/model.json" \
  --features "$WORK/data/text_features.jsonl" --out "$WORK/unified_text.jsonl"
cardl embed --model "$WORK/model.json" \
  --features "$WORK/data/image_features.jsonl" --out "$WORK/unified_image.jsonl"
cat "$WORK/unified_text.jsonl" "$WORK/unified_image.jsonl" > "$WORK/unified.jsonl"

cardl index --vectors "$WORK/unified.jsonl" --out "$WORK/index.json"

echo
echo "top-5 images for text query t0000:"
cardl query --index "$WORK/index.json" --id t0000 --direction txt2img --k 5 \
  > "$WORK/query_by_id.txt"
cat "$WORK/query_by_id.txt"

# the same query from its raw features, projected through the model: only
# the feature-file lines that can hold t0000 are decoded
cardl query --index "$WORK/index.json" --model "$WORK/model.json" \
  --features "$WORK/data/text_features.jsonl" --id t0000 --direction txt2img --k 5 \
  > "$WORK/query_by_features.txt"
cmp "$WORK/query_by_id.txt" "$WORK/query_by_features.txt"
echo "(the raw-feature query gives the same five lines)"

echo
cardl eval --index "$WORK/index.json" --model "$WORK/model.json" \
  --text-features "$WORK/data/text_features.jsonl" \
  --image-features "$WORK/data/image_features.jsonl" \
  --pairs "$WORK/data/pairs.tsv"

rm -rf "$WORK"
