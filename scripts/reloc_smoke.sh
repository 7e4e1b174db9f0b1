#!/bin/sh
# Relocatable-image + backend smoke, run by `make reloc-smoke` and CI.
#
# Four contracts:
#   1. Image-shipping migration is observably the drain protocol: the
#      same run under --migrate-mode drain and --migrate-mode image
#      lands the identical final-directory checksum, loses nothing,
#      misplaces nothing — and the image run really shipped images,
#      each only its live extents (under 1 MiB for the whole run).
#   2. The mid-migration crash sweep holds in image mode too: a whole-
#      service power failure injected before sampled migration memory
#      events (shipping included) recovers lossless with unique
#      ownership and golden-equal state.
#   3. The image run is byte-identical between --jobs 1 and --jobs 4.
#   4. The checker and the static analyzer agree on the msync backend:
#      both clear the clean registry and both convict the broken-fences
#      sabotage (a durable page journal appended without fences).
set -eu

SIM="${SIM:-_build/default/bin/wsp_sim.exe}"
cd "$(dirname "$0")/.."

ARGS="--shards 4 --clients 64 --queue-cap 64 --requests 20000 --keyspace 4000 --grow-at 40"

echo "== reloc: image-shipping migration matches key drain =="
"$SIM" shard $ARGS --migrate-mode drain --json reloc-drain.json > /dev/null
"$SIM" shard $ARGS --migrate-mode image --json reloc-image.json > /dev/null
grep -q '"lost_acked": 0,' reloc-image.json
grep -q '"misplaced_keys": 0,' reloc-image.json
if grep -q '"images_shipped": 0,' reloc-image.json; then
  echo "image mode shipped no images"; exit 1; fi
IMAGE_BYTES=$(sed -n 's/^ *"image_bytes": \([0-9]*\),$/\1/p' reloc-image.json)
if [ -z "$IMAGE_BYTES" ] || [ "$IMAGE_BYTES" -ge 1048576 ]; then
  echo "image mode shipped ${IMAGE_BYTES:-unknown} wire bytes, not under 1 MiB"
  exit 1; fi
grep '"checksum"' reloc-drain.json > reloc-drain.sum
grep '"checksum"' reloc-image.json > reloc-image.sum
cmp reloc-drain.sum reloc-image.sum

echo "== reloc: mid-migration crash sweep in image mode =="
"$SIM" shard --shards 3 --clients 32 --queue-cap 32 --requests 6000 \
  --keyspace 1200 --migrate-mode image --grow-at 30 --sweep \
  --sweep-points 12 --json reloc-sweep.json > /dev/null
grep -q '"violations": 0,' reloc-sweep.json
grep -q '"migrate_mode": "image",' reloc-sweep.json

echo "== reloc: image mode JSON identical across --jobs =="
"$SIM" shard $ARGS --migrate-mode image --jobs 1 --json reloc-j1.json > /dev/null
"$SIM" shard $ARGS --migrate-mode image --jobs 4 --json reloc-j4.json > /dev/null
cmp reloc-j1.json reloc-j4.json

echo "== reloc: check and lint agree the msync backend is clean =="
"$SIM" check --config msync --points 200 --seed 42 > /dev/null
"$SIM" lint --config msync --expect R3 > /dev/null

echo "== reloc: check and lint both convict broken fences under msync =="
if "$SIM" check --config msync --points 100 --seed 42 --broken fences \
    > /dev/null 2>&1; then
  echo "checker cleared the broken-fences msync sabotage"; exit 1; fi
if "$SIM" lint --config msync --broken fences > /dev/null 2>&1; then
  echo "analyzer cleared the broken-fences msync sabotage"; exit 1; fi

rm -f reloc-drain.json reloc-image.json reloc-drain.sum reloc-image.sum \
  reloc-sweep.json reloc-j1.json reloc-j4.json
echo "reloc-smoke: all gates passed"
