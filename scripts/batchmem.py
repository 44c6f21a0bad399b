"""Measure the memory and time of one training batch at paper dimensions.

    python3 scripts/batchmem.py --batch 50 --lengths 20 120 [--layers 0] [--seed 0]

builds a model at paper dimensions (hidden = attention = 150, emb 100,
window 3, `--layers` extra layers) over `--batch` random sentences of
Han characters, each of a length drawn uniformly from the two bounds of
`--lengths` (both included) and cut into words of 1 to 4 characters,
every draw from one generator seeded with `--seed`.  The model
warms up on a second batch of the same count and length bounds, drawn
after the first, so the measured call finds the BLAS buffers and the
allocator's state that a batch of its shape leaves, not those of a
smaller batch; then it runs one `loss_and_grads` call over the first
batch, with the model's dropout rate, into gradient sums that are
zeroed in place.  So peak_growth_mb is what the batch adds to the
warm-up's peak, and minor_faults the pages it takes beyond the memory
the warm-up left.  The script prints

    peak_growth_mb   growth of the process's peak RSS (ru_maxrss / 1024)
                     over that one call
    minor_faults     growth of the process's minor page faults
                     (ru_minflt) over that one call
    seconds          the call's wall-clock time
    grads_sha256     sha256 of every gradient sum's bytes, in the
                     model's parameter order

The run takes place in a fresh subprocess with OPENBLAS_NUM_THREADS=1,
as scripts/pins.py runs its own, so the peak is the batch's own and
the gradients' bytes do not depend on the calling environment.  Two
checkouts whose training is bit-equal print the same grads_sha256 for
the same arguments; copy this file into the other checkout's scripts/
to compare the two.
"""

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# the first CJK unified ideograph and the number drawn from
HAN_START, HAN_COUNT = 0x4E00, 3000


def sentences(rng, count, low, high):
    """`count` random Sentences of low..high Han characters."""
    from attnseg.corpus import Sentence
    from attnseg.tagging import encode_tags

    batch = []
    for _ in range(count):
        chars = [chr(HAN_START + int(c))
                 for c in rng.integers(0, HAN_COUNT, rng.integers(low, high + 1))]
        words, at = [], 0
        while at < len(chars):
            size = int(rng.integers(1, 5))
            words.append(chars[at:at + size])
            at += size
        batch.append(Sentence(tokens=chars, tags=encode_tags(words)))
    return batch


def measure(args):
    """Print the four figures of one batch, in this process."""
    import numpy as np

    from attnseg.model import Segmenter, TrainConfig

    rng = np.random.default_rng(args.seed)
    batch = sentences(rng, args.batch, *args.lengths)
    warm_up = sentences(rng, args.batch, *args.lengths)
    config = TrainConfig(hidden=150, attn_dim=150, emb_dim=100, window=3,
                         extra_layers=args.layers, seed=args.seed)
    model = Segmenter.build(batch + warm_up, config)
    sums = {name: np.zeros(p.shape) for name, p in model.params.items()}
    # the warm-up also touches every page of the sums, zeroed again below
    model.loss_and_grads(warm_up, config.dropout, rng, into=sums)
    for grad in sums.values():
        grad[...] = 0.0
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    model.loss_and_grads(batch, config.dropout, rng, into=sums)
    seconds = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    digest = hashlib.sha256()
    for grad in sums.values():
        digest.update(grad.tobytes())
    print(f"peak_growth_mb {(after.ru_maxrss - before.ru_maxrss) / 1024.0:.1f}")
    print(f"minor_faults {after.ru_minflt - before.ru_minflt}")
    print(f"seconds {seconds:.3f}")
    print(f"grads_sha256 {digest.hexdigest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--lengths", type=int, nargs=2, required=True,
                        metavar=("LOW", "HIGH"))
    parser.add_argument("--layers", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    # set in the subprocess that measures
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.batch < 1 or not 1 <= args.lengths[0] <= args.lengths[1]:
        parser.error("need --batch >= 1 and 1 <= LOW <= HIGH")
    if args.in_process:
        measure(args)
        return
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC),
               OPENBLAS_NUM_THREADS="1")
    argv = sys.argv[1:] if argv is None else argv
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           *argv, "--in-process"], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
