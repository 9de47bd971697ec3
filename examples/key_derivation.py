"""Device-bound key derivation: stable bits from noisy analog silicon.

Derives a 256-bit digest from seed-derived challenges, then shows the two
reliability mechanisms working together under comparator noise:

* *dark-bit masking* — bits whose current margin is below the comparator
  resolution are dropped before hashing (the mask is public);
* *majority voting* — each kept bit is decided by repeated noisy samples.

Because the PPUF's model is public, the derived value is a device-bound
identity (anyone can recompute it from the model) — what binds it to the
physical device in a protocol is the time-bounded evaluation, not secrecy.

Run:  python examples/key_derivation.py
"""

from dataclasses import replace

import numpy as np

from repro.ppuf import CurrentComparator, Ppuf, derive_key, key_agreement_rate


def main():
    rng = np.random.default_rng(9)
    ppuf = Ppuf.create(n=16, l=4, rng=rng)

    material = derive_key(ppuf, b"door-controller-7", num_bits=96)
    print(f"noise-free derivation: key = {material.key.hex()}")
    print(f"  retained {material.retained}/96 bits "
          "(margins below the comparator resolution are masked)")

    again = derive_key(ppuf, b"door-controller-7", num_bits=96)
    print(f"  reproducible: {material.key == again.key}")
    other = derive_key(ppuf, b"door-controller-8", num_bits=96)
    print(f"  seed-sensitive: {material.key != other.key}")

    print("reliability under comparator noise (sigma = 10 nA):")
    for resolution, votes in ((0.0, 1), (0.0, 9), (4e-8, 9)):
        noisy = replace(
            ppuf,
            comparator=CurrentComparator(noise_sigma=1e-8, resolution=resolution),
        )
        rate, reference = key_agreement_rate(
            noisy, b"door-controller-7", 12, rng, num_bits=96, votes=votes
        )
        print(f"  masking={'on ' if resolution else 'off'} votes={votes}: "
              f"key agreement {rate:.2f} "
              f"({reference.retained}/96 bits retained)")
    print("-> masking + voting turns a flaky analog readout into a stable key")


if __name__ == "__main__":
    main()
