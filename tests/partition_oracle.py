"""`data.partition` as written before its shards were dealt by
`np.array_split` and its label-shard holders computed per label: the
oracle that the rewrite deals every sample to the same worker."""

import numpy as np

from fedlbg.data import Dataset, Partition, parse_partition_mode


def hand_deal(indices: np.ndarray, parts: int) -> list:
    """Split into `parts` chunks; earlier chunks absorb one extra element."""
    base, extra = divmod(len(indices), parts)
    out = []
    off = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(indices[off : off + size])
        off += size
    return out


def reference_partition(ds: Dataset, k: int, mode: str, rng: np.random.Generator) -> Partition:
    if k < 1:
        raise ValueError("K must be >= 1")
    if k > ds.n:
        raise ValueError(f"cannot split {ds.n} samples across {k} workers")
    kind, s = parse_partition_mode(mode)

    if kind == "iid":
        perm = rng.permutation(ds.n)
        shards = hand_deal(perm, k)
    else:
        if ds.num_classes == 0:
            raise ValueError("label_shard partitioning needs a classification dataset")
        if s > ds.num_classes:
            raise ValueError(
                f"label_shard({s}) exceeds the {ds.num_classes} available labels"
            )
        if k * s < ds.num_classes:
            raise ValueError(
                f"label_shard({s}) with {k} workers covers only {k * s} of "
                f"{ds.num_classes} labels; shards must cover the dataset"
            )
        c = ds.num_classes
        holders = {label: [] for label in range(c)}
        for worker in range(k):
            for j in range(s):
                holders[(worker * s + j) % c].append(worker)
        per_label = {
            label: rng.permutation(np.flatnonzero(ds.labels == label))
            for label in range(c)
        }
        shard_lists = [[] for _ in range(k)]
        for label in range(c):
            workers = holders[label]
            for worker, chunk in zip(workers, hand_deal(per_label[label], len(workers))):
                shard_lists[worker].append(chunk)
        shards = [np.sort(np.concatenate(parts)) for parts in shard_lists]
        empty = [worker for worker, sh in enumerate(shards) if len(sh) == 0]
        if empty:
            raise ValueError(f"label_shard({s}) leaves worker {empty[0]} without samples")

    shards = tuple(np.asarray(sh, dtype=np.int64) for sh in shards)
    weights = np.array([len(sh) for sh in shards], dtype=np.float64) / ds.n
    return Partition(shards, weights)
