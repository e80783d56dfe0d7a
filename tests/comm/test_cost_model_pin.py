"""Pin every virtual-clock value of the network cost model.

One sha256 covers, over flat and two-level networks (``ranks_per_node`` 1-4)
and worlds of 1..32 densely packed ranks plus uneven survivor placements:

* every collective-time method, both algorithms of each, and
  ``transfer_time`` / ``split_time`` / ``compute_time``;
* the ``(op, nbytes_total, n_messages, time, retries, hop)`` records of
  every ``hier_*`` hop charge, the lump and flat-ring ``allreduce_bytes``
  and the ``allgatherv_bytes`` charges, with and without faults;
* the records of ``test_hier_crossover.py``'s grid.

Floats enter the digest as ``float.hex``, so any change in operation order
moves it.  The digest was recorded at the commit that still had separate
flat and two-level model classes; the single model must reproduce it bit
for bit.
"""

import hashlib

from repro.comm import collectives
from repro.comm import hierarchical as H
from repro.comm.faults import FaultPlan
from repro.comm.network import NetworkModel
from repro.comm.payload import dense_bytes, quantized_rows_bytes
from repro.comm.simulator import Cluster

DIGEST = "5a4d2532a316d373bae570a0e11a23d391ed56811349285a4885f3b9e7e25a8a"
N_LINES = 11829

FLAT = [(5e-6, 1.25e-10, 5e10), (1.3e-6, 7.7e-11, 3.3e10), (0.0, 1e-9, 1e9)]
TWO_LEVEL = [(rpn, intra, inter) for rpn in (1, 2, 3, 4)
             for intra, inter in [((0.3e-6, 2e-11), (5e-6, 1.25e-10, 5e10)),
                                  ((1e-7, 1e-11), (1e-6, 1e-9, 2.5e10))]]
SURVIVORS = [(0, 1, 2, 4, 5), (0, 1, 2, 3, 4, 6), (1, 3), (0, 3, 5, 6, 7),
             (2,), (0, 2, 4, 6, 8), (1, 2, 3, 5, 9, 10, 11)]
NBYTES = [0, 1, 1000, 1 << 20, 1_920_000]
FAULTS = FaultPlan(seed=11, alpha_jitter=0.3, beta_jitter=0.2, drop_prob=0.2)


def networks():
    for a, b, f in FLAT:
        yield (f"flat {a!r} {b!r} {f!r}",
               NetworkModel(alpha=a, beta=b, node_flops=f))
    for rpn, (ia, ib), (a, b, f) in TWO_LEVEL:
        intra = (None if rpn == 1
                 else NetworkModel(alpha=ia, beta=ib, node_flops=f))
        yield (f"two-level {rpn} {ia!r} {ib!r} {a!r} {b!r} {f!r}",
               NetworkModel(alpha=a, beta=b, node_flops=f,
                            ranks_per_node=rpn, intra=intra))


def worlds():
    for p in range(1, 33):
        yield f"p={p}", None, p
    for ranks in SURVIVORS:
        yield f"survivors={ranks}", ranks, len(ranks)


def blocks(p):
    return [float((i * 37 % 11 + 1) * 1000) for i in range(p)]


def h(x):
    return float(x).hex()


def method_lines(lines):
    for name, net in networks():
        for tag, ranks, p in worlds():
            # A survivor world is priced over the placement its cluster
            # resolves; a dense one over the bare rank count.
            where = (p if ranks is None
                     else Cluster(p, net, global_ranks=ranks).groups)
            for n in NBYTES:
                lines.append(f"{name} {tag} allreduce_ring {n} "
                             f"{h(net.allreduce_ring_time(n, where))}")
                lines.append(
                    f"{name} {tag} allreduce_rd {n} "
                    f"{h(net.allreduce_recursive_doubling_time(n, where))}")
                lines.append(f"{name} {tag} broadcast {n} "
                             f"{h(net.broadcast_time(n, where))}")
            lines.append(f"{name} {tag} allgatherv_ring "
                         f"{h(net.allgatherv_ring_time(blocks(p), where))}")
            lines.append(f"{name} {tag} allgatherv_bruck "
                         f"{h(net.allgatherv_bruck_time(blocks(p), where))}")
            lines.append(
                f"{name} {tag} allgatherv_equal "
                f"{h(net.allgatherv_ring_time([4096.0] * p, where))}")
        for n in NBYTES:
            for m in (0, 1, 7):
                lines.append(f"{name} transfer {n} {m} "
                             f"{h(net.transfer_time(n, m))}")
                lat, bw = net.split_time(n * 1e-9, m)
                lines.append(f"{name} split {n} {m} {h(lat)} {h(bw)}")
            lines.append(f"{name} compute {n} {h(net.compute_time(n * 1e3))}")


def records(cluster):
    return [f"{r.op} {r.nbytes_total} {r.n_messages} {h(r.time)} "
            f"{r.retries} {r.hop}" for r in cluster.records]


def record_lines(lines):
    for name, net in networks():
        for tag, ranks, p in worlds():
            if ranks is None and p not in (1, 2, 3, 5, 8, 12, 16):
                continue
            for faults in (None, FAULTS):
                cluster = Cluster(p, net, faults=faults, global_ranks=ranks)
                member_bytes = [int(b) for b in blocks(p)]
                H.hier_allreduce_bytes(cluster, 1 << 20)
                H.hier_intra_reduce_bytes(cluster, 5000, "x")
                H.hier_inter_ring_bytes(cluster, 5000, "x")
                H.hier_intra_gather_bytes(cluster, member_bytes, "x")
                H.hier_inter_allgatherv_bytes(
                    cluster, [int(b) for b in blocks(cluster.groups.n_nodes)],
                    "x")
                H.hier_intra_bcast_bytes(cluster, 7000, "x")
                for algo in collectives.ALLREDUCE_ALGOS:
                    collectives.allreduce_bytes(cluster, 1 << 20, algo=algo)
                    collectives.allreduce_bytes(cluster, 1 << 20, algo=algo,
                                                op_label="flatview",
                                                network=net.inter)
                for algo in collectives.ALLGATHER_ALGOS:
                    collectives.allgatherv_bytes(cluster, member_bytes,
                                                 algo=algo)
                ftag = "faults" if faults else "clean"
                lines.extend(f"{name} {tag} {ftag} {r}"
                             for r in records(cluster))
                lines.append(f"{name} {tag} {ftag} elapsed "
                             f"{h(cluster.elapsed)}")


def crossover_lines(lines):
    inter = NetworkModel(alpha=5e-6, beta=1.25e-10)
    dense = dense_bytes(15_000, 32)
    onebit = quantized_rows_bytes(15_000, 32, bits=1)
    for world in [2, 4, 8, 16, 32]:
        for ratio in [1, 2, 4, 8, 16, 32]:
            net = NetworkModel(
                alpha=inter.alpha, beta=inter.beta, ranks_per_node=4,
                intra=NetworkModel(alpha=0.3e-6, beta=inter.beta / ratio))
            one = Cluster(world, net)
            nodes = one.groups.n_nodes
            H.hier_intra_reduce_bytes(one, dense)
            H.hier_inter_allgatherv_bytes(one, [onebit] * nodes)
            H.hier_intra_bcast_bytes(one, onebit * nodes)
            two = Cluster(world, net)
            H.hier_allreduce_bytes(two, dense)
            lines.append(f"crossover {world} {ratio} flat "
                         f"{h(inter.allreduce_ring_time(dense, world))}")
            lines.extend(f"crossover {world} {ratio} 1bit {r}"
                         for r in records(one))
            lines.extend(f"crossover {world} {ratio} dense {r}"
                         for r in records(two))


def pin_lines():
    lines = []
    method_lines(lines)
    record_lines(lines)
    crossover_lines(lines)
    return lines


def test_cost_model_matches_recorded_digest():
    lines = pin_lines()
    assert len(lines) == N_LINES
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
