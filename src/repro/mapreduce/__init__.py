"""A miniature MapReduce engine and Shingling expressed as MR jobs.

The paper's lineage includes a distributed pClust: "In Rytsareva et al.
[18], we report two very different approaches to parallelize pClust — one
using shared memory OpenMP parallelization and another using the Hadoop
MapReduce model ... The OpenMP implementation was significantly faster than
the Hadoop implementation due to the expensive disk I/O operations involved
in the Hadoop platform." (Section I-A.)

This package reproduces that comparison point: :class:`MapReduceEngine` is a
single-machine engine that faithfully models Hadoop's data movement — map
outputs spill to disk, the shuffle reads/sorts/partitions them through disk
again, reducers read their partitions — and :mod:`repro.mapreduce.shingle_mr`
expresses the two shingling passes as MR jobs over it.  The MR pipeline
produces bit-identical clusterings to :class:`repro.core.pipeline.GpClust`,
while its per-record serialization and spill I/O make it dramatically
slower, exactly the effect the paper cites.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "JobStats": ".engine",
    "MapReduceEngine": ".engine",
    "MapReducePClust": ".shingle_mr",
    "mr_shingle_pass": ".shingle_mr",
})
