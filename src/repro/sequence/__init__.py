"""Sequence substrate: the pGraph analogue.

The paper's input graphs come from pGraph [25]: pairs of putative ORFs are
pre-filtered by a maximal-exact-match heuristic and then aligned with the
optimality-guaranteeing Smith-Waterman algorithm; sufficiently similar pairs
become edges of the similarity graph that gpClust clusters.

Neither the GOS sequence data nor pGraph itself is available, so this package
implements the full equivalent pipeline from scratch:

* amino-acid alphabet and integer encoding (:mod:`repro.sequence.alphabet`);
* FASTA I/O (:mod:`repro.sequence.fasta`);
* BLOSUM62 scoring (:mod:`repro.sequence.scoring`);
* a synthetic protein-family generator — ancestral sequences, divergence by
  substitution/indel, optional shotgun-style fragmenting
  (:mod:`repro.sequence.generator`);
* Smith-Waterman local alignment: scalar references and batched row-scan
  vectorized implementations (:mod:`repro.sequence.smith_waterman`);
* a k-mer seed filter standing in for pGraph's suffix-tree maximal-match
  pair generation (:mod:`repro.sequence.kmer_filter`), sharing its
  group-to-pairs expansion with the suffix-array filter
  (:mod:`repro.sequence.pairs`);
* a shared-memory sequence arena for multi-process alignment workers
  (:mod:`repro.sequence.arena`);
* homology-graph construction tying it together, serial or sharded across
  a process pool with bit-identical output
  (:mod:`repro.sequence.homology`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AMINO_ACIDS": ".alphabet",
    "BLOSUM62": ".scoring",
    "GeneralizedSuffixArray": ".suffix",
    "HomologyConfig": ".homology",
    "HomologyResult": ".homology",
    "HomologyTimings": ".homology",
    "Profile": ".profile",
    "SequenceArena": ".arena",
    "SequenceFamilyConfig": ".generator",
    "SyntheticProteinSet": ".generator",
    "batch_self_scores": ".smith_waterman",
    "batch_smith_waterman": ".smith_waterman",
    "blosum62_matrix": ".scoring",
    "build_homology_graph": ".homology",
    "build_profile": ".profile",
    "candidate_pairs": ".kmer_filter",
    "candidate_pairs_suffix": ".suffix",
    "decode": ".alphabet",
    "encode": ".alphabet",
    "expand_cluster": ".profile",
    "generate_protein_families": ".generator",
    "profile_score": ".profile",
    "read_fasta": ".fasta",
    "sw_align": ".smith_waterman",
    "sw_score_affine": ".smith_waterman",
    "sw_score_linear": ".smith_waterman",
    "write_fasta": ".fasta",
})
