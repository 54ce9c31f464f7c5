"""
Batch ingestion and centroid rebalancing
========================================

When many logs arrive concurrently, two workers can both miss a cluster
that the other is about to create, leaving duplicate centroids for the
same underlying pattern.  This demo ingests a corpus as one batch, as
`logsift ingest --batch-mode` runs it: every search of the batch sees the
index as the batch began, so on an empty index every line creates a
cluster of its own.  It then runs the rebalancing pass that merges
near-duplicate centroids back together.  Template extraction is deferred
until after the merge so that only surviving clusters cost a completion
call.
"""

from logsift import (
    CentroidIndex,
    ClusterParser,
    EncoderWeights,
    HashingProvider,
    IngestConfig,
    MockCompletionClient,
    Pipeline,
)
from logsift.synthetic import generate_corpus

provider = HashingProvider(dim=512)
weights = EncoderWeights.identity_init(provider.dim)
corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)

parser = ClusterParser(client=MockCompletionClient())
pipeline = Pipeline(provider, weights, CentroidIndex(), parser,
                    IngestConfig(batch_mode=True))

assignments, errors = pipeline.ingest_batch(list(corpus.records))
created = sum(a.created_new for a in assignments)
print(f"after batch ingest: {len(pipeline.index)} clusters "
      f"({created} creations, {len(errors)} errors)")
print(f"completion calls so far: {parser.client.query_count} (deferred)")

report = pipeline.force_rebalance()
print(f"\nrebalance merged {len(report.merges)} centroid pairs:")
for event in report.merges[:10]:
    print(f"  {sorted(event.absorbed_ids)} -> {event.surviving_id} "
          f"(similarity {event.similarity:.4f})")
if len(report.merges) > 10:
    print(f"  ... and {len(report.merges) - 10} more")

print(f"\nafter rebalance: {len(pipeline.index)} clusters, "
      f"total weight {pipeline.index.total_weight()}")
print(f"completion calls total: {parser.client.query_count} "
      f"(one per surviving cluster)")
