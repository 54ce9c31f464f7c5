"""
Streaming log clustering, one record at a time
==============================================

Feed a synthetic corpus of 1000 logs (10 underlying templates) through the
sequential pipeline and watch clusters form.  Each new log is embedded,
matched against the existing centroids, and either joins the closest
cluster (moving-average update) or founds a new one (and triggers a single
template-extraction call).
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
parser = ClusterParser(client=MockCompletionClient())
pipeline = Pipeline(provider, weights, CentroidIndex(), parser,
                    IngestConfig(similarity_threshold=0.9))

corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)

for i, record in enumerate(corpus.records):
    assignment = pipeline.ingest(record)
    if assignment.created_new:
        print(f"log {i:4d}: NEW cluster {assignment.cluster_id} "
              f"-> template: {assignment.template!r}")

print()
print(f"{len(corpus)} logs -> {len(pipeline.index)} clusters")
print(f"template-extraction calls: {parser.client.query_count}")
for centroid in pipeline.index.centroids():  # each holds its own template
    print(f"  cluster {centroid.cluster_id}: weight={centroid.weight:4d}  "
          f"{centroid.row_template()}")
