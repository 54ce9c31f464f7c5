"""
Evaluating a parsing run
========================

Four metrics, two axes: grouping (did logs that share a template land in
the same cluster?) and templates (did we recover the right template
text?), each at log granularity (GA, PA) and group granularity (FGA, FTA).

This demo runs the full pipeline on the synthetic fixture, then scores
the predictions against ground truth, and also shows how a deliberately
broken prediction drags each metric down differently.
"""

from logsift import (
    CentroidIndex,
    ClusterParser,
    EncoderWeights,
    HashingProvider,
    IngestConfig,
    MockCompletionClient,
    Pipeline,
    evaluate,
)
from logsift.synthetic import generate_corpus

provider = HashingProvider(dim=512)
weights = EncoderWeights.identity_init(provider.dim)
parser = ClusterParser(client=MockCompletionClient())
pipeline = Pipeline(provider, weights, CentroidIndex(), parser,
                    IngestConfig())

corpus = generate_corpus(n_templates=10, logs_per_template=100, seed=7)
assignments = [pipeline.ingest(r) for r in corpus.records]

# each log's template is its final cluster's, read from that centroid
predicted = [pipeline.index.get(a.cluster_id).row_template() for a in assignments]
truth = [corpus.template_texts[t] for t in corpus.template_ids]

report = evaluate(predicted, truth)
print("perfect run:")
print(report.to_table())

# now sabotage the run: corrupt one template's text, and give half of
# another cluster's logs a second template, which splits that group
broken = list(predicted)
for i, t in enumerate(broken):
    if t == predicted[0]:
        broken[i] = predicted[0] + " oops"        # wrong text, same group
for i in range(100, 150):
    broken[i] = predicted[i] + " split"           # half of the second cluster

report = evaluate(broken, truth)
print("\nsabotaged run (one template text corrupted, one group split):")
print(report.to_table())
