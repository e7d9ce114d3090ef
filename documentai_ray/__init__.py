"""documentai_ray — a Ray-Data-native document extraction & processing engine.

A from-scratch rebuild of the query / data-processing capabilities of the
reference system (SatwickDev/DocumentAI — a FastAPI/MCP microservice platform
for per-document quality scoring, classification, entity extraction and rule
validation), re-expressed as streaming ``ray.data.Dataset`` pipelines over
Parquet tables of Common-Crawl-style web pages.

Design notes (see SURVEY.md for the full blueprint):

- Every per-document transform is a vectorized ``map_batches`` stage over
  Arrow batches; stateful stages (warm models, compiled pattern tables) are
  callable classes run as actor pools.
- Wide operations (dedup, metric roll-ups) are explicit ``groupby`` /
  partial-aggregate steps keyed on ``url``-hash buckets with salting for
  skew-heavy hosts.
- No stage materializes the full dataset; pipelines stream with backpressure
  and write partitioned, manifest-tracked Parquet for resumability.

IMPORTANT: nothing in this package calls ``ray.init()`` / ``ray.shutdown()``;
the process that owns the Ray session (bench.py, tests/conftest.py, the
driver) is responsible for lifecycle.
"""

__version__ = "0.1.0"


def register_for_ray_by_value() -> None:
    """Register the ``documentai_ray`` package for cloudpickle BY-VALUE
    serialization: Ray workers then receive UDF code inside the task spec
    and never need ``documentai_ray`` on their own ``sys.path`` (the driver
    may have initialised Ray from an arbitrary cwd). cloudpickle treats a
    module as by-value when any parent package is registered, so this
    covers every submodule, including ones imported later. Third-party
    references (numpy, pyarrow, ray, …) remain by-reference. Idempotent."""
    try:
        from ray import cloudpickle
    except ImportError:
        return
    import documentai_ray

    cloudpickle.register_pickle_by_value(documentai_ray)
