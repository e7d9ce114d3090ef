"""Off-mission analytics/math kernels (vampire numbers, D'Hondt seats,
Bulgarian solitaire, ...), kept apart from the engine.

No module under ``stages/ functions/ sources/ state/ pipelines/`` imports
this package. Five registry queries still call a kernel from here
(``kruskal_wallis``, ``fleiss_kappa``, ``friedman_test``, ``bh_fdr`` and
``degree_assortativity``); every other kernel is reached only from its
unit tests. The four modules form an import chain: each star-imports the
previous one, and ``analytics_extras_01`` binds the core names of
``stages/aggregates.py``. This package re-exports the whole chain.
"""

from documentai_ray.extras.analytics_extras_04 import *  # noqa: F401,F403
