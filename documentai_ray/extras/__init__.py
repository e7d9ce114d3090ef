"""Off-mission analytics/math kernels (vampire numbers, D'Hondt seats,
Bulgarian solitaire, ...), kept apart from the engine.

No module under ``stages/ functions/ sources/ state/ pipelines/`` imports
this package, and no registry query reaches it. Five off-chain query
bodies that are not registry keys call a kernel from here
(``_q_kruskal_wallis``, ``_q_fleiss_kappa``, ``_q_friedman_test``,
``_q_bh_fdr`` and ``_q_degree_assortativity``); every kernel is reached
only from unit tests, directly or through those bodies. The four modules
form an import chain: each star-imports the previous one, and
``analytics_extras_01`` binds the core names of ``stages/aggregates.py``.
This package re-exports the whole chain.
"""

from documentai_ray.extras.analytics_extras_04 import *  # noqa: F401,F403
