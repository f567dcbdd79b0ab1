"""Reproduction of "Scheduling Malleable Applications in Multicluster Systems".

Buisson, Sonmez, Mohamed, Lammers and Epema (IEEE Cluster 2007) added support
for *malleable* parallel applications — applications that can grow and shrink
their processor allocation while running — to the KOALA multicluster grid
scheduler, using the DYNACO adaptability framework on the application side,
and evaluated two job-management approaches (PRA, PWA) combined with two
malleability-management policies (FPSMA, EGS) on the DAS-3 testbed.

This package reproduces that system end to end on a discrete-event simulated
DAS-3, organised around a **unified pluggable policy API**: every scheduling
decision — *where* jobs are placed, *how* processors are spread over running
malleable jobs, and *when* the malleability manager acts — is a policy
registered in :mod:`repro.policies`, and the KOALA scheduler is an
event-driven core that consults all three axes through one typed event-hook
mechanism.

* :mod:`repro.sim` — the discrete-event simulation kernel;
* :mod:`repro.cluster` — the multicluster substrate (clusters, SGE-like local
  resource managers, GRAM endpoints, background load, network);
* :mod:`repro.apps` — the application models (NAS FT, GADGET-2, speedup and
  reconfiguration-cost models);
* :mod:`repro.dynaco` — the DYNACO observe/decide/plan/execute control loop
  and the AFPAC executor;
* :mod:`repro.policies` — **the policy API**: the ``(kind, name)`` registry,
  the :func:`~repro.policies.register` decorator, the
  :class:`~repro.policies.PolicySpec` parser for parameterised references
  (``"EASY?reserve_depth=2"``), the typed scheduler events and the
  :class:`~repro.policies.SchedulerHooks` interface — plus the two shipped
  policies beyond the paper (FCFS+EASY backfilling placement and the
  ElastiSim-style ``AVERAGE_STEAL`` fair-share malleability policy);
* :mod:`repro.koala` — the KOALA scheduler: an event-emitting core, the
  placement policies (WF/CF/CM/FCM), placement queue, information service,
  runners, MRunner;
* :mod:`repro.malleability` — the malleability manager, the PRA/PWA
  approaches and the FPSMA/EGS policies (plus equipartition/folding
  baselines);
* :mod:`repro.workloads` — the paper's workloads and SWF trace support;
* :mod:`repro.metrics` — CDFs, utilization and activity metrics;
* :mod:`repro.experiments` — the scenario registry, the parallel sweep
  engine with its result cache, and the figure/ablation reports.

Quickstart
----------
>>> from repro.experiments.setup import ExperimentConfig, run_experiment
>>> result = run_experiment(ExperimentConfig(workload="Wm", job_count=20,
...                                          malleability_policy="EGS", approach="PRA"))
>>> result.metrics.job_count
20

Policies are referenced by registered name and may carry parameters; both
forms are validated when the configuration is constructed:

>>> ExperimentConfig(malleability_policy="AVERAGE_STEAL?balance='absolute'",
...                  placement_policy="EASY").placement_policy
'EASY'

Writing a new policy is one file — subclass an axis base class, decorate it
with :func:`repro.policies.register`, and every configuration surface
(configs, scenario sweeps, ``repro-cli``) can use it immediately; see
``examples/custom_policy.py``.
"""

__version__ = "0.6.0"

__all__ = ["__version__"]
