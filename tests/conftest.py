"""One `hypothesis` profile for every property suite: derandomized, so a run
draws the same examples each time, and without per-example deadlines, which
a busy machine would break.  Each suite sets its own `max_examples`."""

from hypothesis import settings

settings.register_profile("treelab", derandomize=True, deadline=None)
settings.load_profile("treelab")
