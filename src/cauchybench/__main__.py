"""``python -m cauchybench`` and the ``cauchybench`` script.

OpenBLAS starts spinning helper threads when numpy is imported, though no
product a run makes is large enough to thread. So, before numpy loads, the
entry point asks for one thread unless the caller chose a number.

Importing numpy and the package leaves about 22,000 objects that live as
long as the process. Once they are loaded, the entry point moves them to
the permanent generation (``gc.freeze``), so no later collection walks
them: not the run's own, not those of the workers it forks, which inherit
the frozen heap, and not the final ones at exit. On a 2-CPU machine, exit
took about 26 ms of a ``--version`` process and 35 ms of an hc2 run
before, and takes about 6 and 13 ms after. Importing any other module
leaves the environment and the garbage collector alone.
"""

import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must see the setting above)

gc.freeze()

if __name__ == "__main__":
    main()
