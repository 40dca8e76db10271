"""``python -m cauchybench`` and the ``cauchybench`` script.

OpenBLAS starts spinning helper threads when numpy is imported, though no
product a run makes is large enough to thread. So, before numpy loads, the
entry point asks for one thread unless the caller chose a number. Importing
any other module leaves the environment alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must see the setting above)

if __name__ == "__main__":
    main()
