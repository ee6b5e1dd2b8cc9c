"""``python -m tamari``: the ``tamari`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
