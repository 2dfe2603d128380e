"""``python -m mosim``: the same command line as the ``mosim`` script."""

from .cli import main

if __name__ == "__main__":
    main()
