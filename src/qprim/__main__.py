"""`python -m qprim ...` runs the same commands as the `qprim` script."""

from .cli import main

if __name__ == "__main__":
    main()
