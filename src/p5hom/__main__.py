"""Run the command line as ``python -m p5hom``."""

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    raise SystemExit(main())
