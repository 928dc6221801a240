"""``python -m clockcheck``: the command line, without an installed script."""

from .cli import main

__all__: list[str] = []  # a script, not an API

if __name__ == "__main__":
    raise SystemExit(main())
