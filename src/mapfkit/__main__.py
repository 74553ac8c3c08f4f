"""``python -m mapfkit``: the command-line interface, run from the package."""

from .cli import entry

if __name__ == "__main__":
    entry()
