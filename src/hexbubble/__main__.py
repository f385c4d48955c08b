"""`python -m hexbubble`: the same command as the `hexbubble` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
